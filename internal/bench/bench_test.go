package bench

import (
	"strings"
	"testing"
)

func TestFigure1Golden(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "minimum cover: 2 columns") {
		t.Fatalf("figure 1 must end in a 2-column cover:\n%s", out)
	}
}

func TestFigure3Golden(t *testing.T) {
	out, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "minimum cover (4 columns)") {
		t.Fatalf("figure 3 must end in the paper's 4-column cover:\n%s", out)
	}
}

func TestFigure4Golden(t *testing.T) {
	out, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"feasible: false",
		"(s1 s3; s0 s2 s4 s5)", // the paper's first raised dichotomy
		"(s1 s5; s0)",          // one of the two uncovered seeds
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure8Golden(t *testing.T) {
	out, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"minimum cover (2 columns)", "s0 = 11", "s2 = 00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 8 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure9Golden(t *testing.T) {
	out, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"violated face constraints: 3", "cubes: 7", "literals: 14"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 9 output missing %q:\n%s", want, out)
		}
	}
}

// TestTable1SmallSubset runs the exact flow on the quick benchmarks and
// checks the paper-shape facts: they complete under the prime limit with
// verified encodings. Their rendered cells are pinned, so a change in a
// prime count, a code length or a Proved verdict fails here and not only
// in `paper -check`.
func TestTable1SmallSubset(t *testing.T) {
	rows := RunTable1(Table1Options{Names: []string{"dk512", "master"}})
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != "" || r.Aborted {
			t.Fatalf("%s must complete: %+v", r.Name, r)
		}
		if r.Primes == 0 || r.Bits == 0 {
			t.Fatalf("%s: missing results: %+v", r.Name, r)
		}
	}
	text := FormatTable1(rows, false)
	for _, want := range []string{
		"| primes |",
		"| dk512 | 15 | 3370 | 5 | budget |",
		"| master | 15 | 465 | 8 | yes |",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

// TestTable2SmallSubset checks structure and the headline relation (ENC
// needs no more cubes than NOVA in aggregate on these instances).
func TestTable2SmallSubset(t *testing.T) {
	rows := RunTable2(Table2Options{Names: []string{"dk512", "master", "bbsse"}})
	totalNova, totalEnc := 0, 0
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Name, r.Err)
		}
		if r.EncSat < 0 || r.EncSat > r.Constraints || r.NovaSat > r.Constraints {
			t.Fatalf("%s: satisfied counts out of range: %+v", r.Name, r)
		}
		totalNova += r.NovaCubes
		totalEnc += r.EncCubes
	}
	if totalEnc > totalNova {
		t.Fatalf("aggregate cube counts must favor ENC (paper Table 2): ENC %d vs NOVA %d",
			totalEnc, totalNova)
	}
	if !strings.Contains(FormatTable2(rows), "NOVA") {
		t.Fatal("format broken")
	}
}

// TestTable3SmallSubset checks the Table-3 shape on one quick benchmark:
// ENC must be competitive with SA on literals and faster than SA on this
// non-dagger row.
func TestTable3SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("annealing comparison skipped in -short mode")
	}
	rows := RunTable3(Table3Options{Names: []string{"dk512"}})
	if len(rows) != 1 || rows[0].Err != "" {
		t.Fatalf("rows: %+v", rows)
	}
	r := rows[0]
	if r.EncLits <= 0 || r.SALits <= 0 {
		t.Fatalf("missing literal counts: %+v", r)
	}
	// ENC within 25% of SA on this tiny instance.
	if float64(r.EncLits) > 1.25*float64(r.SALits) {
		t.Fatalf("ENC literals %d too far above SA %d", r.EncLits, r.SALits)
	}
	if r.SATime < r.EncTime {
		t.Fatalf("SA must be slower than ENC on non-dagger rows: %v vs %v", r.SATime, r.EncTime)
	}
	if !strings.Contains(FormatTable3(rows, true), "SA/ENC") {
		t.Fatal("format broken")
	}
}

func TestAblationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation timing skipped in -short mode")
	}
	out, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"prime-generation engines", "hit rate", "BronKerbosch", "cs/ps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation report missing %q:\n%s", want, out)
		}
	}
}
