package bench

import (
	"strings"
	"testing"
	"time"
)

func TestFormatTable1Rows(t *testing.T) {
	rows := []Table1Row{
		{Name: "good", States: 10, Primes: 42, Bits: 4, Optimal: true, Time: 1500 * time.Millisecond},
		{Name: "capped", States: 20, Primes: 2026, Bits: 8, Time: 700 * time.Millisecond},
		{Name: "blown", States: 48, Aborted: true},
		{Name: "broken", States: 3, Err: "boom"},
	}
	out := FormatTable1(rows, true)
	for _, want := range []string{"good", "42", "1.5s", "> limit", "*", "! boom", "| proved |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	for i, want := range map[int]string{2: "yes", 3: "budget"} {
		if f := strings.Split(lines[i], " | "); f[4] != want {
			t.Fatalf("line %q: Proved column is not %q", lines[i], want)
		}
	}
	if block := FormatTable1(rows, false); strings.Contains(block, "1.5s") {
		t.Fatalf("the block form holds a wall time:\n%s", block)
	}
}

func TestFormatTable2Rows(t *testing.T) {
	rows := []Table2Row{
		{Name: "x", States: 8, Constraints: 5, NovaSat: 4, EncSat: 5, NovaCubes: 10, EncCubes: 8},
		{Name: "bad", States: 2, Err: "nope"},
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "ENC/NOVA = 0.80") {
		t.Fatalf("ratio missing:\n%s", out)
	}
	if !strings.Contains(out, "! nope") {
		t.Fatalf("error row missing:\n%s", out)
	}
}

func TestFormatTable3Rows(t *testing.T) {
	rows := []Table3Row{
		{Name: "x", States: 8, SALits: 30, EncLits: 28, SATime: 10 * time.Second, EncTime: time.Second},
		{Name: "hard", States: 32, Dagger: true, SALits: 100, EncLits: 90,
			SATime: 2 * time.Second, EncTime: 3 * time.Second},
		{Name: "bad", States: 2, Err: "nope"},
	}
	out := FormatTable3(rows, true)
	for _, want := range []string{"10.0", "+hard", "! nope"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if block := FormatTable3(rows, false); strings.Contains(block, "time") {
		t.Fatalf("the block form holds a wall time:\n%s", block)
	}
}

func TestRunTable1UnknownName(t *testing.T) {
	rows := RunTable1(Table1Options{Names: []string{"not-a-benchmark"}})
	if len(rows) != 0 {
		t.Fatalf("unknown names select nothing, got %v", rows)
	}
}

func TestContainsName(t *testing.T) {
	if !containsName([]string{"a", "b"}, "b") || containsName([]string{"a"}, "z") {
		t.Fatal("containsName wrong")
	}
}
