package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/encodingapi"
)

func TestDecomposedEncode(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, data := postJSON(t, ts, "/v1/encode",
		fmt.Sprintf(`{"constraints": %q, "decompose": true}`, "face a b\nface c d\n"), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out encodingapi.EncodeResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != modeExact || !out.Feasible {
		t.Errorf("mode=%q feasible=%v, want exact/true", out.Mode, out.Feasible)
	}
	if len(out.Codes) != 4 {
		t.Errorf("codes = %d symbols, want 4", len(out.Codes))
	}
	seen := map[string]bool{}
	for sym, code := range out.Codes {
		if seen[code] {
			t.Errorf("duplicate code %q (symbol %q)", code, sym)
		}
		seen[code] = true
	}
	st := s.Stats()
	if st.Decompositions != 1 || st.Components != 2 {
		t.Errorf("decompositions=%d components=%d, want 1, 2", st.Decompositions, st.Components)
	}
	if st.Solves != 2 {
		t.Errorf("solves = %d, want 2 (one per component)", st.Solves)
	}
}

// TestDecomposedInfeasibleComponent pins the satellite-1 bugfix on the wire:
// a request whose *second* component is infeasible answers 422 with the
// minimized conflict stated in the request's original symbol names — the
// component-local indices from the sub-solve must never leak into the body.
func TestDecomposedInfeasibleComponent(t *testing.T) {
	cases := []struct {
		name, text string
		// wantMention must all appear in the conflict lines; the feasible
		// first component's symbols must not.
		wantMention []string
		neverChecks []string
	}{
		{
			// Solver-path infeasibility: code(a2) = code(b2) | code(c2)
			// places a2 inside span(b2, c2), which the face forbids.
			name:        "solver path",
			text:        "face p q\ndisj a2 = b2 | c2\nface b2 c2\n",
			wantMention: []string{"b2", "c2"},
			neverChecks: []string{"p", "q"},
		},
		{
			// Implied equality: a dominance cycle forces code(x) =
			// code(y), which the component's own solve rejects.
			name:        "implied equality",
			text:        "face p q\ndom x > y\ndom y > x\n",
			wantMention: []string{"x", "y"},
			neverChecks: []string{"p", "q"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			resp, data := postJSON(t, ts, "/v1/encode",
				fmt.Sprintf(`{"constraints": %q, "decompose": true}`, tc.text), "")
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422: %s", resp.StatusCode, data)
			}
			var body struct {
				Error struct {
					Code     string   `json:"code"`
					Message  string   `json:"message"`
					Conflict []string `json:"conflict"`
				} `json:"error"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatal(err)
			}
			if len(body.Error.Conflict) == 0 {
				t.Fatalf("no conflict lines in %s", data)
			}
			joined := strings.Join(body.Error.Conflict, "\n")
			for _, want := range tc.wantMention {
				if !strings.Contains(joined, want) {
					t.Errorf("conflict %q does not name original symbol %q", joined, want)
				}
			}
			for _, never := range tc.neverChecks {
				for _, line := range body.Error.Conflict {
					for _, tok := range strings.Fields(line) {
						if tok == never {
							t.Errorf("conflict %q drags in feasible-component symbol %q", joined, never)
						}
					}
				}
			}
		})
	}
}

// TestDecomposedComponentCache is the PR 4 cache-key regression guard at
// component granularity, and the acceptance criterion that a permuted
// duplicate performs zero kernel solves. Components: A = {a,b},
// B = {c,d}, C = {e,f}, each a single face.
func TestDecomposedComponentCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(text string) {
		t.Helper()
		resp, data := postJSON(t, ts, "/v1/encode",
			fmt.Sprintf(`{"constraints": %q, "decompose": true}`, text), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, data)
		}
	}

	// Request 1: components A and B — two kernel solves, both cached.
	post("face a b\nface c d\n")
	st := s.Stats()
	if st.Solves != 2 || st.ComponentCacheMisses != 2 {
		t.Fatalf("after request 1: solves=%d misses=%d, want 2, 2", st.Solves, st.ComponentCacheMisses)
	}

	// Request 2: the same set permuted across and within constraints. The
	// order-invariant full-request hash answers it from the cache — zero
	// kernel solves.
	post("face d c\nface b a\n")
	st = s.Stats()
	if st.Solves != 2 {
		t.Errorf("after permuted duplicate: solves=%d, want 2 (zero new kernel solves)", st.Solves)
	}
	if st.CacheHits != 1 {
		t.Errorf("after permuted duplicate: cache_hits=%d, want 1", st.CacheHits)
	}

	// Request 3: components A and C. A rebuilds from its sub-hash entry
	// (permuted spelling again); only C reaches the pool.
	post("face b a\nface e f\n")
	st = s.Stats()
	if st.Solves != 3 {
		t.Errorf("after request 3: solves=%d, want 3 (component A served from cache)", st.Solves)
	}
	if st.ComponentCacheHits != 1 {
		t.Errorf("after request 3: component_cache_hits=%d, want 1", st.ComponentCacheHits)
	}

	// Request 4: components B and C — every component cached, so the
	// request never reaches the pool at all.
	post("face f e\nface d c\n")
	st = s.Stats()
	if st.Solves != 3 {
		t.Errorf("after request 4: solves=%d, want 3 (all components cached)", st.Solves)
	}
	if st.ComponentCacheHits != 3 {
		t.Errorf("after request 4: component_cache_hits=%d, want 3", st.ComponentCacheHits)
	}
	// Total kernel solves == distinct components across the whole
	// sequence: the satellite-3 invariant.
	if distinct := 3; int(st.Solves) != distinct {
		t.Errorf("solves=%d != distinct components %d", st.Solves, distinct)
	}
}

// TestDecomposedMatchesMonolithic pins that the two paths agree on the
// wire: same bit-width and a Verify-clean encoding for a set with mixed
// constraint classes across components.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	const text = "face a b\nface b c\ndom a > d\nface e f\n"
	_, ts := newTestServer(t, Config{})

	resp, data := postJSON(t, ts, "/v1/encode", fmt.Sprintf(`{"constraints": %q}`, text), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("monolithic: %d: %s", resp.StatusCode, data)
	}
	var mono encodingapi.EncodeResult
	if err := json.Unmarshal(data, &mono); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Decompose: true})
	resp, data = postJSON(t, ts2, "/v1/encode", fmt.Sprintf(`{"constraints": %q}`, text), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decomposed: %d: %s", resp.StatusCode, data)
	}
	var dec encodingapi.EncodeResult
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Bits != mono.Bits {
		t.Errorf("decomposed bits = %d, monolithic = %d", dec.Bits, mono.Bits)
	}
	if len(dec.Codes) != len(mono.Codes) {
		t.Errorf("decomposed codes = %d symbols, monolithic = %d", len(dec.Codes), len(mono.Codes))
	}
}

// TestDecomposeRejectedOutsideExact pins the 400 on a decompose request in
// a mode that cannot honor it.
func TestDecomposeRejectedOutsideExact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts, "/v1/encode",
		fmt.Sprintf(`{"constraints": %q, "mode": "feasible", "decompose": true}`, feasibleText), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, data)
	}
}
