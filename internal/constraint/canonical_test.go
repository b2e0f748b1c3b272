package constraint_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/gen"
	"repro/internal/sym"
)

// reintern rebuilds cs over a table that interns its names in a random
// order.
func reintern(r *rand.Rand, cs *constraint.Set) *constraint.Set {
	names := cs.Syms.Names()
	t := sym.NewTable()
	for _, i := range r.Perm(len(names)) {
		t.Intern(names[i])
	}
	to := make([]int, len(names))
	for i, n := range names {
		to[i], _ = t.Lookup(n)
	}
	out := constraint.NewSet(t)
	cs.MapInto(to, func(int) *constraint.Set { return out })
	return out
}

func shuffle[T any](r *rand.Rand, xs []T) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// respell returns a copy of cs with every class list and every unordered
// group shuffled and every distance-2 pair swapped: the same problem.
func respell(r *rand.Rand, cs *constraint.Set) *constraint.Set {
	c := cs.Clone()
	shuffle(r, c.Faces)
	shuffle(r, c.Dominances)
	shuffle(r, c.Disjunctives)
	for _, d := range c.Disjunctives {
		shuffle(r, d.Children)
	}
	shuffle(r, c.ExtDisjunctives)
	for _, e := range c.ExtDisjunctives {
		shuffle(r, e.Conjunctions)
		for _, conj := range e.Conjunctions {
			shuffle(r, conj)
		}
	}
	shuffle(r, c.Distance2s)
	for i, d := range c.Distance2s {
		c.Distance2s[i] = constraint.Distance2{A: d.B, B: d.A}
	}
	shuffle(r, c.NonFaces)
	shuffle(r, c.Chains)
	return c
}

// unrestrictedSets yields gen's unrestricted sets, which draw faces with
// don't-cares and every class but chains, each with one chain added.
func unrestrictedSets(t *testing.T, fn func(seed int64, cs *constraint.Set)) {
	t.Helper()
	for n := 4; n <= 9; n++ {
		cfg := gen.DefaultConfig(n)
		cfg.Feasible = false
		cfg.Distance2s, cfg.NonFaces = 2, 1
		for seed := int64(1); seed <= 40; seed++ {
			cs := gen.Random(seed, cfg).Set
			cs.Chains = append(cs.Chains, constraint.Chain{Seq: []int{int(seed) % n, (int(seed) + 1) % n}})
			if err := cs.Validate(); err != nil {
				t.Fatalf("n=%d seed %d: %v", n, seed, err)
			}
			fn(seed, cs)
		}
	}
}

// TestCanonicalIgnoresSpelling: re-interning the symbols, shuffling every
// list and unordered group and swapping distance-2 pairs leaves the
// canonical form unchanged, and Dedupe drops such a respelled copy of
// every constraint and returns the canonical form of what it keeps.
func TestCanonicalIgnoresSpelling(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	unrestrictedSets(t, func(seed int64, cs *constraint.Set) {
		want := cs.Canonical()
		for _, v := range []*constraint.Set{reintern(r, cs), respell(r, cs), reintern(r, respell(r, cs))} {
			if got := v.Canonical(); got != want {
				t.Fatalf("seed %d: respelled set changed the canonical form:\n%s\nvs\n%s", seed, cs, v)
			}
		}

		deduped := cs.Clone()
		if form := deduped.Dedupe(); form != deduped.Canonical() {
			t.Fatalf("seed %d: Dedupe returned\n%s\nfor a set whose canonical form is\n%s", seed, form, deduped.Canonical())
		}
		doubled := deduped.Clone()
		respell(r, deduped).MapInto(nil, func(int) *constraint.Set { return doubled })
		if form := doubled.Dedupe(); form != deduped.Canonical() {
			t.Fatalf("seed %d: Dedupe of a respelled double returned\n%s\nwant\n%s", seed, form, deduped.Canonical())
		}
		if doubled.String() != deduped.String() {
			t.Fatalf("seed %d: Dedupe kept a respelled repeat:\n%s\nwant\n%s", seed, doubled, deduped)
		}
	})
}

// TestCanonicalSeesMeaning: dropping any constraint, reversing a dominance
// or a chain, and turning a face member into a don't-care each change the
// canonical form.
func TestCanonicalSeesMeaning(t *testing.T) {
	unrestrictedSets(t, func(seed int64, cs *constraint.Set) {
		want := cs.Canonical()
		differs := func(what string, v *constraint.Set) {
			t.Helper()
			if v.Canonical() == want {
				t.Fatalf("seed %d: %s kept the canonical form of\n%s", seed, what, cs)
			}
		}
		for i := 0; i < cs.Len(); i++ {
			differs("dropping a constraint", cs.Without(i))
		}
		for i, d := range cs.Dominances {
			v := cs.Clone()
			v.Dominances[i] = constraint.Dominance{Big: d.Small, Small: d.Big}
			differs("reversing a dominance", v)
		}
		for i, ch := range cs.Chains {
			v := cs.Clone()
			for j, x := range ch.Seq {
				v.Chains[i].Seq[len(ch.Seq)-1-j] = x
			}
			differs("reversing a chain", v)
		}
		for i, f := range cs.Faces {
			m, _ := f.Members.Min()
			v := cs.Clone()
			v.Faces[i].Members.Remove(m)
			v.Faces[i].DontCare.Add(m)
			differs("moving a face member to the don't-cares", v)
		}
	})
}

// TestCanonicalNamesNeverAlias: names holding spaces and the grammar's
// punctuation cannot make two different single-face sets share a canonical
// form; two sets share one exactly when they name the same symbols.
func TestCanonicalNamesNeverAlias(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	namesOf, formOf := map[string]string{}, map[string]string{}
	// The first alphabet makes joined names collide often ("a", "a b"
	// against "a a", "b"); the second holds the grammar's punctuation.
	for _, alphabet := range []string{"ab ", "a |&()[]>=,:1\n"} {
		for i := 0; i < 3000; i++ {
			names := make([]string, 1+r.Intn(3))
			for j := range names {
				var b strings.Builder
				for k := 1 + r.Intn(3); k > 0; k-- {
					b.WriteByte(alphabet[r.Intn(len(alphabet))])
				}
				names[j] = b.String()
			}
			cs := constraint.NewSet(nil)
			cs.AddFace(names...)
			key, form := strings.Join(cs.Syms.SortedNames(), "\x00"), cs.Canonical()
			if prev, ok := namesOf[form]; ok && prev != key {
				t.Fatalf("names %q and %q share the canonical form %q", prev, key, form)
			}
			if prev, ok := formOf[key]; ok && prev != form {
				t.Fatalf("names %q have two canonical forms, %q and %q", key, prev, form)
			}
			namesOf[form], formOf[key] = key, form
		}
	}
	a, b := constraint.NewSet(nil), constraint.NewSet(nil)
	a.AddFace("a b")
	b.AddFace("a", "b")
	if a.Canonical() == b.Canonical() {
		t.Fatal(`AddFace("a b") and AddFace("a", "b") share a canonical form`)
	}
}
