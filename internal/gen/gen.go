// Package gen builds seeded random problem instances for the differential
// correctness harness (internal/diffcheck): constraint sets over every
// constraint class the framework handles, random finite-state machines for
// the fsm → symbolic-minimization path, and random symbolic output
// functions for the GPI pipeline.
//
// Everything is deterministic from an int64 seed: the same (seed, Config)
// pair always yields the same instance, so any failure a long randomized
// run finds is replayable from its seed alone.
//
// Two generation modes exist. In feasible-by-construction mode a random
// injective witness encoding is drawn first and every emitted constraint is
// checked against it, so the instance is satisfiable by construction and
// the witness doubles as an oracle for core.Verify. In unrestricted mode
// constraints are drawn blindly (only structural validity is guaranteed),
// which exercises the infeasibility paths: the P-1 verdict, ErrInfeasible,
// and the conflict-subset minimizer.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/sym"
)

// Config tunes one random constraint-set instance.
type Config struct {
	// Symbols is the universe size; at least 2.
	Symbols int
	// Faces, Dominances, Disjunctives and ExtDisjunctives are target
	// counts per class. In feasible mode a class may come up short when
	// the witness admits too few candidates; counts are targets, not
	// guarantees.
	Faces           int
	Dominances      int
	Disjunctives    int
	ExtDisjunctives int
	// Distance2s and NonFaces add Section-8 extension constraints, which
	// turn the exact encoder's covering step binate.
	Distance2s int
	NonFaces   int
	// MaxFaceSize caps face-constraint cardinality; 0 means
	// min(Symbols-1, 4).
	MaxFaceSize int
	// DontCareProb is the probability that a feasible-mode face keeps its
	// intruding symbols as encoding don't-cares instead of rejecting the
	// draw, and that an unrestricted face carries a don't-care block.
	DontCareProb float64
	// ExtraBitProb is the probability the feasible witness uses one bit
	// more than the minimum length, opening slack for face constraints.
	ExtraBitProb float64
	// Feasible selects feasible-by-construction mode.
	Feasible bool
	// Components, when at least 2, switches Random to multi-component
	// mode: the universe splits into that many power-of-two-sized symbol
	// groups whose constraint graphs are disjoint, so the instance
	// decomposes into exactly Components connected components. The mode
	// is feasible-by-construction (each group gets its own witness) and
	// never emits extension non-faces or witness slack bits, which keeps
	// the assembled witness at the monolithic minimum width — the oracle
	// the decomposed solver is differentially checked against.
	Components int
}

// DefaultConfig returns a balanced mixed-constraint config over n symbols:
// feasible by construction, with face, dominance, disjunctive and extended
// disjunctive constraints in roughly the proportions the paper's Table-1
// instances exhibit.
func DefaultConfig(n int) Config {
	return Config{
		Symbols:         n,
		Faces:           n / 2,
		Dominances:      n / 3,
		Disjunctives:    1,
		ExtDisjunctives: 1,
		DontCareProb:    0.3,
		ExtraBitProb:    0.5,
		Feasible:        true,
	}
}

// Instance is one generated problem: the constraint set, the seed and
// config that reproduce it, and — in feasible mode — the witness encoding
// every constraint was vetted against.
type Instance struct {
	Seed    int64
	Cfg     Config
	Set     *constraint.Set
	Witness *core.Encoding
}

// Random generates the instance determined by (seed, cfg).
func Random(seed int64, cfg Config) Instance {
	if cfg.Components >= 2 {
		return randomMulti(seed, cfg)
	}
	if cfg.Symbols < 2 {
		cfg.Symbols = 2
	}
	if cfg.MaxFaceSize == 0 || cfg.MaxFaceSize > cfg.Symbols-1 {
		cfg.MaxFaceSize = cfg.Symbols - 1
		if cfg.MaxFaceSize > 4 {
			cfg.MaxFaceSize = 4
		}
	}
	if cfg.MaxFaceSize < 2 {
		// A face needs two members and an outsider to constrain anything;
		// a two-symbol universe admits neither.
		cfg.Faces = 0
	}
	g := &generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
	inst := Instance{Seed: seed, Cfg: cfg}
	table := sym.NewTable()
	for i := 0; i < cfg.Symbols; i++ {
		table.Intern(fmt.Sprintf("s%d", i))
	}
	g.cs = constraint.NewSet(table)
	if cfg.Feasible {
		g.drawWitness()
	}
	g.faces()
	g.dominances()
	g.disjunctives()
	g.extDisjunctives()
	g.distance2s()
	g.nonFaces()
	inst.Set = g.cs
	if cfg.Feasible {
		inst.Witness = core.NewEncoding(table, g.bits, g.codes)
	}
	return inst
}

// attempts bounds the rejection-sampling loops per requested constraint.
const attempts = 24

type generator struct {
	rng   *rand.Rand
	cfg   Config
	cs    *constraint.Set
	bits  int
	codes []hypercube.Code
}

func (g *generator) n() int { return g.cfg.Symbols }

// drawWitness assigns distinct random codes at minimum length, plus one
// slack bit with probability ExtraBitProb.
func (g *generator) drawWitness() {
	g.bits = hypercube.MinBits(g.n())
	if g.rng.Float64() < g.cfg.ExtraBitProb {
		g.bits++
	}
	limit := 1 << uint(g.bits)
	perm := g.rng.Perm(limit)
	g.codes = make([]hypercube.Code, g.n())
	for i := range g.codes {
		g.codes[i] = hypercube.Code(perm[i])
	}
}

// pick returns k distinct symbol indices.
func (g *generator) pick(k int) []int {
	return g.rng.Perm(g.n())[:k]
}

func (g *generator) name(i int) string { return g.cs.Syms.Name(i) }

func (g *generator) names(idx []int) []string {
	out := make([]string, len(idx))
	for i, s := range idx {
		out[i] = g.name(s)
	}
	return out
}

// span returns the minimal witness-code face spanned by the symbols.
func (g *generator) span(members []int) hypercube.Face {
	vs := make([]hypercube.Code, len(members))
	for i, s := range members {
		vs[i] = g.codes[s]
	}
	return hypercube.Span(g.bits, vs...)
}

func (g *generator) faces() {
	for made, tries := 0, 0; made < g.cfg.Faces && tries < attempts*g.cfg.Faces; tries++ {
		k := 2 + g.rng.Intn(g.cfg.MaxFaceSize-1)
		if k > g.n()-1 {
			k = g.n() - 1
		}
		members := g.pick(k)
		if !g.cfg.Feasible {
			var dc []string
			if g.rng.Float64() < g.cfg.DontCareProb {
				for _, s := range g.rng.Perm(g.n()) {
					if !contains(members, s) {
						dc = append(dc, g.name(s))
						break
					}
				}
			}
			g.cs.AddFaceDC(g.names(members), dc)
			made++
			continue
		}
		face := g.span(members)
		var intruders []int
		for s := 0; s < g.n(); s++ {
			if !contains(members, s) && face.Contains(g.codes[s]) {
				intruders = append(intruders, s)
			}
		}
		if len(intruders) > 0 && g.rng.Float64() >= g.cfg.DontCareProb {
			continue // reject the draw; only sometimes rescue it with DCs
		}
		g.cs.AddFaceDC(g.names(members), g.names(intruders))
		made++
	}
}

func (g *generator) dominances() {
	for made, tries := 0, 0; made < g.cfg.Dominances && tries < attempts*g.cfg.Dominances; tries++ {
		p := g.pick(2)
		big, small := p[0], p[1]
		if g.cfg.Feasible && !hypercube.Covers(g.codes[big], g.codes[small]) {
			continue
		}
		g.cs.AddDominance(g.name(big), g.name(small))
		made++
	}
}

func (g *generator) disjunctives() {
	for made, tries := 0, 0; made < g.cfg.Disjunctives && tries < attempts*g.cfg.Disjunctives; tries++ {
		if !g.cfg.Feasible {
			k := 2 + g.rng.Intn(2)
			if k > g.n()-1 {
				k = g.n() - 1
			}
			idx := g.pick(k + 1)
			g.cs.AddDisjunctive(g.name(idx[0]), g.names(idx[1:])...)
			made++
			continue
		}
		parent := g.rng.Intn(g.n())
		// Children must be proper subsets of the parent code whose union
		// restores it; accumulate covered bits greedily in random order.
		var children []int
		var or hypercube.Code
		for _, c := range g.rng.Perm(g.n()) {
			if c == parent || !hypercube.Covers(g.codes[parent], g.codes[c]) {
				continue
			}
			if or|g.codes[c] == or && g.rng.Intn(2) == 0 {
				continue // redundant child: keep only sometimes, for variety
			}
			children = append(children, c)
			or |= g.codes[c]
			if or == g.codes[parent] && len(children) >= 2 {
				break
			}
		}
		if or != g.codes[parent] || len(children) < 2 {
			continue
		}
		g.cs.AddDisjunctive(g.name(parent), g.names(children)...)
		made++
	}
}

func (g *generator) extDisjunctives() {
	for made, tries := 0, 0; made < g.cfg.ExtDisjunctives && tries < attempts*g.cfg.ExtDisjunctives; tries++ {
		parent := g.rng.Intn(g.n())
		nConj := 1 + g.rng.Intn(3)
		var conjs [][]string
		var or hypercube.Code
		for c := 0; c < nConj; c++ {
			size := 1 + g.rng.Intn(2)
			var conj []int
			for _, s := range g.pick(g.n()) {
				if s != parent {
					conj = append(conj, s)
					if len(conj) == size {
						break
					}
				}
			}
			if len(conj) == 0 {
				continue
			}
			if g.cfg.Feasible {
				and := ^hypercube.Code(0)
				for _, s := range conj {
					and &= g.codes[s]
				}
				or |= and
			}
			conjs = append(conjs, g.names(conj))
		}
		if len(conjs) == 0 {
			continue
		}
		if g.cfg.Feasible && !hypercube.Covers(or, g.codes[parent]) {
			continue
		}
		g.cs.AddExtDisjunctive(g.name(parent), conjs...)
		made++
	}
}

func (g *generator) distance2s() {
	for made, tries := 0, 0; made < g.cfg.Distance2s && tries < attempts*g.cfg.Distance2s; tries++ {
		p := g.pick(2)
		if g.cfg.Feasible && hypercube.Distance(g.codes[p[0]], g.codes[p[1]]) < 2 {
			continue
		}
		g.cs.AddDistance2(g.name(p[0]), g.name(p[1]))
		made++
	}
}

func (g *generator) nonFaces() {
	for made, tries := 0, 0; made < g.cfg.NonFaces && tries < attempts*g.cfg.NonFaces; tries++ {
		k := 2 + g.rng.Intn(2)
		if k > g.n()-1 {
			k = g.n() - 1
		}
		members := g.pick(k)
		if g.cfg.Feasible {
			face := g.span(members)
			intruded := false
			for s := 0; s < g.n() && !intruded; s++ {
				intruded = !contains(members, s) && face.Contains(g.codes[s])
			}
			if !intruded {
				continue
			}
		}
		g.cs.AddNonFace(g.names(members)...)
		made++
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
