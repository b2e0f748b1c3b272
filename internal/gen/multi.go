package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/hypercube"
	"repro/internal/sym"
)

// randomMulti generates a Components-way decomposable instance: each
// component is an independent feasible sub-instance over 2 or 4 symbols,
// merged into one universe with disjoint constraint graphs. Component
// sizes are powers of two and sub-witnesses carry no slack bit, so every
// sub-witness is a bijection onto its own subcube; packing the subcubes
// with the same aligned layout internal/decomp uses yields a global
// witness whose width is exactly hypercube.MinBits(total symbols) — the
// monolithic minimum. That makes these instances exact oracles for the
// decomposed-vs-monolithic cost invariant, not just for feasibility.
func randomMulti(seed int64, cfg Config) Instance {
	k := cfg.Components
	rng := rand.New(rand.NewSource(seed))

	sub := cfg
	sub.Components = 0
	sub.Feasible = true
	sub.ExtraBitProb = 0
	// Non-faces (and chains, which gen never emits) defeat decomposition;
	// a multi-component instance must stay decomposable.
	sub.NonFaces = 0
	perClass := func(total int) int { return (total + k - 1) / k }
	sub.Faces = perClass(cfg.Faces)
	sub.Dominances = perClass(cfg.Dominances)
	sub.Disjunctives = perClass(cfg.Disjunctives)
	sub.ExtDisjunctives = perClass(cfg.ExtDisjunctives)
	sub.Distance2s = perClass(cfg.Distance2s)
	sub.MaxFaceSize = 0 // re-derive per component from its own size

	type part struct {
		inst   Instance
		offset int // global index of the component's local symbol 0
		size   int
	}
	parts := make([]part, k)
	table := sym.NewTable()
	offset := 0
	for i := range parts {
		c := sub
		c.Symbols = 1 << uint(1+rng.Intn(2)) // 2 or 4 symbols
		// Redraw until the group's own constraint graph is connected: a
		// symbol that only ever appears as a face don't-care would split
		// off as a singleton, and the aligned layout then pays a slack
		// bit (9 codepoints need 4, not 3). Connected power-of-two groups
		// keep the assembled width exactly at the monolithic minimum.
		// The cap guards against constraint-starved configs; a rare
		// still-disconnected draw is accepted (the instance stays valid,
		// the decomposed solve just reports Optimal=false honestly).
		in := Random(rng.Int63(), c)
		for try := 0; decomp.Count(in.Set) != 1 && try < attempts; try++ {
			in = Random(rng.Int63(), c)
		}
		parts[i] = part{inst: in, offset: offset, size: c.Symbols}
		// Prefix names with the component index so the merged universe
		// stays collision-free and failures name their component.
		for j := 0; j < c.Symbols; j++ {
			table.Intern(fmt.Sprintf("c%d.%s", i, in.Set.Syms.Name(j)))
		}
		offset += c.Symbols
	}
	total := offset

	cs := constraint.NewSet(table)
	for _, p := range parts {
		shift := make([]int, p.size)
		for j := range shift {
			shift[j] = p.offset + j
		}
		p.inst.Set.MapInto(shift, func(int) *constraint.Set { return cs })
	}

	// Assemble the global witness with the aligned-subcube layout: wider
	// components first (ties by creation order), each at a base address
	// that is a multiple of its own subcube size.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := parts[order[a]].inst.Witness, parts[order[b]].inst.Witness
		if wa.Bits != wb.Bits {
			return wa.Bits > wb.Bits
		}
		return order[a] < order[b]
	})
	codes := make([]hypercube.Code, total)
	base := hypercube.Code(0)
	for _, ci := range order {
		p := parts[ci]
		w := p.inst.Witness
		for j := 0; j < p.size; j++ {
			codes[p.offset+j] = base | w.Codes[j]
		}
		base += 1 << uint(w.Bits)
	}
	bits := hypercube.MinBits(int(base))

	return Instance{
		Seed:    seed,
		Cfg:     cfg,
		Set:     cs,
		Witness: core.NewEncoding(table, bits, codes),
	}
}
