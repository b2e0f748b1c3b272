package sat

import "context"

// DefaultMaxConflicts bounds search effort when DPLL.MaxConflicts is zero.
// It mirrors cover.DefaultMaxNodes in spirit: large enough for every
// instance the encoder builds, small enough that a pathological formula
// degrades to Unknown instead of hanging.
const DefaultMaxConflicts = 500_000

// DPLL is the embedded solver: iterative DPLL with conflict-driven clause
// learning — unit propagation via two-watched literals, 1UIP learning,
// non-chronological backjumping, and activity-driven branching with
// deterministic (lowest-index) tie-breaks and saved phases. It is
// deterministic: identical formulas yield identical results, the model
// found included, which keeps the differential harness meaningful.
type DPLL struct {
	// MaxConflicts bounds the search; 0 means DefaultMaxConflicts.
	// Exhaustion yields Status Unknown.
	MaxConflicts int64
}

type dclause struct {
	lits []Lit
}

type dpllState struct {
	nVars   int
	watches [][]*dclause // indexed by Lit: clauses watching that literal
	assign  []int8       // per variable: 0 unknown, 1 true, -1 false
	level   []int32
	reason  []*dclause
	trail   []Lit
	lims    []int // trail indices at decision-level boundaries
	qhead   int
	seen    []bool
	act     []float64
	actInc  float64
	phase   []bool
	res     Result
}

// Solve decides f. The context is polled periodically; cancellation (like
// conflict-budget exhaustion) yields Status Unknown.
func (d *DPLL) Solve(ctx context.Context, f *CNF) Result {
	if f.Unsat() {
		return Result{Status: Unsat}
	}
	maxConfl := d.MaxConflicts
	if maxConfl <= 0 {
		maxConfl = DefaultMaxConflicts
	}
	n := f.NumVars()
	s := &dpllState{
		nVars:   n,
		watches: make([][]*dclause, 2*n),
		assign:  make([]int8, n),
		level:   make([]int32, n),
		reason:  make([]*dclause, n),
		seen:    make([]bool, n),
		act:     make([]float64, n),
		actInc:  1,
		phase:   make([]bool, n),
	}
	for _, cl := range f.Clauses {
		if len(cl) == 1 {
			if !s.enqueue(cl[0], nil) {
				return Result{Status: Unsat}
			}
			continue
		}
		s.attach(&dclause{lits: append([]Lit(nil), cl...)})
	}
	if s.propagate() != nil {
		return Result{Status: Unsat}
	}
	for {
		confl := s.propagate()
		if confl != nil {
			s.res.Conflicts++
			if len(s.lims) == 0 {
				s.res.Status = Unsat
				return s.res
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := &dclause{lits: learnt}
				s.attach(c)
				s.enqueue(learnt[0], c)
			}
			s.decayActivity()
			if s.res.Conflicts >= maxConfl {
				s.res.Status = Unknown
				return s.res
			}
			if s.res.Conflicts&255 == 0 && ctx.Err() != nil {
				s.res.Status = Unknown
				return s.res
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			s.res.Status = Sat
			s.res.Model = make([]bool, n)
			for i, a := range s.assign {
				s.res.Model[i] = a == 1
			}
			return s.res
		}
		s.res.Decisions++
		if s.res.Decisions&1023 == 0 && ctx.Err() != nil {
			s.res.Status = Unknown
			return s.res
		}
		s.lims = append(s.lims, len(s.trail))
		lit := Neg(v)
		if s.phase[v] {
			lit = Pos(v)
		}
		s.enqueue(lit, nil)
	}
}

func (s *dpllState) value(l Lit) int8 {
	a := s.assign[l.Var()]
	if l.Negated() {
		return -a
	}
	return a
}

// enqueue assigns l true at the current decision level; false means l was
// already false (a root-level contradiction when called at level 0).
func (s *dpllState) enqueue(l Lit, from *dclause) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	v := l.Var()
	if l.Negated() {
		s.assign[v] = -1
	} else {
		s.assign[v] = 1
	}
	s.phase[v] = !l.Negated()
	s.level[v] = int32(len(s.lims))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// attach registers the first two literals of a clause as its watches. For
// learnt clauses the caller guarantees lits[0] is the asserting literal and
// lits[1] carries the backjump level, preserving the watch invariant.
func (s *dpllState) attach(c *dclause) {
	s.watches[c.lits[0]] = append(s.watches[c.lits[0]], c)
	s.watches[c.lits[1]] = append(s.watches[c.lits[1]], c)
}

// propagate drains the assignment queue, returning a conflicting clause or
// nil. Clauses are visited through the watch list of the literal that just
// became false.
func (s *dpllState) propagate() *dclause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falsified := p.Not()
		ws := s.watches[falsified]
		j := 0
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			s.res.Propagations++
			if c.lits[0] == falsified {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == 1 {
				ws[j] = c
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != -1 {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1]] = append(s.watches[c.lits[1]], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflicting under the current assignment.
			ws[j] = c
			j++
			if s.value(c.lits[0]) == -1 {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[falsified] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.enqueue(c.lits[0], c)
		}
		s.watches[falsified] = ws[:j]
	}
	return nil
}

// analyze derives the first-UIP learnt clause from a conflict. The
// asserting literal lands in slot 0 and a literal of the backjump level in
// slot 1 (the watch invariant attach relies on); the backjump level is
// returned.
func (s *dpllState) analyze(confl *dclause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	cur := int32(len(s.lims))
	counter := 0
	idx := len(s.trail) - 1
	var p Lit = -1
	for {
		start := 0
		if p >= 0 {
			start = 1 // lits[0] of a reason clause is p itself
		}
		for _, q := range confl.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpActivity(v)
			if s.level[v] == cur {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Not()
	back := 0
	for i := 1; i < len(learnt); i++ {
		if int(s.level[learnt[i].Var()]) > back {
			back = int(s.level[learnt[i].Var()])
		}
	}
	// Move a backjump-level literal into the second watch slot.
	for i := 1; i < len(learnt); i++ {
		if int(s.level[learnt[i].Var()]) == back {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	for _, q := range learnt {
		s.seen[q.Var()] = false
	}
	return learnt, back
}

func (s *dpllState) cancelUntil(level int) {
	if len(s.lims) <= level {
		return
	}
	bound := s.lims[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = 0
		s.reason[v] = nil
	}
	s.trail = s.trail[:bound]
	s.lims = s.lims[:level]
	s.qhead = bound
}

// pickBranchVar returns the unassigned variable of highest activity
// (lowest index on ties), or -1 when all variables are assigned. The
// linear scan is deliberate: the encoder's formulas stay small enough
// that a heap would not pay for itself, and the scan order is trivially
// deterministic.
func (s *dpllState) pickBranchVar() int {
	best := -1
	bestAct := -1.0
	for v := 0; v < s.nVars; v++ {
		if s.assign[v] == 0 && s.act[v] > bestAct {
			best, bestAct = v, s.act[v]
		}
	}
	return best
}

func (s *dpllState) bumpActivity(v int) {
	s.act[v] += s.actInc
	if s.act[v] > 1e100 {
		for i := range s.act {
			s.act[i] *= 1e-100
		}
		s.actInc *= 1e-100
	}
}

func (s *dpllState) decayActivity() {
	s.actInc /= 0.95
}
