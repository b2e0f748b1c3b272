package core

// Backend selects the unate covering engine of the exact encoder. Binate
// covering — sets with distance-2 or non-face constraints, and the
// Section-4 table — has one engine, the CNF backend of internal/sat,
// whatever the Backend.
type Backend int

const (
	// BackendBranchBound is the hand-rolled unate branch-and-bound over
	// the covering matrix — the default.
	BackendBranchBound Backend = iota
	// BackendSAT compiles the covering problem to CNF (one selection
	// variable per candidate column, sequential-counter/commander
	// at-most-k cardinality) and solves it with the embedded DPLL solver
	// (internal/sat), recovering minimality by an outer search over the
	// cover cardinality. Results agree with BackendBranchBound on
	// feasibility, code length and optimality; the selected columns (and
	// therefore the concrete codes) may legitimately differ when several
	// minimum covers exist.
	BackendSAT
)

// String renders the backend's canonical flag name.
func (b Backend) String() string {
	if b == BackendSAT {
		return "sat"
	}
	return "bb"
}

// ParseBackend resolves a backend name: "bb" (alias "branchbound") or
// "sat". An empty name is the default backend.
func ParseBackend(name string) (Backend, bool) {
	switch name {
	case "", "bb", "branchbound":
		return BackendBranchBound, true
	case "sat":
		return BackendSAT, true
	}
	return BackendBranchBound, false
}
