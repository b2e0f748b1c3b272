package prime

// Aliases that let the external tests, which may import the packages that
// build Table-1 instances, reach the pivot, its reference oracles and the
// package's seed generators.
var (
	BKPivot       = bkPivot
	RefPivot      = refPivot
	RefCliques    = refCliques
	ForceParallel = forceParallel
	KernelSeeds   = kernelSeeds
	RandomSeeds   = randomSeeds
)
