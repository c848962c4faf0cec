package traversal

// MinAvgBenefit is the per-instance benefit threshold of Algorithm 4: rules
// whose average benefit is at most 0.5 (the majority of their uncovered
// instances are expected to be negative) are skipped by UniversalSearch.
const MinAvgBenefit = 0.5

// UniversalSearch implements Algorithm 4: in every iteration it considers
// every heuristic in the hierarchy, skips those with average benefit <= 0.5,
// and proposes the one with the maximum total benefit, regardless of where it
// sits in the hierarchy.
type UniversalSearch struct {
	// Relax controls the fallback behaviour when no candidate passes the
	// average-benefit filter: if true (default via NewUniversalSearch), the
	// filter is dropped for that round rather than stalling the pipeline.
	Relax bool
}

// NewUniversalSearch returns a UniversalSearch with the default fallback.
func NewUniversalSearch() *UniversalSearch { return &UniversalSearch{Relax: true} }

// Name implements Traversal.
func (us *UniversalSearch) Name() string { return "universal" }

// Next implements Traversal.
func (us *UniversalSearch) Next(st *State) (string, bool) {
	if key, ok := PickCandidate(st, MinAvgBenefit); ok {
		return key, true
	}
	if us.Relax {
		return PickCandidate(st, 0)
	}
	return "", false
}

// Feedback implements Traversal. UniversalSearch is stateless between
// iterations: the hierarchy and classifier scores in the State carry all the
// information it needs.
func (us *UniversalSearch) Feedback(st *State, key string, accepted bool) {}

// Reseed implements Traversal (no-op).
func (us *UniversalSearch) Reseed(st *State, key string) {}
