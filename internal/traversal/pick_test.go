package traversal

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grammar"
	"repro/internal/hierarchy"
)

// TestPickCandidateMatchesKeyMapPick holds the position walk to the
// uncached key-map PickBest over the hierarchy's keys and to the map-scan
// argmax referencePick. The hierarchy's positions run against key order,
// and half the trials score every sentence alike, so candidates tie on
// benefit and new coverage and only the key tie-break decides. Queried
// holds random hierarchy keys, index keys the hierarchy does not hold, and
// keys marked and then released; the walk reads Queried through a Marks
// mask, through a mask built for another hierarchy (ignored), and with no
// mask.
func TestPickCandidateMatchesKeyMapPick(t *testing.T) {
	_, base := buildState(t, 0, 2)
	gen := hierarchy.Generate(base.Index, base.Positives, hierarchy.Config{NumCandidates: 200, MaxRuleDepth: 4, MinCoverage: 1})
	keys := slices.Clone(gen.NonRootKeys())
	slices.Sort(keys)
	slices.Reverse(keys)
	rev := hierarchy.Build(base.Index, keys, base.Positives, hierarchy.Config{})
	indexKeys := base.Index.Keys()
	rng := rand.New(rand.NewSource(3))
	ties := 0
	for trial := 0; trial < 300; trial++ {
		st := *base
		st.Hierarchy = rev
		st.Scores = slices.Clone(base.Scores)
		for id := range st.Scores {
			if trial%2 == 0 {
				st.Scores[id] = 0.5
			} else {
				st.Scores[id] = float64(rng.Intn(4)) / 4
			}
		}
		st.Queried = map[string]bool{}
		for i := rng.Intn(8); i > 0; i-- {
			st.Queried[indexKeys[rng.Intn(len(indexKeys))]] = true
		}
		var marks Marks
		marks.Reset(rev, st.Queried)
		for i := rng.Intn(6); i > 0; i-- { // mark, then release some
			key := indexKeys[rng.Intn(len(indexKeys))]
			st.Queried[key] = true
			marks.Mark(key, true)
			if rng.Intn(2) == 0 {
				delete(st.Queried, key)
				marks.Mark(key, false)
			}
		}
		var stale Marks
		stale.Reset(gen, nil)
		uncached := st
		for _, mask := range []*Marks{&marks, &stale, nil} {
			st.QueriedPos = mask
			for _, minAvg := range []float64{0, 0.3, MinAvgBenefit} {
				got, gotOK := PickCandidate(&st, minAvg)
				want, wantOK := PickBest(&uncached, rev.NonRootKeys(), minAvg)
				if ref := referencePick(&uncached, rev.NonRootKeys(), minAvg); got != want || gotOK != wantOK || got != ref {
					t.Fatalf("trial %d minAvg %v: position walk %q, key-map pick %q, reference %q", trial, minAvg, got, want, ref)
				}
			}
		}
		if key, ok := PickCandidate(&st, 0); ok {
			b, n := st.BenefitNewOf(key)
			for _, other := range rev.NonRootKeys() {
				ob, on := st.BenefitNewOf(other)
				if other != key && !st.Queried[other] && other != grammar.RootKey && ob == b && on == n {
					ties++
					break
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no trial tied: the key tie-break went untested")
	}
}
