package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ingest"
	"repro/internal/traversal"
)

// TestPickCandidateMatchesKeyPick drives a loop through random rejects,
// accepts, releases (Loop.Release), takes of index rules the hierarchy does
// not hold, refits and ingests, starting untrained so that every score is
// the 0.5 prior and candidates tie on benefit and new coverage. At every
// view the position walk (PickCandidate, reading the memo and the queried
// mask by position) must equal the uncached key-map PickBest over the
// hierarchy's keys, with and without the average-benefit floor, and the
// mask must mark exactly the queried nodes.
func TestPickCandidateMatchesKeyPick(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { pickSequence(t, seed) })
	}
}

func pickSequence(t *testing.T, seed int64) {
	e, err := New(testCorpus(t, 0.03), fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := e.NewLoop(seed, []string{"best way to get to"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var taken, outside []string
	ties := 0
	check := func(step int, st *traversal.State) {
		mask := st.QueriedPos.For(st.Hierarchy)
		if mask == nil {
			t.Fatalf("step %d: the view carries no queried mask for its hierarchy", step)
		}
		for pos, n := range st.Hierarchy.Nodes() {
			if mask[pos] != st.Queried[n.Key] {
				t.Fatalf("step %d: mask marks %q %v, Queried says %v", step, n.Key, mask[pos], st.Queried[n.Key])
			}
		}
		uncached := *st
		uncached.Memo, uncached.QueriedPos = nil, nil
		for _, minAvg := range []float64{0, traversal.MinAvgBenefit} {
			got, gotOK := traversal.PickCandidate(st, minAvg)
			want, wantOK := traversal.PickBest(&uncached, st.Hierarchy.NonRootKeys(), minAvg)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d minAvg %v: position walk %q, key-map pick %q", step, minAvg, got, want)
			}
		}
		if key, ok := traversal.PickCandidate(st, 0); ok {
			b, n := st.BenefitNewOf(key)
			for _, other := range st.Hierarchy.NonRootKeys() {
				if other == key || st.Queried[other] {
					continue
				}
				if ob, on := st.BenefitNewOf(other); ob == b && on == n {
					ties++
					break
				}
			}
		}
	}
	// take views the loop, checks it and takes its pick.
	take := func(step int) (sug Suggestion, cov []int, ok bool) {
		l.View(func(st *traversal.State) {
			check(step, st)
			var key string
			if key, ok = traversal.PickCandidate(st, 0); ok {
				sug, cov, _ = l.Take(st, key, rand.New(rand.NewSource(1)))
			}
		})
		return sug, cov, ok
	}
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(20); {
		case op < 7: // reject
			if sug, cov, ok := take(step); ok {
				l.Verdict(step, sug, cov, false)
				taken = append(taken, sug.Key)
			}
		case op < 9: // accept and refit
			if sug, cov, ok := take(step); ok {
				l.Verdict(step, sug, cov, true)
				if err := l.Refit(rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
			}
		case op < 12: // release a taken rule, one the hierarchy may not hold
			pool := append(append([]string(nil), taken...), outside...)
			if len(pool) > 0 {
				l.Release(pool[rng.Intn(len(pool))])
			}
		case op < 15: // take a rule of the index the hierarchy does not hold
			l.View(func(st *traversal.State) {
				keys := st.Index.Keys()
				for i := 0; i < 50; i++ {
					key := keys[rng.Intn(len(keys))]
					if st.Hierarchy.Node(key) == nil && !st.Queried[key] && st.Index.Node(key) != nil {
						l.Take(st, key, rand.New(rand.NewSource(1)))
						outside = append(outside, key)
						return
					}
				}
			})
		case op < 17: // a refit that leaves P alone
			if err := l.Refit(false); err != nil {
				t.Fatal(err)
			}
		default: // ingest copies of existing sentences
			var batch []ingest.Sentence
			for i := 0; i < 3; i++ {
				s := e.Corpus().Sentence(rng.Intn(e.Corpus().Len()))
				batch = append(batch, ingest.Sentence{Text: s.Text, Label: rng.Intn(2)})
			}
			if _, _, err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
		l.View(func(st *traversal.State) { check(step, st) })
	}
	if ties == 0 {
		t.Error("no view had a tie on benefit and new coverage: the key tie-break went untested")
	}
	if len(outside) == 0 {
		t.Error("no queried key outside the hierarchy was tested")
	}
}
