package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ingest"
	"repro/internal/traversal"
)

// TestLoopBenefitMemoMatchesKernel drives a loop through random sequences
// of rejects, accepts, releases, refits that leave P unchanged, ingests,
// failed fits and snapshot restores. At every view the memo-backed pick must
// equal a fresh, uncached PickBest, every candidate's benefit must equal the
// kernel's bit for bit, and Take must report the kernel's benefit and new
// coverage for the key it takes.
func TestLoopBenefitMemoMatchesKernel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { memoSequence(t, seed) })
	}
}

func memoSequence(t *testing.T, seed int64) {
	e, err := New(testCorpus(t, 0.03), fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	seedRules := []string{"best way to get to"}
	l, _, err := e.NewLoop(seed, seedRules, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Refit(false); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	// view checks the memo against the kernel and, when take is set, takes
	// the pick; it returns the taken suggestion and coverage.
	view := func(step int, take bool) (sug Suggestion, cov []int, ok bool) {
		l.View(func(st *traversal.State) {
			uncached := *st
			uncached.Memo = nil
			keys := st.Hierarchy.NonRootKeys()
			for _, minAvg := range []float64{traversal.MinAvgBenefit, 0} {
				got, gotOK := traversal.PickBest(st, keys, minAvg)
				want, wantOK := traversal.PickBest(&uncached, keys, minAvg)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d minAvg %v: memo pick %q, uncached %q", step, minAvg, got, want)
				}
			}
			for _, i := range rng.Perm(len(keys)) {
				gb, gn := st.BenefitNewOf(keys[i])
				wb, wn := uncached.BenefitNewOf(keys[i])
				if math.Float64bits(gb) != math.Float64bits(wb) || gn != wn {
					t.Fatalf("step %d %q: memo (%v, %d), kernel (%v, %d)", step, keys[i], gb, gn, wb, wn)
				}
			}
			key, found := traversal.PickBest(st, keys, 0)
			if !take || !found {
				return
			}
			wb, wn := uncached.BenefitNewOf(key)
			sug, cov, _ = l.Take(st, key, rand.New(rand.NewSource(1)))
			if math.Float64bits(sug.Benefit) != math.Float64bits(wb) || sug.NewCoverage != wn {
				t.Fatalf("step %d: Take(%q) = (%v, %d), kernel (%v, %d)", step, key, sug.Benefit, sug.NewCoverage, wb, wn)
			}
			ok = true
		})
		return sug, cov, ok
	}
	var failedFits, restores, ingests int
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(20); {
		case op < 9: // reject
			if sug, cov, ok := view(step, true); ok {
				l.Verdict(step, sug, cov, false)
			}
		case op < 12: // accept, refitting with or without a regeneration
			if sug, cov, ok := view(step, true); ok {
				l.Verdict(step, sug, cov, true)
				if err := l.Refit(rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
			}
		case op < 13: // an assignment returned unanswered
			if sug, _, ok := view(step, true); ok {
				l.Release(sug.Key)
			}
		case op < 15: // a refit that leaves P (and so the hierarchy) alone
			if err := l.Refit(false); err != nil && l.Count() > 0 {
				t.Fatal(err)
			}
		case op < 17: // ingest copies of existing sentences
			var batch []ingest.Sentence
			for i := 0; i < 3; i++ {
				s := e.Corpus().Sentence(rng.Intn(e.Corpus().Len()))
				batch = append(batch, ingest.Sentence{Text: s.Text, Label: rng.Intn(2)})
			}
			if _, _, err := e.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			ingests++
		default: // snapshot restore; half the time P is lost, so the next fit fails
			st := l.State()
			if rng.Intn(2) == 0 {
				st.Positives = nil
			}
			if l, err = e.RestoreLoop(seed, seedRules, st); err != nil {
				t.Fatal(err)
			}
			restores++
			view(step, false)
			if err := l.Refit(false); (err != nil) != (l.Count() == 0) {
				t.Fatalf("step %d: refit with |P| = %d returned %v", step, l.Count(), err)
			} else if err != nil {
				failedFits++
			}
		}
		view(step, false)
	}
	t.Logf("%d restores (%d failed fits), %d ingests", restores, failedFits, ingests)
}
