package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/corpus"
	"repro/internal/oracle"
	"repro/internal/traversal"
)

var updatePins = flag.Bool("update-pins", false, "rewrite the testdata/pin transcripts from the current code")

// checkPin compares a transcript against testdata/pin/<name>.golden, or
// rewrites the file under -update-pins.
func checkPin(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "pin", name+".golden")
	if *updatePins {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-pins)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// scoresHash is an FNV-64a hash over the float bits of a score vector.
func scoresHash(scores []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range scores {
		u := math.Float64bits(s)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%d scores fnv64a=%016x", len(scores), h.Sum64())
}

// TestBitExactPinSessions pins a solo session under each traversal to the
// bit: every suggestion's key, coverage, new coverage, the float bits of its
// benefit and average benefit, its presentation samples, and finally the
// positive set and a hash of the score vector.
func TestBitExactPinSessions(t *testing.T) {
	c := testCorpus(t, 0.05)
	for _, trav := range []string{"hybrid", "local", "universal"} {
		t.Run(trav, func(t *testing.T) {
			// Named for the coverage kernel the index publishes: the adaptive
			// (compressed) set.
			t.Run("adaptive", func(t *testing.T) { pinSession(t, c, trav) })
		})
	}
}

// pinSession drives one session under the given traversal and checks its
// transcript.
func pinSession(t *testing.T, c *corpus.Corpus, trav string) {
	e, err := New(c, fastConfig(trav))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewGroundTruth(c)
	var b strings.Builder
	for {
		sug, ok := s.Next()
		if !ok {
			break
		}
		accept := o.Answer(oracle.Query{Heuristic: s.pending.heur, Coverage: s.pending.cov, Samples: sug.SampleIDs})
		fmt.Fprintf(&b, "%s cov=%d new=%d benefit=%016x avg=%016x samples=%v accept=%v\n",
			sug.Key, sug.Coverage, sug.NewCoverage,
			math.Float64bits(sug.Benefit), math.Float64bits(sug.AvgBenefit), sug.SampleIDs, accept)
		if _, err := s.Answer(sug.Key, accept); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&b, "positives %v\n", s.Report().PositiveIDs())
	fmt.Fprintf(&b, "%s\n", scoresHash(s.Scores()))
	checkPin(t, "session_"+trav, b.String())
}

// TestBitExactPinBaselines pins one batch Session.Run under each
// rule-selection baseline: the full question history, the final positive
// set and a hash of the session's score vector.
func TestBitExactPinBaselines(t *testing.T) {
	c := testCorpus(t, 0.05)
	for _, tc := range []struct {
		name string
		trav traversal.Traversal
	}{
		{"highP", baselines.NewHighP()},
		{"highC", baselines.NewHighC()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig("hybrid")
			cfg.Budget = 12
			e, err := New(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Traversal: tc.trav})
			if err != nil {
				t.Fatal(err)
			}
			rep := s.Run(oracle.NewGroundTruth(c), nil)
			var b strings.Builder
			for _, rec := range rep.History {
				fmt.Fprintf(&b, "q%d %s cov=%d accept=%v added=%v after=%d\n",
					rec.Question, rec.Key, rec.Coverage, rec.Accepted, rec.AddedIDs, rec.PositivesAfter)
			}
			fmt.Fprintf(&b, "positives %v\n", rep.PositiveIDs())
			fmt.Fprintf(&b, "%s\n", scoresHash(s.Scores()))
			checkPin(t, "baseline_"+tc.name, b.String())
		})
	}
}
