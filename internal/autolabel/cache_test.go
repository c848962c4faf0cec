package autolabel

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/ingest"
	"repro/internal/tokensregex"
)

// growthConfig keeps ingest indistinguishable from a boot over the grown
// corpus for labeling: with the boot-time prune off (MinRuleCoverage 1) a
// rule's published coverage is the same however its sentences arrived.
func growthConfig() core.Config {
	return core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    6,
		NumCandidates:   400,
		MinRuleCoverage: 1,
		Budget:          30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		Seed:            1,
	}
}

// splitDirections returns the directions corpus cut at 60%: an engine booted
// on the prefix, and the remaining sentences in wire form.
func splitDirections(t *testing.T) (*core.Engine, []ingest.Sentence) {
	t.Helper()
	full, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Len() * 60 / 100
	prefix := corpus.New(full.Name, full.Task)
	for _, s := range full.Sentences[:cut] {
		prefix.Add(s.Text, s.Gold)
	}
	eng, err := core.New(prefix, growthConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rest []ingest.Sentence
	for _, s := range full.Sentences[cut:] {
		rest = append(rest, ingest.Sentence{Text: s.Text, Label: int(s.Gold)})
	}
	return eng, rest
}

func growthSpecs() []Spec {
	gen := testSpec()
	gen.Rules = []string{"best way to get to", "how do i get", "shuttle", "station"}
	gen.NegativeRules = []string{"taxi"}
	maj := gen
	maj.Aggregator = AggregatorMajority
	maj.IncludeProb = false
	return []Spec{gen, maj}
}

// TestJobAfterIngestMatchesRebuild labels a corpus that grew by ingest
// after jobs had already cached its record heads: each job must label every
// sentence of its view, the ingested ones included, and write the bytes a
// job on a fresh engine booted with the grown corpus writes.
func TestJobAfterIngestMatchesRebuild(t *testing.T) {
	eng, rest := splitDirections(t)
	specs := growthSpecs()
	for _, sp := range specs {
		runOnce(t, eng, sp) // caches the boot corpus's heads
	}
	half := len(rest) / 2
	for _, batch := range [][]ingest.Sentence{rest[:half], rest[half:]} {
		if _, _, err := eng.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		grown := corpus.New("grown", "rebuild")
		for _, s := range eng.CorpusView().Sentences {
			grown.Add(s.Text, s.Gold)
		}
		fresh, err := core.New(grown, growthConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			got, gotRes := runOnce(t, eng, sp)
			want, wantRes := runOnce(t, fresh, sp)
			if gotRes.Sentences != grown.Len() {
				t.Errorf("%s: labeled %d sentences of %d", sp.Aggregator, gotRes.Sentences, grown.Len())
			}
			if gotRes != wantRes || !bytes.Equal(got, want) {
				t.Errorf("%s: job after ingest wrote %d bytes (%+v), fresh engine %d (%+v)",
					sp.Aggregator, len(got), gotRes, len(want), wantRes)
			}
		}
	}
}

// TestConcurrentJobsDuringIngest runs jobs back to back on two goroutines,
// at least three each, while a third ingests the rest of the corpus. Every output must
// hold exactly the records of its own view: one line per sentence, in id
// order, each the record head of that sentence — never a head beyond the
// view. Under -race it also proves the shared head arena is read safely.
func TestConcurrentJobsDuringIngest(t *testing.T) {
	eng, rest := splitDirections(t)
	specs := growthSpecs()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := specs[g]
			for runs := 0; ; runs++ {
				select {
				case <-stop:
					if runs >= 3 {
						return
					}
				default:
				}
				var buf bytes.Buffer
				res, err := Run(context.Background(), eng, sp, &buf, nil)
				if err != nil {
					t.Error(err)
					return
				}
				view := eng.CorpusView()
				lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
				lines = lines[:len(lines)-1] // after the final newline
				if len(lines) != res.Sentences || res.Sentences > view.Len() {
					t.Errorf("output has %d records for a %d-sentence job", len(lines), res.Sentences)
					return
				}
				for i, line := range lines {
					head := corpus.AppendRecordHead(nil, i, view.Sentences[i].Text)
					if !bytes.HasPrefix(line, head) {
						t.Errorf("record %d is %q, want head %q", i, line, head)
						return
					}
				}
			}
		}()
	}
	for len(rest) > 0 {
		k := min(len(rest), 40)
		if _, _, err := eng.Ingest(rest[:k]); err != nil {
			t.Error(err)
			break
		}
		rest = rest[k:]
	}
	close(stop)
	wg.Wait()
}

// TestTailMemo holds the memoized tails to the encoder across a run of
// repeated and distinct probabilities that overflows the memo, and checks
// that a non-finite probability fails every time it is asked for, memo or
// not.
func TestTailMemo(t *testing.T) {
	for _, includeProb := range []bool{true, false} {
		tm := tailMemo{includeProb: includeProb, byKey: make(map[uint64][]byte)}
		for i := range 3 * tailMemoCap {
			p := 0.25
			if i%3 != 0 {
				p = float64(i) / float64(3*tailMemoCap)
			}
			label := 0
			if p > 0.5 {
				label = 1
			}
			var prob *float64
			if includeProb {
				prob = &p
			}
			want, _ := corpus.AppendRecordTail(nil, label, prob)
			got, err := tm.tail(label, p)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("includeProb %v, p %v: tail %q, %v; want %q", includeProb, p, got, err, want)
			}
		}
		if len(tm.byKey) > tailMemoCap {
			t.Errorf("memo grew to %d tails, cap %d", len(tm.byKey), tailMemoCap)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.NaN()} {
			_, err := tm.tail(0, bad)
			if (err != nil) != includeProb {
				t.Errorf("includeProb %v, p %v: error %v", includeProb, bad, err)
			}
		}
	}
}
