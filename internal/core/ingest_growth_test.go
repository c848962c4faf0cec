package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/tokensregex"
)

// TestGrowthUnderConcurrentAnnotation is the scale acceptance bar: a corpus
// boots at ~1K sentences and grows past 100K by live ingestion while
// annotator sessions keep stepping, with no engine rebuild (the index
// object stays the same, only its version moves) and no acknowledged answer
// lost. Run with -race this is also the locking proof for the whole
// ingest-vs-read surface.
func TestGrowthUnderConcurrentAnnotation(t *testing.T) {
	if testing.Short() {
		t.Skip("grows a 100K-sentence corpus; skipped in -short")
	}
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	boot := c.Len()
	if boot < 500 || boot > 2000 {
		t.Fatalf("boot corpus has %d sentences, want ~1K", boot)
	}
	eng, err := New(c, Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     3,
		MaxRuleDepth:    6,
		NumCandidates:   200,
		MinRuleCoverage: 2,
		Budget:          1 << 20,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 4, LearningRate: 0.3, Seed: 1},
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ixBefore := eng.Index()

	const target = 100_000
	stop := make(chan struct{})
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := eng.NewSession(SessionOptions{
					SeedRules: []string{"best way to get to"},
					Budget:    8,
					Seed:      int64(w*1000 + round + 1),
				})
				if err != nil {
					t.Errorf("worker %d: NewSession: %v", w, err)
					return
				}
				for {
					sug, ok := s.Next()
					if !ok {
						break
					}
					if _, err := s.Answer(sug.Key, answered.Add(1)%3 == 0); err != nil {
						t.Errorf("worker %d: Answer: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	batchNum := 0
	for eng.CorpusLen() < target {
		batch := make([]ingest.Sentence, 0, 5000)
		for i := 0; i < 5000; i++ {
			if i%20 == 0 {
				batch = append(batch, ingest.Sentence{
					Text:  fmt.Sprintf("best way to get to stop %d of line %d", i, batchNum),
					Label: 1,
				})
			} else {
				batch = append(batch, ingest.Sentence{
					Text:  fmt.Sprintf("the shop at corner %d closed early on day %d", i, batchNum),
					Label: 0,
				})
			}
		}
		from, to, err := eng.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if to-from != 5000 {
			t.Fatalf("batch %d acknowledged [%d,%d), want 5000 sentences", batchNum, from, to)
		}
		batchNum++
	}
	close(stop)
	wg.Wait()

	if got := eng.CorpusLen(); got < target {
		t.Fatalf("corpus is %d sentences, want >= %d", got, target)
	}
	if eng.Index() != ixBefore {
		t.Fatal("index object was replaced: growth must be incremental, not a rebuild")
	}
	if answered.Load() == 0 {
		t.Fatal("no annotation traffic ran during growth")
	}
	// A session created after all growth sees the full corpus: its seed
	// rule's coverage spans ingested sentences.
	s, err := eng.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if len(rep.Positives) < batchNum*250 {
		t.Errorf("post-growth session found %d positives, want >= %d from ingested sentences",
			len(rep.Positives), batchNum*250)
	}
}

// TestCoverageBitsSurviveIngest pins that published coverage is immutable
// at the engine surface, under both kernels: the sets a labeling job holds
// from CoverageBits (a sketched rule and a materialized seed rule) and one
// read straight from the index keep their ids across an Ingest of sentences
// they match, while the sets published after it hold the new ids.
func TestCoverageBitsSurviveIngest(t *testing.T) {
	for _, kernel := range []string{index.KernelAdaptive, index.KernelDense} {
		t.Run(kernel, func(t *testing.T) {
			cfg := fastConfig("hybrid")
			cfg.Kernel = kernel
			eng, err := New(testCorpus(t, 0.05), cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed := "best way to get to"
			if _, _, err := eng.MaterializeRule(seed); err != nil {
				t.Fatal(err)
			}
			specs := []string{"best way", seed}
			held := make([]bitset.Cover, len(specs))
			before := make([][]int, len(specs))
			for i, spec := range specs {
				var key string
				key, held[i], err = eng.CoverageBits(spec)
				if err != nil {
					t.Fatal(err)
				}
				eng.WithIndexRead(func(ix *index.Index) {
					if ix.Node(key) == nil {
						t.Errorf("%q is not in the index", spec)
					}
				})
				before[i] = held[i].AppendTo(nil)
			}
			var root bitset.Cover
			eng.WithIndexRead(func(ix *index.Index) { root = ix.Root().Bits() })
			rootBefore := root.AppendTo(nil)

			from, to, err := eng.Ingest([]ingest.Sentence{
				{Text: "what is the best way to get to the pier", Label: 1},
				{Text: "the best way to get to the museum is by bus", Label: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			added := []int{from, from + 1}
			if to != from+2 {
				t.Fatalf("ingest assigned [%d, %d)", from, to)
			}
			for i, spec := range specs {
				if got := held[i].AppendTo(nil); !slices.Equal(got, before[i]) {
					t.Errorf("%q: held set changed across ingest", spec)
				}
				_, now, err := eng.CoverageBits(spec)
				if err != nil {
					t.Fatal(err)
				}
				if want := append(slices.Clone(before[i]), added...); !slices.Equal(now.AppendTo(nil), want) {
					t.Errorf("%q: published %d ids after ingest, want %d", spec, now.Count(), len(want))
				}
			}
			if !slices.Equal(root.AppendTo(nil), rootBefore) {
				t.Error("held root set changed across ingest")
			}
		})
	}
}
