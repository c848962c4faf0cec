package workspace

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/journal"
	"repro/internal/tokensregex"
)

var (
	benchOnce   sync.Once
	benchEng    *core.Engine
	benchEngErr error
)

// benchEngine builds (once) an engine with darwind's default configuration
// (core.DefaultConfig with a TokensRegex grammar, 2,000 candidates, sketch
// depth 5, and darwind's classifier and embedding settings at seed 1) over
// the datagen directions corpus at half scale (~7.6K sentences).
func benchEngine(b *testing.B) *core.Engine {
	b.Helper()
	benchOnce.Do(func() {
		c, err := datagen.ByName("directions", 0.5, 1)
		if err != nil {
			benchEngErr = err
			return
		}
		cfg := core.DefaultConfig()
		cfg.Grammars = []grammar.Grammar{tokensregex.New()}
		cfg.Budget = 100
		cfg.NumCandidates = 2000
		cfg.SketchDepth = 5
		cfg.Seed = 1
		cfg.Classifier = classifier.Config{Epochs: 10, LearningRate: 0.3, L2: 1e-4, Seed: 1}
		cfg.Embedding = embedding.Config{Dim: 32, Window: 4, MinCount: 2, Seed: 1}
		benchEng, benchEngErr = core.New(c, cfg)
	})
	if benchEngErr != nil {
		b.Fatal(benchEngErr)
	}
	return benchEng
}

// BenchmarkWorkspaceSuggestRejects measures one workspace question (Suggest
// + a rejecting Answer) for a single annotator in workspaces of 32
// questions, the perfbench labeler's length. P never changes after the
// seed, so after the first suggestion every pick reuses the cached
// hierarchy and the loop's benefit memo. A fresh workspace is created,
// untimed, whenever one runs out of budget.
func BenchmarkWorkspaceSuggestRejects(b *testing.B) {
	eng := benchEngine(b)
	n := 0
	newWorkspace := func() *Workspace {
		n++
		ws, err := New(eng, fmt.Sprintf("bench%d", n), "directions",
			Options{SeedRules: []string{seedRule}, Budget: 32, Seed: 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := ws.Attach("a"); err != nil {
			b.Fatal(err)
		}
		return ws
	}
	ws := newWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; {
		sug, ok, err := ws.Suggest("a")
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			ws = newWorkspace()
			b.StartTimer()
			continue
		}
		if _, err := ws.Answer("a", sug.Key, false); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkFollowerApply measures what a replication follower's applier
// does per replayed event: it records, untimed, a journal of four
// 32-question workspaces on benchEngine (one annotator each, every 16th
// answer an accept), then replays the whole journal through a fresh
// manager's Replayer per iteration. Replayed suggests assign the journaled
// key without ranking, so the cost is the answers' retrains plus one key's
// coverage and benefit per suggest.
func BenchmarkFollowerApply(b *testing.B) {
	eng := benchEngine(b)
	engines := map[string]*core.Engine{"directions": eng}
	path := filepath.Join(b.TempDir(), "journal.jsonl")
	jw, _, err := journal.Open(path, journal.Options{SyncEvery: 1 << 20, SyncInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	live := NewManager(engines, jw, ManagerConfig{CompactEvery: -1})
	for w := 0; w < 4; w++ {
		ws, err := live.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 32, Seed: int64(w + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := live.Attach(ws.ID(), "a"); err != nil {
			b.Fatal(err)
		}
		for q := 0; ; q++ {
			sug, ok, err := live.Suggest(ws.ID(), "a")
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			if _, err := live.Answer(ws.ID(), "a", sug.Key, q%16 == 15); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := live.Close(); err != nil {
		b.Fatal(err)
	}
	events, err := journal.ReadAll(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewManager(engines, nil, ManagerConfig{}).NewReplayer()
		for _, ev := range events {
			r.Apply(ev)
		}
		r.Close()
		if stats := r.Stats(); len(stats.Skipped) != 0 || stats.Workspaces != 4 {
			b.Fatalf("replay recovered %d workspaces, skipped %v", stats.Workspaces, stats.Skipped)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
