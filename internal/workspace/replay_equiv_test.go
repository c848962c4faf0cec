package workspace

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/ingest"
	"repro/internal/journal"
	"repro/internal/traversal"
)

// TestReplayedPendingSuggestionMatchesLive replays a journal onto a fresh
// manager and requires every outstanding assignment to equal the live one,
// bit for bit: key, rule, coverage, new coverage, benefit, average benefit,
// sample ids, question and budget left. Replay assigns the journaled key
// without ranking, resolving it through the replica loop's hierarchy and
// memo when they are fresh and through the index otherwise, so each case
// also runs with the replica made to rank once before a chosen event:
//
//   - a suggest right after an accept: the replica holds no hierarchy;
//   - a suggest right after an ingest: the replica ranked before the
//     ingest, so its hierarchy is stale;
//   - a suggest after a reject: the replica ranked before the reject, so
//     its hierarchy and memo are fresh and warm.
//
// Replay itself must never regenerate a hierarchy.
func TestReplayedPendingSuggestionMatchesLive(t *testing.T) {
	cases := []struct {
		name string
		// live drives the workspace, leaving alice with the suggestion
		// under test outstanding.
		live func(t *testing.T, m *Manager, id string)
		// rankBefore is the type of the last event before which the
		// replica ranks once ("" for never).
		rankBefore string
	}{
		{"after accept", func(t *testing.T, m *Manager, id string) {
			answer(t, m, id, "bob", false)
			answer(t, m, id, "alice", true)
			pending(t, m, id, "alice")
			pending(t, m, id, "bob")
		}, ""},
		{"after ingest", func(t *testing.T, m *Manager, id string) {
			answer(t, m, id, "alice", false)
			// Ingest copies of what the next pick covers, so the pending
			// rule's coverage grows past the replica's stale hierarchy.
			ws, _ := m.Get(id)
			var next string
			ws.loop.View(func(st *traversal.State) { next, _ = traversal.PickCandidate(st, 0) })
			eng, _ := m.Engine("directions")
			var batch []ingest.Sentence
			for _, sid := range eng.Index().Bits(next).AppendTo(nil) {
				batch = append(batch, ingest.Sentence{Text: eng.Corpus().Sentence(sid).Text})
			}
			from, _, err := m.Ingest("directions", batch)
			if err != nil {
				t.Fatal(err)
			}
			sug := pending(t, m, id, "alice")
			if !slices.ContainsFunc(ws.annotators["alice"].pendingCov, func(sid int) bool { return sid >= from }) {
				t.Fatalf("pending rule %q covers no ingested sentence: the stale case tests nothing", sug.Key)
			}
		}, evIngest},
		{"after reject", func(t *testing.T, m *Manager, id string) {
			answer(t, m, id, "alice", false)
			answer(t, m, id, "alice", false)
			pending(t, m, id, "alice")
		}, evAnswer},
	}
	for _, tc := range cases {
		for _, rank := range []bool{false, true} {
			if rank && tc.rankBefore == "" {
				continue
			}
			t.Run(fmt.Sprintf("%s/ranked=%v", tc.name, rank), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "journal.jsonl")
				live := newTestManager(t, path, ManagerConfig{})
				ws, err := live.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 12})
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"alice", "bob"} {
					if err := live.Attach(ws.ID(), name); err != nil {
						t.Fatal(err)
					}
				}
				tc.live(t, live, ws.ID())
				events, err := journal.ReadAll(path)
				if err != nil {
					t.Fatal(err)
				}
				rankAt := -1
				for i, ev := range events {
					if rank && ev.Type == tc.rankBefore {
						rankAt = i
					}
				}

				replica := newTestManager(t, "", ManagerConfig{})
				r := replica.NewReplayer()
				ranks := 0
				for i, ev := range events {
					if i == rankAt {
						rws, _ := replica.Peek(ws.ID())
						rws.loop.View(func(st *traversal.State) { traversal.PickCandidate(st, 0) })
						ranks++
					}
					r.Apply(ev)
				}
				r.Close()
				if stats := r.Stats(); len(stats.Skipped) != 0 {
					t.Fatalf("replay skipped %v", stats.Skipped)
				}
				rws, ok := replica.Peek(ws.ID())
				if !ok {
					t.Fatal("replica lost the workspace")
				}
				outstanding := 0
				for _, an := range ws.Report().Annotators {
					if an.PendingKey == "" {
						continue
					}
					want := pending(t, live, ws.ID(), an.Name)
					got, gotOK, err := replica.Suggest(ws.ID(), an.Name)
					if err != nil || !gotOK {
						t.Fatalf("%s: replica suggest ok=%v err=%v", an.Name, gotOK, err)
					}
					sameSuggestion(t, an.Name, got, want)
					outstanding++
				}
				if outstanding == 0 {
					t.Fatal("no outstanding assignment to compare")
				}
				if got := rws.HierarchyGenerations(); got != ranks {
					t.Errorf("replica regenerated %d hierarchies for %d rankings: replay regenerated", got, ranks)
				}
			})
		}
	}
}

// answer gives the annotator a suggestion and answers it.
func answer(t *testing.T, m *Manager, id, name string, accept bool) {
	t.Helper()
	sug := pending(t, m, id, name)
	if _, err := m.Answer(id, name, sug.Key, accept); err != nil {
		t.Fatal(err)
	}
}

// pending returns the annotator's suggestion, assigning one if needed.
func pending(t *testing.T, m *Manager, id, name string) Suggestion {
	t.Helper()
	sug, ok, err := m.Suggest(id, name)
	if err != nil || !ok {
		t.Fatalf("suggest for %s: ok=%v err=%v", name, ok, err)
	}
	return sug
}

// sameSuggestion fails unless got equals want in every field, floats bit
// for bit.
func sameSuggestion(t *testing.T, name string, got, want Suggestion) {
	t.Helper()
	if got.Key != want.Key || got.Rule != want.Rule || got.Coverage != want.Coverage ||
		got.NewCoverage != want.NewCoverage ||
		math.Float64bits(got.Benefit) != math.Float64bits(want.Benefit) ||
		math.Float64bits(got.AvgBenefit) != math.Float64bits(want.AvgBenefit) ||
		!slices.Equal(got.SampleIDs, want.SampleIDs) ||
		got.Question != want.Question || got.BudgetLeft != want.BudgetLeft {
		t.Fatalf("%s: replayed suggestion %+v, live %+v", name, got, want)
	}
}
