package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/ingest"
)

// acceptNext steps s until it accepts a suggestion that grows P, rejecting
// the ones that would not. It reports false when the session ends first.
func acceptNext(t *testing.T, s *Session) bool {
	t.Helper()
	for {
		sug, ok := s.Next()
		if !ok {
			return false
		}
		accept := sug.NewCoverage > 0
		if _, err := s.Answer(sug.Key, accept); err != nil {
			t.Fatal(err)
		}
		if accept {
			return true
		}
	}
}

// assertFreshHierarchy fails unless the loop's cached hierarchy equals a
// fresh Generate over the live index and P: the same candidate order and
// the same edges on every node, the root included.
func assertFreshHierarchy(t *testing.T, l *Loop) {
	t.Helper()
	e := l.e
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	if l.hierStale(e.ix.Version()) {
		t.Fatalf("cached hierarchy is stale: built at |P|=%d version %d, now |P|=%d version %d",
			l.hierPos, l.hierIxVer, l.npos, e.ix.Version())
	}
	want := hierarchy.Generate(e.ix, l.positives, e.cfg.hierarchyConfig())
	got := l.hier
	if !slices.Equal(got.NonRootKeys(), want.NonRootKeys()) {
		t.Fatalf("candidate order differs from a fresh Generate:\n got %v\nwant %v", got.NonRootKeys(), want.NonRootKeys())
	}
	for _, key := range want.Keys() {
		g, w := got.Node(key), want.Node(key)
		if g == nil {
			t.Fatalf("node %q missing from the cached hierarchy", key)
		}
		if !slices.Equal(g.Parents, w.Parents) || !slices.Equal(g.Children, w.Children) {
			t.Fatalf("node %q edges differ: parents %v / %v, children %v / %v", key, g.Parents, w.Parents, g.Children, w.Children)
		}
	}
}

// TestAcceptPrebuildsHierarchy pins the overlap of Algorithm 1 lines 6 and
// 11-12: the answer that accepts a rule regenerates the hierarchy alongside
// the refit, so the following Next reuses it, and what it reuses equals a
// fresh generation for the grown P.
func TestAcceptPrebuildsHierarchy(t *testing.T) {
	e, err := New(testCorpus(t, 0.06), fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 40})
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for accepts < 3 {
		before := s.HierarchyGenerations()
		if !acceptNext(t, s) {
			break
		}
		accepts++
		gens := s.HierarchyGenerations()
		if gens <= before {
			t.Fatalf("accept %d: the answer did not regenerate the hierarchy (%d generations before the step, %d after)", accepts, before, gens)
		}
		assertFreshHierarchy(t, s.loop)
		if _, ok := s.Next(); !ok {
			break
		}
		if got := s.HierarchyGenerations(); got != gens {
			t.Fatalf("accept %d: Next regenerated the hierarchy Refit built (%d -> %d generations)", accepts, gens, got)
		}
	}
	if accepts < 2 {
		t.Fatalf("scenario not reached: %d accepts", accepts)
	}
}

// TestBudgetSpendingAcceptSkipsRegen pins that the accept which spends the
// session's budget leaves the hierarchy alone: no Next follows it, so a
// regeneration there would be wasted.
func TestBudgetSpendingAcceptSkipsRegen(t *testing.T) {
	newSession := func(budget int) *Session {
		e, err := New(testCorpus(t, 0.06), fastConfig("hybrid"))
		if err != nil {
			t.Fatal(err)
		}
		s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	probe := newSession(40)
	if !acceptNext(t, probe) {
		t.Fatal("scenario not reached: no accept within the budget")
	}
	// The same session, budgeted to end on that first accept.
	s := newSession(probe.Questions())
	gens := -1
	for {
		sug, ok := s.Next()
		if !ok {
			break
		}
		gens = s.HierarchyGenerations()
		if _, err := s.Answer(sug.Key, sug.NewCoverage > 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Questions() != probe.Questions() || len(s.report.Accepted) != len(probe.report.Accepted) {
		t.Fatalf("scenario not reached: %d questions, %d accepted; probe %d, %d",
			s.Questions(), len(s.report.Accepted), probe.Questions(), len(probe.report.Accepted))
	}
	if got := s.HierarchyGenerations(); got != gens {
		t.Fatalf("the budget-spending accept regenerated the hierarchy: %d -> %d generations", gens, got)
	}
}

// TestConcurrentAcceptsDuringIngest runs several sessions that accept every
// other suggestion while ingest keeps growing the shared index, so refits
// regenerate on their second goroutine against a moving index version. Run
// with -race it is the locking proof for the overlap; afterwards each
// session's next accept still leaves a hierarchy equal to a fresh one.
func TestConcurrentAcceptsDuringIngest(t *testing.T) {
	e, err := New(testCorpus(t, 0.05), fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	sessions := make([]*Session, workers)
	for w := range sessions {
		if sessions[w], err = e.NewSession(SessionOptions{
			SeedRules: []string{"best way to get to"},
			Budget:    1 << 20,
			Seed:      int64(w + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sug, ok := s.Next()
				if !ok {
					return // out of candidates: the session is over
				}
				if _, err := s.Answer(sug.Key, i%2 == 0); err != nil {
					t.Errorf("session %d: %v", w, err)
					return
				}
			}
		}()
	}
	for b := 0; b < 15; b++ {
		batch := make([]ingest.Sentence, 0, 100)
		for i := 0; i < 100; i++ {
			text := fmt.Sprintf("the shop at corner %d closed early on day %d", i, b)
			if i%10 == 0 {
				text = fmt.Sprintf("best way to get to stop %d of line %d", i, b)
			}
			batch = append(batch, ingest.Sentence{Text: text, Label: 0})
		}
		if _, _, err := e.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, s := range sessions {
		if s.Questions() == 0 {
			t.Fatal("a session answered nothing during ingest")
		}
		if acceptNext(t, s) {
			assertFreshHierarchy(t, s.loop)
		}
	}
}
