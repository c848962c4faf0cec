package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/traversal"
)

// answerWithOracle resolves the session's pending suggestion through an
// oracle exactly as Session.Run does.
func answerWithOracle(t *testing.T, s *Session, o oracle.Oracle) (RuleRecord, bool) {
	t.Helper()
	sug, ok := s.Next()
	if !ok {
		return RuleRecord{}, false
	}
	accepted := o.Answer(oracle.Query{
		Heuristic: s.pending.heur,
		Coverage:  s.pending.cov,
		Samples:   sug.SampleIDs,
	})
	rec, err := s.Answer(sug.Key, accepted)
	if err != nil {
		t.Fatalf("Answer(%q): %v", sug.Key, err)
	}
	return rec, true
}

// driveSession plays a whole session against an oracle and returns the keys
// proposed, in order.
func driveSession(t *testing.T, s *Session, o oracle.Oracle) []string {
	t.Helper()
	var keys []string
	for {
		rec, ok := answerWithOracle(t, s, o)
		if !ok {
			break
		}
		keys = append(keys, rec.Key)
	}
	return keys
}

func TestSessionStepwiseAcceptReject(t *testing.T) {
	c := testCorpus(t, 0.06)
	e, err := New(c, fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Answer before Next is an error.
	if _, err := s.Answer("anything", true); err == nil {
		t.Error("Answer with no pending suggestion should error")
	}

	sug, ok := s.Next()
	if !ok {
		t.Fatal("no first suggestion")
	}
	if sug.Key == "" || sug.Rule == "" || sug.Coverage <= 0 || len(sug.SampleIDs) == 0 {
		t.Fatalf("incomplete suggestion: %+v", sug)
	}
	// Next is idempotent while unanswered.
	again, ok := s.Next()
	if !ok || again.Key != sug.Key {
		t.Errorf("repeated Next returned %q, want pending %q", again.Key, sug.Key)
	}
	// Answering a different key is rejected and keeps the suggestion pending.
	if _, err := s.Answer("not-the-key", true); err == nil {
		t.Error("mismatched answer key should error")
	}

	before := len(s.Positives())
	rec, err := s.Answer(sug.Key, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Accepted || rec.Question != 1 || rec.Key != sug.Key {
		t.Errorf("bad accept record: %+v", rec)
	}
	if got := len(s.Positives()); got < before {
		t.Errorf("positives shrank after accept: %d -> %d", before, got)
	}
	if rec.PositivesAfter != len(s.Positives()) {
		t.Errorf("PositivesAfter = %d, want %d", rec.PositivesAfter, len(s.Positives()))
	}

	// A rejected rule must not change P.
	sug2, ok := s.Next()
	if !ok {
		t.Fatal("no second suggestion")
	}
	before = len(s.Positives())
	rec2, err := s.Answer(sug2.Key, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Accepted || len(rec2.AddedIDs) != 0 || len(s.Positives()) != before {
		t.Errorf("reject changed the positive set: %+v", rec2)
	}

	rep := s.Report()
	if rep.Questions != 2 || len(rep.History) != 2 {
		t.Errorf("report questions = %d history = %d", rep.Questions, len(rep.History))
	}
	// The seed rule is recorded as accepted with question number 0.
	if len(rep.Accepted) == 0 || rep.Accepted[0].Question != 0 {
		t.Errorf("seed rule not recorded: %+v", rep.Accepted)
	}
	// The report is a snapshot: mutating it does not affect the session.
	rep.Positives[1<<20] = true
	if s.Positives()[1<<20] {
		t.Error("report snapshot shares the session's positive set")
	}
}

func TestSessionBudgetExhaustion(t *testing.T) {
	c := testCorpus(t, 0.05)
	e, err := New(c, fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4
	s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if s.Budget() != budget {
		t.Fatalf("Budget() = %d, want %d", s.Budget(), budget)
	}
	n := 0
	for {
		sug, ok := s.Next()
		if !ok {
			break
		}
		if _, err := s.Answer(sug.Key, n%2 == 0); err != nil {
			t.Fatal(err)
		}
		n++
		if n > budget {
			t.Fatalf("session exceeded its budget of %d", budget)
		}
	}
	if n != budget {
		t.Fatalf("session stopped after %d questions, want %d", n, budget)
	}
	if !s.Done() {
		t.Error("Done() = false after budget exhaustion")
	}
	if _, ok := s.Next(); ok {
		t.Error("Next returned a suggestion after budget exhaustion")
	}
	if s.Questions() != budget {
		t.Errorf("Questions() = %d, want %d", s.Questions(), budget)
	}
}

func TestSessionDeterministicReplay(t *testing.T) {
	c := testCorpus(t, 0.05)
	e, err := New(c, fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) ([]string, []int) {
		s, err := e.NewSession(SessionOptions{
			SeedRules: []string{"best way to get to"},
			Budget:    8,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := driveSession(t, s, oracle.NewGroundTruth(c))
		return keys, s.Report().PositiveIDs()
	}
	keys1, pos1 := run(42)
	keys2, pos2 := run(42)
	if !reflect.DeepEqual(keys1, keys2) {
		t.Errorf("same seed proposed different rule sequences:\n%v\n%v", keys1, keys2)
	}
	if !reflect.DeepEqual(pos1, pos2) {
		t.Errorf("same seed discovered different positive sets: %d vs %d ids", len(pos1), len(pos2))
	}
}

// TestSessionMatchesRun pins batch mode: a session driven by an oracle step
// by step must reproduce exactly what Session.Run produces on an identical
// engine.
func TestSessionMatchesRun(t *testing.T) {
	cfg := fastConfig("hybrid")
	cfg.Budget = 12

	cA := testCorpus(t, 0.05)
	eA, err := New(cA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repRun := runBatch(t, eA, SessionOptions{SeedRules: []string{"best way to get to"}}, oracle.NewGroundTruth(cA))

	cB := testCorpus(t, 0.05)
	eB, err := New(cB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eB.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}})
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, s, oracle.NewGroundTruth(cB))
	repSess := s.Report()

	if repRun.Questions != repSess.Questions {
		t.Errorf("questions: run=%d session=%d", repRun.Questions, repSess.Questions)
	}
	if !reflect.DeepEqual(repRun.AcceptedRuleStrings(), repSess.AcceptedRuleStrings()) {
		t.Errorf("accepted rules diverged:\nrun:     %v\nsession: %v",
			repRun.AcceptedRuleStrings(), repSess.AcceptedRuleStrings())
	}
	if !reflect.DeepEqual(repRun.PositiveIDs(), repSess.PositiveIDs()) {
		t.Errorf("positive sets diverged: run=%d session=%d ids", len(repRun.PositiveIDs()), len(repSess.PositiveIDs()))
	}
}

// TestConcurrentSessionsSharedEngine runs many sessions in parallel on one
// shared engine (plus concurrent stepping-only sessions); under -race this
// verifies the documented lock discipline.
func TestConcurrentSessionsSharedEngine(t *testing.T) {
	c := testCorpus(t, 0.05)
	cfg := fastConfig("hybrid")
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize both seed rules in the shared index up front: the index
	// grows monotonically when a session seeds a rule it does not contain
	// yet, so pre-materializing keeps every worker's candidate space
	// identical regardless of interleaving.
	for _, rule := range []string{"best way to get to", "shuttle to"} {
		if _, err := e.NewSession(SessionOptions{SeedRules: []string{rule}, Budget: 1}); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	type result struct {
		keys []string
		pos  []int
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the sessions share a seed (their results must agree); the
			// rest vary seed rules and random seeds to shake the lock paths.
			seedRule := "best way to get to"
			if w%4 == 3 {
				seedRule = "shuttle to"
			}
			s, err := e.NewSession(SessionOptions{
				SeedRules: []string{seedRule},
				Budget:    5,
				Seed:      int64(1 + w%2),
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			var keys []string
			o := oracle.NewGroundTruth(c)
			for {
				rec, ok := answerWithOracle(t, s, o)
				if !ok {
					break
				}
				keys = append(keys, rec.Key)
			}
			results[w] = result{keys: keys, pos: s.Report().PositiveIDs()}
		}(w)
	}
	// Concurrent readers that only step: each session's Next regenerates a
	// hierarchy and traverses it under the engine's read lock while the
	// workers above answer and retrain.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 5, Seed: int64(10 + w)})
			if err != nil {
				t.Errorf("reader %d: %v", w, err)
				return
			}
			for i := 0; i < 5; i++ {
				sug, ok := s.Next()
				if !ok {
					t.Errorf("reader %d: Next returned nothing", w)
					return
				}
				if _, err := s.Answer(sug.Key, false); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Sessions 0 and 4 ran the identical configuration concurrently; session
	// isolation demands identical outcomes.
	if !reflect.DeepEqual(results[0], results[4]) {
		t.Errorf("identically-seeded concurrent sessions diverged:\n%v\n%v", results[0], results[4])
	}
	for w, r := range results {
		if len(r.pos) == 0 {
			t.Errorf("worker %d discovered no positives", w)
		}
	}
}

// TestSessionOnWarmEngineKeepsIndexPublished pins that seeding a session or
// materializing a workspace rule the index already holds does not
// re-publish it: the version and the key cache's backing array survive.
func TestSessionOnWarmEngineKeepsIndexPublished(t *testing.T) {
	c := testCorpus(t, 0.04)
	e, err := New(c, fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	const seed = "best way to get to"
	if _, err := e.NewSession(SessionOptions{SeedRules: []string{seed}, Budget: 1}); err != nil {
		t.Fatal(err)
	}
	ix := e.Index()
	ver, keys := ix.Version(), ix.Keys()
	if _, err := e.NewSession(SessionOptions{SeedRules: []string{seed}, Budget: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.MaterializeRule(seed); err != nil {
		t.Fatal(err)
	}
	if got := ix.Version(); got != ver {
		t.Errorf("index version moved %d -> %d on a warm engine", ver, got)
	}
	if got := ix.Keys(); &got[0] != &keys[0] || len(got) != len(keys) {
		t.Error("warm session start rebuilt the index key cache")
	}
}

func TestSessionSeedPositiveIDsAndErrors(t *testing.T) {
	c := testCorpus(t, 0.04)
	e, err := New(c, fastConfig("local"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewSession(SessionOptions{}); err == nil {
		t.Error("empty seeds should error")
	}
	if _, err := e.NewSession(SessionOptions{SeedRules: []string{"@@@ ???"}}); err == nil {
		t.Error("unparseable seed rule should error")
	}
	pos := c.Positives()
	if len(pos) < 2 {
		t.Fatal("test corpus has too few positives")
	}
	s, err := e.NewSession(SessionOptions{SeedPositiveIDs: []int{pos[0], pos[1]}, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Positives()); got != 2 {
		t.Fatalf("seeded positives = %d, want 2", got)
	}
	keys := driveSession(t, s, oracle.NewGroundTruth(c))
	if len(keys) == 0 {
		t.Error("no questions asked from positive-ID seeds")
	}
}

// TestSessionCustomTraversal pins that a per-session
// SessionOptions.Traversal replaces the configured strategy.
func TestSessionCustomTraversal(t *testing.T) {
	c := testCorpus(t, 0.04)
	e, err := New(c, fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession(SessionOptions{
		SeedRules: []string{"shuttle to"},
		Traversal: maxCoverageTraversal{},
		Budget:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	s.loop.View(func(st *traversal.State) { want, _ = maxCoverageTraversal{}.Next(st) })
	sug, ok := s.Next()
	if !ok {
		t.Fatal("session with per-session traversal asked no questions")
	}
	if sug.Key != want {
		t.Errorf("first suggestion %q, want the max-coverage rule %q", sug.Key, want)
	}
}
