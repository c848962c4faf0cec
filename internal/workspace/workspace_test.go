package workspace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/journal"
	"repro/internal/tokensregex"
)

// newTestEngine builds a small deterministic engine over the synthetic
// directions corpus. Two calls with the same arguments produce equivalent
// engines — the property journal replay relies on across restarts.
func newTestEngine(t testing.TB) *core.Engine {
	t.Helper()
	return newKernelEngine(t, index.KernelAdaptive)
}

// newKernelEngine is newTestEngine over the given coverage kernel.
func newKernelEngine(t testing.TB, kernel string) *core.Engine {
	t.Helper()
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.Config{
		Grammars:           []grammar.Grammar{tokensregex.New()},
		SketchDepth:        4,
		MaxRuleDepth:       6,
		NumCandidates:      400,
		MinRuleCoverage:    2,
		Budget:             30,
		Traversal:          "hybrid",
		Tau:                5,
		Classifier:         classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		Embedding:          embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
		LazyScoring:        true,
		LazyScoreThreshold: 0.3,
		Kernel:             kernel,
		Seed:               1,
	}
	engine, err := core.New(c, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func newTestManager(t testing.TB, journalPath string, cfg ManagerConfig) *Manager {
	t.Helper()
	eng := newTestEngine(t)
	var jw *journal.Writer
	if journalPath != "" {
		var err error
		jw, _, err = journal.Open(journalPath, journal.Options{SyncEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { jw.Close() })
	}
	return NewManager(map[string]*core.Engine{"directions": eng}, jw, cfg)
}

const seedRule = "best way to get to"

// secondSeedRule covers a superset of seedRule's sentences, so seeding with
// both exercises the order-dependent AddedIDs of the second record.
const secondSeedRule = "way to get to"

func TestWorkspaceTwoAnnotatorsDisjointSuggestions(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{})
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob"} {
		if err := m.Attach(ws.ID(), name); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]string{}
	accepts := 0
	for step := 0; ; step++ {
		sa, okA, err := m.Suggest(ws.ID(), "alice")
		if err != nil {
			t.Fatal(err)
		}
		sb, okB, err := m.Suggest(ws.ID(), "bob")
		if err != nil {
			t.Fatal(err)
		}
		if !okA || !okB {
			break
		}
		// The core guarantee: concurrent outstanding assignments are
		// disjoint.
		if sa.Key == sb.Key {
			t.Fatalf("step %d: both annotators were assigned %q", step, sa.Key)
		}
		for name, sug := range map[string]Suggestion{"alice": sa, "bob": sb} {
			if owner, dup := seen[sug.Key]; dup {
				t.Fatalf("rule %q suggested to %s was already suggested to %s", sug.Key, name, owner)
			}
			seen[sug.Key] = name
			accept := step%3 == 0
			if accept {
				accepts++
			}
			if _, err := m.Answer(ws.ID(), name, sug.Key, accept); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep := ws.Report()
	if rep.Questions == 0 {
		t.Fatal("no questions were answered")
	}
	if rep.Questions > rep.Budget {
		t.Fatalf("questions %d exceeded the shared budget %d", rep.Questions, rep.Budget)
	}
	if len(rep.History) != rep.Questions {
		t.Fatalf("history has %d records for %d questions", len(rep.History), rep.Questions)
	}
	// The shared hierarchy regenerates at most once per positive-set change
	// (the initial generation plus one per accept that grew P).
	growths := 0
	prev := 0
	for _, rec := range rep.History {
		if rec.PositivesAfter != prev && prev != 0 {
			growths++
		}
		prev = rec.PositivesAfter
	}
	if got := ws.HierarchyGenerations(); got > growths+1 {
		t.Errorf("hierarchy regenerated %d times for %d positive-set changes", got, growths)
	}
	if accepts > 0 && len(rep.Accepted) != accepts+1 { // +1 seed rule
		t.Errorf("accepted %d rules, report has %d", accepts+1, len(rep.Accepted))
	}
	// Per-annotator counters add up.
	total := 0
	for _, an := range rep.Annotators {
		total += an.Questions
	}
	if total != rep.Questions {
		t.Errorf("per-annotator questions sum to %d, workspace answered %d", total, rep.Questions)
	}
}

// TestWorkspaceConcurrentAnnotators hammers one workspace from several
// goroutines; with -race this exercises the lock discipline, and the
// invariants (disjoint assignments, budget never oversubscribed) must hold
// under real interleaving.
func TestWorkspaceConcurrentAnnotators(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{})
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 24})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	names := []string{"a0", "a1", "a2", "a3"}
	for _, n := range names {
		if err := m.Attach(ws.ID(), n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(name string, accept bool) {
			defer wg.Done()
			for {
				sug, ok, err := m.Suggest(ws.ID(), name)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					return
				}
				if _, err := m.Answer(ws.ID(), name, sug.Key, accept); err != nil {
					t.Error(err)
					return
				}
			}
		}(names[w], w%2 == 0)
	}
	wg.Wait()
	rep := ws.Report()
	if rep.Questions == 0 || rep.Questions > rep.Budget {
		t.Fatalf("questions = %d (budget %d)", rep.Questions, rep.Budget)
	}
	keys := map[string]bool{}
	for _, rec := range rep.History {
		if keys[rec.Key] {
			t.Fatalf("rule %q was answered twice", rec.Key)
		}
		keys[rec.Key] = true
	}
}

// driveRandom plays a random (but seeded, hence reproducible) multi-annotator
// session against a manager and returns the workspace ID.
func driveRandom(t *testing.T, m *Manager, rng *rand.Rand, steps int) string {
	t.Helper()
	return driveRandomSeeded(t, m, rng, steps, []string{seedRule})
}

// driveRandomSeeded is driveRandom on a workspace seeded with the given rules.
func driveRandomSeeded(t *testing.T, m *Manager, rng *rand.Rand, steps int, seedRules []string) string {
	t.Helper()
	ws, err := m.Create("directions", Options{SeedRules: seedRules, Budget: steps})
	if err != nil {
		t.Fatal(err)
	}
	id := ws.ID()
	names := []string{"alice", "bob", "carol"}
	for _, n := range names[:1+rng.Intn(len(names))] {
		if err := m.Attach(id, n); err != nil {
			t.Fatal(err)
		}
	}
	attached := func() []string {
		var out []string
		for _, an := range ws.Report().Annotators {
			out = append(out, an.Name)
		}
		return out
	}
	for i := 0; i < steps; i++ {
		live := attached()
		name := live[rng.Intn(len(live))]
		switch op := rng.Intn(10); {
		case op == 0 && len(live) > 1:
			if err := m.Detach(id, name); err != nil {
				t.Fatal(err)
			}
		case op == 1 && len(live) < len(names):
			for _, n := range names {
				found := false
				for _, l := range live {
					if l == n {
						found = true
					}
				}
				if !found {
					if err := m.Attach(id, n); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		default:
			sug, ok, err := m.Suggest(id, name)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if rng.Intn(2) == 0 { // answer now, maybe leave pending otherwise
				if _, err := m.Answer(id, name, sug.Key, rng.Intn(4) == 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return id
}

// TestReplayReconstructsByteIdenticalState is the journal property test:
// random event sequences, journaled live, replayed onto a freshly built
// engine, must reconstruct byte-identical workspace state (compared via the
// full serialized snapshot, which includes the exact score vector) and an
// identical report. A workspace with two seed rules journals one materialize
// event listing both; a journal with one materialize event per spec (the
// shape older servers wrote) must replay to the same state.
func TestReplayReconstructsByteIdenticalState(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		rules []string
	}{
		{1, []string{seedRule}},
		{2, []string{seedRule}},
		{3, []string{seedRule}},
		{4, []string{seedRule, secondSeedRule}},
	} {
		seed := tc.seed
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		live := newTestManager(t, path, ManagerConfig{})
		id := driveRandomSeeded(t, live, rng, 40, tc.rules)
		lws, ok := live.Get(id)
		if !ok {
			t.Fatal("live workspace vanished")
		}
		liveSnap, err := json.Marshal(lws.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		liveReport := lws.Report()
		if err := live.Sync(); err != nil {
			t.Fatal(err)
		}

		events, err := journal.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatal("journal is empty")
		}
		restored := newTestManager(t, "", ManagerConfig{})
		stats := restored.Recover(events)
		if len(stats.Skipped) != 0 {
			t.Fatalf("seed %d: replay skipped workspaces: %v", seed, stats.Skipped)
		}
		rws, ok := restored.Get(id)
		if !ok {
			t.Fatalf("seed %d: workspace %s not recovered", seed, id)
		}
		restoredSnap, err := json.Marshal(rws.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(liveSnap, restoredSnap) {
			t.Fatalf("seed %d: replayed state differs from live state:\nlive:     %s\nreplayed: %s", seed, liveSnap, restoredSnap)
		}
		if !reflect.DeepEqual(liveReport, rws.Report()) {
			t.Fatalf("seed %d: replayed report differs", seed)
		}
		if len(tc.rules) > 1 {
			checkSplitMaterializeReplay(t, events, id, tc.rules, liveSnap)
		}
	}
}

// checkSplitMaterializeReplay asserts the journal materialized the seed
// rules in one event, then rewrites that event into one event per spec and
// checks the rewritten journal still recovers the live snapshot.
func checkSplitMaterializeReplay(t *testing.T, events []journal.Event, id string, rules []string, liveSnap []byte) {
	t.Helper()
	var split []journal.Event
	materialized := 0
	for _, ev := range events {
		if ev.Type != evMaterialize {
			split = append(split, ev)
			continue
		}
		materialized++
		var d materializeData
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Specs, rules) {
			t.Fatalf("materialize event lists %v, want %v", d.Specs, rules)
		}
		for _, spec := range d.Specs {
			raw, err := json.Marshal(materializeData{Specs: []string{spec}})
			if err != nil {
				t.Fatal(err)
			}
			one := ev
			one.Data = raw
			split = append(split, one)
		}
	}
	if materialized != 1 {
		t.Fatalf("journal has %d materialize events for %d seed rules, want 1", materialized, len(rules))
	}
	restored := newTestManager(t, "", ManagerConfig{})
	if stats := restored.Recover(split); len(stats.Skipped) != 0 {
		t.Fatalf("per-spec materialize journal skipped workspaces: %v", stats.Skipped)
	}
	rws, ok := restored.Get(id)
	if !ok {
		t.Fatalf("workspace %s not recovered from the per-spec materialize journal", id)
	}
	snap, err := json.Marshal(rws.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveSnap, snap) {
		t.Fatalf("per-spec materialize journal replays to different state:\nlive:     %s\nreplayed: %s", liveSnap, snap)
	}
}

// TestSeedingMatchesSession pins that a workspace and a solo session seeded
// alike start from the same seed records and positive set.
func TestSeedingMatchesSession(t *testing.T) {
	for _, opts := range []Options{
		{SeedRules: []string{seedRule}},
		{SeedRules: []string{seedRule, secondSeedRule}},
		{SeedRules: []string{secondSeedRule, seedRule}, SeedPositiveIDs: []int{0, 1, 262}},
	} {
		eng := newTestEngine(t)
		sess, err := eng.NewSession(core.SessionOptions{SeedRules: opts.SeedRules, SeedPositiveIDs: opts.SeedPositiveIDs, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		opts.Budget, opts.Seed = 10, 42
		ws, err := New(eng, "w", "directions", opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, got := sess.Report(), ws.Report()
		var seeds []core.RuleRecord
		for _, rec := range got.Accepted {
			seeds = append(seeds, rec.RuleRecord)
		}
		if len(seeds) != len(opts.SeedRules) || !reflect.DeepEqual(seeds, want.Accepted) {
			t.Errorf("%v: workspace seed records %+v, session %+v", opts.SeedRules, seeds, want.Accepted)
		}
		if !reflect.DeepEqual(got.Positives, want.PositiveIDs()) {
			t.Errorf("%v: workspace P %v, session P %v", opts.SeedRules, got.Positives, want.PositiveIDs())
		}
	}
}

// TestSnapshotCompactionResumesDeterministically compacts mid-run, keeps
// driving, and verifies recovery from the compacted journal (snapshot +
// suffix events) still reconstructs byte-identical state.
func TestSnapshotCompactionResumesDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	live := newTestManager(t, path, ManagerConfig{CompactEvery: -1})
	id := driveRandom(t, live, rng, 25)
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	// Keep going after the compaction: these events land after the snapshot.
	lws, _ := live.Get(id)
	for i := 0; i < 8; i++ {
		sug, ok, err := lws.Suggest("alice")
		if err != nil || !ok {
			break
		}
		if _, err := lws.Answer("alice", sug.Key, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	liveSnap, _ := json.Marshal(lws.Snapshot())
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}

	events, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	sawSnapshot := false
	for _, ev := range events {
		if ev.Type == evSnapshot {
			sawSnapshot = true
		}
	}
	if !sawSnapshot {
		t.Fatal("compacted journal has no snapshot event")
	}
	restored := newTestManager(t, "", ManagerConfig{})
	stats := restored.Recover(events)
	if len(stats.Skipped) != 0 {
		t.Fatalf("replay skipped workspaces: %v", stats.Skipped)
	}
	rws, ok := restored.Get(id)
	if !ok {
		t.Fatal("workspace not recovered from compacted journal")
	}
	restoredSnap, _ := json.Marshal(rws.Snapshot())
	if !bytes.Equal(liveSnap, restoredSnap) {
		t.Fatalf("state after compaction+resume differs:\nlive:     %s\nrestored: %s", liveSnap, restoredSnap)
	}
}

// TestReplayThousandEventsUnderASecond pins the recovery-latency acceptance
// bar: replaying a 1K-event journal must complete in under a second.
func TestReplayThousandEventsUnderASecond(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	live := newTestManager(t, path, ManagerConfig{})
	// A realistic server journal holds several workspaces; keep opening
	// fresh ones (distinct seeds, so their discovery paths differ) until
	// the log holds 1K events (a smaller log under the race detector's
	// slowdown, where the timing bar is skipped anyway).
	target := 1000
	if raceEnabled {
		target = 300
	}
	events := 0
	for wsN := int64(1); events < target; wsN++ {
		ws, err := live.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 200, Seed: wsN})
		if err != nil {
			t.Fatal(err)
		}
		id := ws.ID()
		for _, n := range []string{"alice", "bob"} {
			if err := live.Attach(id, n); err != nil {
				t.Fatal(err)
			}
		}
		events += 3 // create + 2 attaches
		for q := 0; events < target; q++ {
			name := []string{"alice", "bob"}[q%2]
			sug, ok, err := live.Suggest(id, name)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if _, err := live.Answer(id, name, sug.Key, q%8 == 0); err != nil {
				t.Fatal(err)
			}
			events += 2
		}
	}
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}
	logged, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) < target {
		t.Fatalf("only generated %d events (suggestions ran dry); loosen the driver", len(logged))
	}

	restored := newTestManager(t, "", ManagerConfig{})
	start := time.Now()
	stats := restored.Recover(logged)
	elapsed := time.Since(start)
	if len(stats.Skipped) != 0 {
		t.Fatalf("replay skipped workspaces: %v", stats.Skipped)
	}
	if elapsed >= time.Second && !raceEnabled {
		t.Fatalf("replaying %d events took %v, want < 1s", len(logged), elapsed)
	}
	t.Logf("replayed %d events in %v", len(logged), elapsed)
}

// TestManagerTTLEvictionRacingAnswer races TTL eviction against concurrent
// Answer/Suggest traffic on the same workspace. Run with -race: the
// invariant is no data race and graceful ErrUnknownWorkspace afterwards —
// and the journal must still recover to the workspace-gone state.
func TestManagerTTLEvictionRacingAnswer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	m := newTestManager(t, path, ManagerConfig{TTL: 50 * time.Millisecond})
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	id := ws.ID()
	for _, n := range []string{"alice", "bob"} {
		if err := m.Attach(id, n); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu      sync.Mutex
		now     = time.Now()
		expired bool
	)
	m.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		if expired {
			return now.Add(time.Hour)
		}
		return now
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, name := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sug, ok, err := m.Suggest(id, name)
				if err != nil || !ok {
					return // workspace evicted (or dry): the race resolved
				}
				m.Answer(id, name, sug.Key, false)
			}
		}(name)
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	expired = true
	mu.Unlock()
	for i := 0; i < 100 && m.Len() > 0; i++ {
		m.Sweep()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if m.Len() != 0 {
		t.Fatalf("workspace survived TTL eviction")
	}
	if _, err := m.Answer(id, "alice", "k", true); err == nil {
		t.Fatal("answer on an evicted workspace should fail")
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}

	// The journal may contain post-evict events from the racing answerers;
	// recovery must shrug them off and land on "workspace gone".
	events, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestManager(t, "", ManagerConfig{})
	restored.Recover(events)
	if restored.Len() != 0 {
		t.Fatalf("evicted workspace resurrected by replay")
	}
}

// TestJournalFailureStopsAcknowledging pins the durability contract's
// failure mode: once an append fails, the workspace refuses further state
// changes with ErrJournal instead of acknowledging work that would not
// survive a restart.
func TestJournalFailureStopsAcknowledging(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	eng := newTestEngine(t)
	jw, _, err := journal.Open(path, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(map[string]*core.Engine{"directions": eng}, jw, ManagerConfig{})
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	id := ws.ID()
	if err := m.Attach(id, "alice"); err != nil {
		t.Fatal(err)
	}
	sug, ok, err := m.Suggest(id, "alice")
	if err != nil || !ok {
		t.Fatalf("suggest: ok=%v err=%v", ok, err)
	}

	// Kill the journal out from under the manager: the next append fails.
	jw.Close()
	if _, err := m.Answer(id, "alice", sug.Key, true); !errors.Is(err, ErrJournal) {
		t.Fatalf("answer on a dead journal: err=%v, want ErrJournal", err)
	}
	// And the workspace now refuses new work outright.
	if _, _, err := m.Suggest(id, "alice"); !errors.Is(err, ErrJournal) {
		t.Fatalf("suggest after journal failure: err=%v, want ErrJournal", err)
	}
	if err := m.Attach(id, "bob"); !errors.Is(err, ErrJournal) {
		t.Fatalf("attach after journal failure: err=%v, want ErrJournal", err)
	}
	// Creating a new workspace fails too (its create event cannot be
	// journaled).
	if _, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10}); !errors.Is(err, ErrJournal) {
		t.Fatalf("create on a dead journal: err=%v, want ErrJournal", err)
	}
}

func TestWorkspaceErrors(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{})
	if _, err := m.Create("nope", Options{}); err == nil {
		t.Error("unknown dataset should fail")
	}
	if _, err := m.Create("directions", Options{SeedRules: []string{"@@@ ???"}}); err == nil {
		t.Error("bad seed rule should fail")
	}
	if _, err := m.Create("directions", Options{}); err == nil {
		t.Error("empty seeds should fail")
	}
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	id := ws.ID()
	if _, _, err := m.Suggest(id, "ghost"); err == nil {
		t.Error("suggest for an unattached annotator should fail")
	}
	if err := m.Attach(id, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(id, "alice"); err == nil {
		t.Error("duplicate attach should fail")
	}
	if _, err := m.Answer(id, "alice", "k", true); err == nil {
		t.Error("answer without a pending suggestion should fail")
	}
	sug, ok, err := m.Suggest(id, "alice")
	if err != nil || !ok {
		t.Fatalf("suggest: ok=%v err=%v", ok, err)
	}
	if _, err := m.Answer(id, "alice", "wrong", true); err == nil {
		t.Error("mismatched answer key should fail")
	}
	// Detaching releases the pending rule back to the pool.
	if err := m.Detach(id, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(id, "bob"); err != nil {
		t.Fatal(err)
	}
	sug2, ok, err := m.Suggest(id, "bob")
	if err != nil || !ok {
		t.Fatalf("suggest after detach: ok=%v err=%v", ok, err)
	}
	if sug2.Key != sug.Key {
		t.Errorf("released rule %q was not re-assigned (got %q)", sug.Key, sug2.Key)
	}
}

// TestRestoreRefitsClassifier pins the recovery consistency fix: a workspace
// restored from a snapshot must hold a fitted classifier (Trained() true, and
// the same fitted model the live workspace had), not report restored scores
// against an untrained classifier until the next accept.
func TestRestoreRefitsClassifier(t *testing.T) {
	m := newTestManager(t, "", ManagerConfig{})
	ws, err := m.Create("directions", Options{SeedRules: []string{seedRule}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(ws.ID(), "alice"); err != nil {
		t.Fatal(err)
	}
	// Drive until at least one accept retrained the shared classifier.
	accepts := 0
	for i := 0; i < 6 && accepts == 0; i++ {
		sug, ok, err := m.Suggest(ws.ID(), "alice")
		if err != nil || !ok {
			t.Fatalf("suggest %d: ok=%v err=%v", i, ok, err)
		}
		accept := sug.NewCoverage > 0
		if _, err := m.Answer(ws.ID(), "alice", sug.Key, accept); err != nil {
			t.Fatal(err)
		}
		if accept {
			accepts++
		}
	}
	if accepts == 0 {
		t.Fatal("scenario not reached: no accepted rule")
	}
	liveRep := ws.Report()
	if !liveRep.Classifier.Trained {
		t.Fatal("sanity: live workspace classifier is not trained")
	}

	eng := newTestEngine(t)
	rws, err := Restore(eng, ws.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	restoredRep := rws.Report()
	if !restoredRep.Classifier.Trained {
		t.Error("restored workspace classifier is not trained")
	}
	if !reflect.DeepEqual(liveRep.Classifier, restoredRep.Classifier) {
		t.Errorf("classifier metrics diverge after restore:\nlive:     %+v\nrestored: %+v",
			liveRep.Classifier, restoredRep.Classifier)
	}
	// The refit must reproduce the exact live model, not just any model:
	// future evolution (next suggestion) stays bit-identical.
	lsug, lok, lerr := ws.Suggest("alice")
	rsug, rok, rerr := rws.Suggest("alice")
	if lerr != nil || rerr != nil || lok != rok || lsug.Key != rsug.Key {
		t.Errorf("post-restore evolution diverges: live (%q,%v,%v) vs restored (%q,%v,%v)",
			lsug.Key, lok, lerr, rsug.Key, rok, rerr)
	}
}

// TestStatsDoesNotBlockOnInFlightSuggest pins the status-poll bugfix: Stats
// reads the cached counters snapshot, so a monitoring poll returns while an
// in-flight shared suggest holds ws.mu blocked on the engine's index lock
// (here: a concurrent materialization parked inside the materialize hook,
// which fires under the index write lock).
func TestStatsDoesNotBlockOnInFlightSuggest(t *testing.T) {
	eng := newTestEngine(t)
	ws, err := New(eng, "ws-stats", "directions", Options{SeedRules: []string{seedRule}, Budget: 20, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Attach("alice"); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	eng.SetMaterializeHook(func([]string) { close(entered); <-release })
	matDone := make(chan struct{})
	go func() {
		defer close(matDone)
		eng.MaterializeRule("how do i get")
	}()
	<-entered // the index write lock is now held and parked

	sugDone := make(chan struct{})
	go func() {
		defer close(sugDone)
		ws.Suggest("alice")
	}()
	// Let the suggest take ws.mu and block inside WithIndexRead.
	time.Sleep(300 * time.Millisecond)
	select {
	case <-sugDone:
		t.Fatal("suggest completed while the index write lock was held")
	default:
	}

	statsDone := make(chan struct{})
	var questions, positives int
	go func() {
		defer close(statsDone)
		questions, positives, _ = ws.Stats()
	}()
	select {
	case <-statsDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked behind an in-flight suggest")
	}
	if questions != 0 || positives == 0 {
		t.Errorf("Stats = (%d questions, %d positives), want (0, >0)", questions, positives)
	}

	close(release)
	<-matDone
	<-sugDone
}
