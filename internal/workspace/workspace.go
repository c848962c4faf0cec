// Package workspace implements the paper's parallel-discovery deployment
// mode: several annotators attach to one shared Workspace per dataset and
// discover rules over a single shared labeled set. The workspace holds one
// core.Loop — the shared positive set P, scores, classifier, queried rules
// and hierarchy cache, the same Algorithm-1 state a solo core.Session holds
// — plus what is particular to sharing it: per-annotator assignment (no two
// annotators are shown the same candidate rule concurrently), the
// accepted-rule list and history tagged by annotator, and the journal.
//
// # Determinism and replay
//
// A workspace's entire state evolution is a pure function of (engine,
// creation options, applied event sequence): candidate selection is a
// deterministic argmax over the shared hierarchy, and every use of
// randomness (presentation-sample drawing, classifier negative sampling) is
// seeded from the workspace seed and the event sequence number rather than
// from an evolving RNG stream. That is what makes the journal
// (internal/journal) sufficient for crash recovery: replaying the event log
// through the same apply methods that served live traffic reconstructs
// byte-identical workspace state, and a snapshot (which captures the event
// sequence number) resumes the same deterministic stream. Replay skips the
// one derivation the journal already records: a suggest assigns the
// journaled key instead of ranking again, and the journaled engine
// fingerprint vouches that the engine would have ranked the same.
//
// The loop caches the shared hierarchy across events and regenerates it only
// when |P| or the index version changes — once per positive-set change for
// the whole workspace, not once per annotator (HierarchyGenerations exposes
// the count).
package workspace

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/traversal"
)

// Workspace telemetry: every applied (journaled) event is counted by type,
// and the two interactive verbs get latency histograms measured around the
// whole call — lock wait, shared-hierarchy work and journal append included,
// since that is what an annotator actually waits on.
var (
	wsEventsTotal = obs.Default().CounterVec("darwin_workspace_events_total",
		"State-changing workspace events applied (and journaled), by event type.", "type")
	wsSuggestDurations = obs.Default().Histogram("darwin_workspace_suggest_duration_seconds",
		"Latency of one shared-workspace suggest (includes hierarchy regeneration when the positive set changed and the accepting answer left it to the suggest).",
		obs.LatencyBuckets)
	wsAnswerDurations = obs.Default().Histogram("darwin_workspace_answer_duration_seconds",
		"Latency of one shared-workspace answer (on accept: classifier retrain, and hierarchy regeneration overlapped with it when no other assignment is outstanding).",
		obs.LatencyBuckets)
	wsAttachmentsExpired = obs.Default().Counter("darwin_workspace_attachments_expired_total",
		"Annotator attachments detached by the per-attachment idle TTL.")
)

// Sentinel errors, exposed so the HTTP layer can map them to status codes.
var (
	ErrUnknownWorkspace   = errors.New("unknown or expired workspace")
	ErrUnknownAnnotator   = errors.New("unknown annotator")
	ErrDuplicateAnnotator = errors.New("annotator already attached")
	ErrNoPending          = errors.New("no pending suggestion (call suggest first)")
	ErrKeyMismatch        = errors.New("answer does not match the pending suggestion")
	// ErrJournal marks a failed journal append: the workspace refuses new
	// state changes rather than keep acknowledging work that would not
	// survive a restart.
	ErrJournal = errors.New("journal write failed")
	// ErrLimit marks a create refused because the manager already holds
	// its maximum of live workspaces.
	ErrLimit = errors.New("limit reached")
)

// Options configures one workspace. The manager resolves Budget and Seed
// against the engine defaults before journaling the create event, so New
// requires both to be set (replay must not depend on mutable server
// defaults).
type Options struct {
	SeedRules       []string `json:"seed_rules,omitempty"`
	SeedPositiveIDs []int    `json:"seed_positive_ids,omitempty"`
	Budget          int      `json:"budget"`
	Seed            int64    `json:"seed"`
}

// Suggestion is one candidate rule assigned to an annotator. Question and
// BudgetLeft are fixed at assignment time under the workspace lock,
// counting the other annotators' outstanding assignments, so concurrent
// annotators see distinct question numbers.
type Suggestion struct {
	core.Suggestion
	// Question is this suggestion's provisional 1-based question number
	// (answered questions plus outstanding assignments including this one).
	Question int
	// BudgetLeft is the shared budget remaining after this assignment.
	BudgetLeft int
}

// Record is one rule verdict (or seed rule) in the shared history, tagged
// with the annotator who answered it (empty for seed rules).
type Record struct {
	core.RuleRecord
	Annotator string
}

// annotator is one attached annotator's private view: the suggestion
// assigned to them and not yet answered, plus per-annotator counters.
type annotator struct {
	name      string
	questions int
	accepts   int
	pending   *Suggestion
	// pendingCov is the full coverage set of the pending suggestion.
	pendingCov []int
	// lastSeen is the wall-clock time of the annotator's last interaction
	// (attach/suggest/answer). It drives the per-attachment idle TTL and is
	// deliberately not journaled or snapshotted: liveness is process-local,
	// and the *detach* it eventually triggers is the journaled event.
	lastSeen time.Time
}

// LogFunc journals one applied event. It is called inside the workspace's
// critical section — for suggest events, while the engine's index read lock
// is still held, so journal order matches the lock order concurrent index
// mutations were observed in. A returned error makes the workspace refuse
// further state changes (see ErrJournal).
type LogFunc func(typ string, data any) error

// Workspace is one shared multi-annotator discovery state. All methods are
// safe for concurrent use; a single mutex serializes state changes, which
// also defines the journal's replay order.
type Workspace struct {
	mu  sync.Mutex //darwin:lockrank workspace
	eng *core.Engine
	log LogFunc
	// logErr is the sticky first journal-append failure; once set, every
	// state-changing method fails with ErrJournal (the in-memory state is
	// ahead of the log by at most the event that failed, and replay after a
	// restart recovers everything acknowledged before it).
	logErr error

	id        string
	dataset   string
	seed      int64
	budget    int
	seedRules []string

	// loop is the shared Algorithm-1 state. Assigned-but-unanswered keys
	// count as queried in it, which keeps concurrent annotators'
	// suggestions disjoint.
	loop *core.Loop
	// lastRetrainSeq is the event sequence number the last retrain was seeded
	// with. Snapshots persist it so Restore can refit the classifier to the
	// exact model the live workspace had (same RNG stream), keeping
	// Trained() — and every report derived from the classifier — consistent
	// across recovery instead of flipping false until the next accept.
	lastRetrainSeq uint64
	// eventSeq counts applied events (create = 0); it seeds every derived
	// RNG so replayed and snapshot-restored workspaces draw the same
	// streams.
	eventSeq uint64

	accepted  []Record
	history   []Record
	questions int

	annotators map[string]*annotator
	annOrder   []string
	// attached is annOrder as last published: Annotators (and through it
	// the manager's labeler index) reads it without waiting on ws.mu.
	attached atomic.Pointer[[]string]

	// statsSnap is the cached status snapshot behind Stats: monitoring polls
	// read it lock-free, so a status poll never waits on ws.mu held across an
	// in-flight shared suggest (which can hold the mutex through a full
	// hierarchy regeneration under the engine's index lock).
	statsSnap atomic.Pointer[statsCounters]
}

// statsCounters is the cheap status snapshot published after every applied
// state change. Budget is immutable and lives on the workspace itself.
type statsCounters struct {
	questions int
	positives int
}

// publishStatsLocked refreshes the lock-free status snapshot. Callers hold
// ws.mu (or are in a constructor before the workspace is shared).
func (ws *Workspace) publishStatsLocked() {
	ws.statsSnap.Store(&statsCounters{questions: ws.questions, positives: ws.loop.Count()})
}

// publishAttachedLocked refreshes the lock-free copy of annOrder. Callers
// hold ws.mu (or are in a constructor before the workspace is shared).
func (ws *Workspace) publishAttachedLocked() {
	names := append([]string(nil), ws.annOrder...)
	ws.attached.Store(&names)
}

// mix derives a deterministic per-event RNG seed from the workspace seed and
// an event sequence number (splitmix64-style finalizer).
func mix(seed int64, seq uint64) int64 {
	x := uint64(seed) ^ (seq+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int64(x)
}

// New creates a workspace on the engine: it seeds the shared loop (seed
// rules are materialized in the shared index under the engine's write lock,
// firing any journaling hook once) and trains the initial classifier.
// log may be nil (volatile workspace).
//
//darwin:replaypure
func New(eng *core.Engine, id, dataset string, opts Options, log LogFunc) (*Workspace, error) {
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("workspace: budget must be resolved before creation")
	}
	if opts.Seed == 0 {
		return nil, fmt.Errorf("workspace: seed must be resolved before creation")
	}
	loop, seeds, err := eng.NewLoop(opts.Seed, opts.SeedRules, opts.SeedPositiveIDs)
	if err != nil {
		return nil, err
	}
	ws := &Workspace{
		eng:        eng,
		log:        log,
		id:         id,
		dataset:    dataset,
		seed:       opts.Seed,
		budget:     opts.Budget,
		seedRules:  append([]string(nil), opts.SeedRules...),
		loop:       loop,
		annotators: make(map[string]*annotator),
	}
	for _, rec := range seeds {
		ws.accepted = append(ws.accepted, Record{RuleRecord: rec})
	}
	ws.retrain(false) // event 0: the create itself
	ws.eventSeq = 1
	ws.publishStatsLocked()
	return ws, nil
}

// ID returns the workspace ID.
func (ws *Workspace) ID() string { return ws.id }

// Dataset returns the dataset name the workspace was created on.
func (ws *Workspace) Dataset() string { return ws.dataset }

// Budget returns the shared oracle query budget.
func (ws *Workspace) Budget() int { return ws.budget }

// retrain refits the shared classifier on P and refreshes the scores. The
// negative-sampling RNG is reseeded from the current event sequence number,
// making the retrain a pure function of (P, seed, eventSeq, corpus length).
// viewNext says the next loop step is a suggest, so the refit may regenerate
// the hierarchy for it (see core.Loop.Refit).
//
//darwin:replaypure
func (ws *Workspace) retrain(viewNext bool) {
	ws.loop.Classifier().Reseed(mix(ws.seed, ws.eventSeq))
	// Training failure is tolerated live (previous model and scores keep
	// serving); lastRetrainSeq deliberately still points at the last
	// successful fit, so a snapshot Restore refits a seq that is known to
	// succeed.
	if ws.loop.Refit(viewNext) == nil {
		ws.lastRetrainSeq = ws.eventSeq
	}
}

// Attach registers a new annotator on the workspace.
//
//darwin:replaypure
func (ws *Workspace) Attach(name string) error {
	if name == "" {
		return fmt.Errorf("workspace: annotator name is required")
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.journalErrLocked(); err != nil {
		return err
	}
	if _, dup := ws.annotators[name]; dup {
		return fmt.Errorf("workspace: annotator %q: %w", name, ErrDuplicateAnnotator)
	}
	//darwin:replaypure-exempt lastSeen is TTL bookkeeping that never enters journaled or replayed state
	ws.annotators[name] = &annotator{name: name, lastSeen: time.Now()}
	ws.annOrder = append(ws.annOrder, name)
	ws.publishAttachedLocked()
	ws.applied("attach", attachData{Annotator: name})
	return ws.journalErrLocked()
}

// Detach removes an annotator; their unanswered pending suggestion (if any)
// is released back to the candidate pool so another annotator can draw it.
//
//darwin:replaypure
func (ws *Workspace) Detach(name string) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.journalErrLocked(); err != nil {
		return err
	}
	if _, ok := ws.annotators[name]; !ok {
		return fmt.Errorf("workspace: %q: %w", name, ErrUnknownAnnotator)
	}
	ws.detachLocked(name)
	return ws.journalErrLocked()
}

// detachLocked removes a known annotator, releases their pending suggestion
// back to the pool and journals the detach. Callers hold ws.mu.
//
//darwin:replaypure
func (ws *Workspace) detachLocked(name string) {
	an := ws.annotators[name]
	if an.pending != nil {
		ws.loop.Release(an.pending.Key)
	}
	delete(ws.annotators, name)
	for i, n := range ws.annOrder {
		if n == name {
			ws.annOrder = append(ws.annOrder[:i], ws.annOrder[i+1:]...)
			break
		}
	}
	ws.publishAttachedLocked()
	ws.applied("detach", detachData{Annotator: name})
}

// DetachIdle detaches every annotator whose last interaction predates
// cutoff, journaling each detach exactly like a client-issued one (replay
// and replication therefore reproduce the reclaim deterministically, with no
// clock dependence). It returns the detached names.
func (ws *Workspace) DetachIdle(cutoff time.Time) []string {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.journalErrLocked() != nil {
		return nil
	}
	var idle []string
	for _, name := range ws.annOrder {
		if ws.annotators[name].lastSeen.Before(cutoff) {
			idle = append(idle, name)
		}
	}
	for _, name := range idle {
		ws.detachLocked(name)
		wsAttachmentsExpired.Inc()
	}
	return idle
}

// applied records one applied state change: it journals the event (while
// ws.mu — and, for suggest, the index read lock — is held, so journal order
// equals apply order) and advances the event sequence. Callers hold ws.mu.
//
// The ws.log field value is installed by the manager and appends to the
// durable journal; the field indirection is invisible to static call-graph
// analysis, so this bridge carries the //darwin:journals contract manually.
//
//darwin:journals
//darwin:replaypure
func (ws *Workspace) applied(typ string, data any) {
	ws.eventSeq++
	wsEventsTotal.With(typ).Inc()
	if ws.log != nil {
		if err := ws.log(typ, data); err != nil && ws.logErr == nil {
			ws.logErr = err
		}
	}
}

// journalErrLocked reports the sticky journal failure, if any. Callers hold
// ws.mu; state-changing methods check it both on entry (refuse new work on
// a broken journal) and after applied (surface the failure that just
// happened instead of silently acknowledging undurable work).
func (ws *Workspace) journalErrLocked() error {
	if ws.logErr == nil {
		return nil
	}
	return fmt.Errorf("workspace %s: %w (restart the server to recover the journaled state): %v", ws.id, ErrJournal, ws.logErr)
}

// outstandingLocked counts suggestions assigned and not yet answered.
func (ws *Workspace) outstandingLocked() int {
	n := 0
	for _, an := range ws.annotators {
		if an.pending != nil {
			n++
		}
	}
	return n
}

// Suggest returns the annotator's pending suggestion, or assigns them the
// most promising unqueried, unassigned candidate rule. ok=false means no
// assignment is possible: the shared budget is exhausted (counting
// outstanding assignments, so the budget is never oversubscribed) or no
// candidates remain. The heavy work — regenerating the shared hierarchy
// when |P| or the index changed and the accepting answer did not already
// (see core.Loop.Refit), and one benefit-kernel pass over the candidates —
// runs under the engine's read lock. The pick runs live only: replay
// assigns the journaled key through the same assign step (see
// assignJournaled).
//
//darwin:replaypure
func (ws *Workspace) Suggest(name string) (Suggestion, bool, error) {
	//darwin:replaypure-exempt latency metric only; the observed duration never enters workspace state
	defer wsSuggestDurations.ObserveSince(time.Now())
	ws.mu.Lock()
	defer ws.mu.Unlock()
	an, ok := ws.annotators[name]
	if !ok {
		return Suggestion{}, false, fmt.Errorf("workspace: %q: %w", name, ErrUnknownAnnotator)
	}
	//darwin:replaypure-exempt lastSeen is TTL bookkeeping that never enters journaled or replayed state
	an.lastSeen = time.Now()
	if an.pending != nil {
		return *an.pending, true, nil
	}
	if err := ws.journalErrLocked(); err != nil {
		return Suggestion{}, false, err
	}
	if ws.questions+ws.outstandingLocked() >= ws.budget {
		return Suggestion{}, false, nil
	}
	var sug Suggestion
	found := false
	ws.loop.View(func(st *traversal.State) {
		var key string
		if key, found = traversal.PickCandidate(st, 0); found {
			sug = ws.assignLocked(an, st, key)
		}
	})
	if !found {
		return Suggestion{}, false, nil
	}
	return sug, true, ws.journalErrLocked()
}

// assignJournaled replays a journaled suggest: it assigns key to the
// annotator through the assign step the live Suggest uses, without ranking
// or regenerating (see core.Loop.Resolve), so a replayed suggestion costs
// one key's coverage and benefit. It refuses an assignment the live
// workspace could not have made: an unknown annotator, one with a pending
// suggestion, a spent budget, or a key the engine does not hold or that is
// already queried.
//
//darwin:replaypure
func (ws *Workspace) assignJournaled(name, key string) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	an, ok := ws.annotators[name]
	switch {
	case !ok:
		return fmt.Errorf("workspace: %q: %w", name, ErrUnknownAnnotator)
	case an.pending != nil:
		return fmt.Errorf("annotator %q already holds %q", name, an.pending.Key)
	case ws.questions+ws.outstandingLocked() >= ws.budget:
		return fmt.Errorf("budget of %d is spent", ws.budget)
	case ws.loop.Queried(key):
		return fmt.Errorf("rule %q is already queried", key)
	}
	var err error
	ws.loop.Resolve(func(st *traversal.State) {
		if st.Index.Node(key) == nil {
			err = fmt.Errorf("rule %q is not in the index", key)
			return
		}
		ws.assignLocked(an, st, key)
	})
	return err
}

// assignLocked is the assign step Suggest and replay share: it takes key
// against st, samples its presentation sentences from the event's RNG,
// makes it the annotator's pending suggestion and journals the suggest.
// Callers hold ws.mu and run inside a View or Resolve of the loop.
//
//darwin:replaypure
func (ws *Workspace) assignLocked(an *annotator, st *traversal.State, key string) Suggestion {
	rng := rand.New(rand.NewSource(mix(ws.seed, ws.eventSeq)))
	picked, cov, _ := ws.loop.Take(st, key, rng)
	question := ws.questions + ws.outstandingLocked() + 1
	sug := Suggestion{Suggestion: picked, Question: question, BudgetLeft: ws.budget - question}
	an.pending = &sug
	an.pendingCov = cov
	// Journal inside the read lock: a concurrent seed-rule materialization
	// (write lock) is journaled strictly before or after this suggestion,
	// matching what the hierarchy saw.
	ws.applied("suggest", suggestData{Annotator: an.name, Key: key})
	return sug
}

// Answer records an annotator's verdict on their pending suggestion: on
// accept it merges the rule's coverage into the shared positive set and
// retrains the shared classifier; either way the rule stays queried for the
// whole workspace.
//
//darwin:replaypure
func (ws *Workspace) Answer(name, key string, accept bool) (Record, error) {
	//darwin:replaypure-exempt latency metric only; the observed duration never enters workspace state
	defer wsAnswerDurations.ObserveSince(time.Now())
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.journalErrLocked(); err != nil {
		return Record{}, err
	}
	an, ok := ws.annotators[name]
	if !ok {
		return Record{}, fmt.Errorf("workspace: %q: %w", name, ErrUnknownAnnotator)
	}
	//darwin:replaypure-exempt lastSeen is TTL bookkeeping that never enters journaled or replayed state
	an.lastSeen = time.Now()
	if an.pending == nil {
		return Record{}, fmt.Errorf("workspace: annotator %q: %w", name, ErrNoPending)
	}
	if an.pending.Key != key {
		return Record{}, fmt.Errorf("workspace: answer for %q vs pending %q: %w", key, an.pending.Key, ErrKeyMismatch)
	}
	pending, cov := an.pending, an.pendingCov
	an.pending, an.pendingCov = nil, nil

	rec := Record{RuleRecord: ws.loop.Verdict(ws.questions+1, pending.Suggestion, cov, accept), Annotator: name}
	if accept {
		ws.accepted = append(ws.accepted, rec)
		// Regenerate ahead of the next suggest only when one follows
		// for this P: another annotator's outstanding assignment may
		// grow P again first, and a budget-spending answer has none.
		ws.retrain(ws.outstandingLocked() == 0 && rec.Question < ws.budget)
	}
	rec.PositivesAfter = ws.loop.Count()
	ws.history = append(ws.history, rec)
	ws.questions = rec.Question
	an.questions++
	if accept {
		an.accepts++
	}
	ws.applied("answer", answerData{Annotator: name, Key: key, Accept: accept})
	ws.publishStatsLocked()
	return rec, ws.journalErrLocked()
}

// HierarchyGenerations returns how many times the shared hierarchy was
// regenerated — with the shared cache this is once per positive-set change
// (plus index growth), regardless of how many annotators are stepping.
func (ws *Workspace) HierarchyGenerations() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.loop.HierarchyGenerations()
}

// Stats returns the workspace's cheap status counters (questions answered,
// |P|, done) without copying the full report — the serving layer's list and
// status endpoints poll this per labeler. It reads the cached snapshot of
// the last applied state change, never ws.mu: a monitoring poll must not
// stall behind an in-flight shared suggest holding the workspace lock.
func (ws *Workspace) Stats() (questions, positives int, done bool) {
	snap := ws.statsSnap.Load()
	return snap.questions, snap.positives, snap.questions >= ws.budget
}

// Annotators returns the attached annotator names in attach order, as last
// published: it never waits on an in-flight suggest.
func (ws *Workspace) Annotators() []string {
	if names := ws.attached.Load(); names != nil {
		return append([]string(nil), *names...)
	}
	return nil
}

// PositivesMap returns a copy of the shared positive set.
func (ws *Workspace) PositivesMap() map[int]bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.loop.PositivesMap()
}

// AnnotatorReport summarizes one attached annotator.
type AnnotatorReport struct {
	Name      string
	Questions int
	Accepts   int
	// PendingKey is the key of the suggestion assigned and not yet
	// answered ("" if none).
	PendingKey string
}

// ClassifierMetrics summarizes the shared classifier's state, derived
// deterministically from the score vector.
type ClassifierMetrics struct {
	// Trained reports whether the classifier currently holds a fitted model.
	// It survives snapshot recovery: Restore refits the model from the
	// persisted (positives, seed, last retrain sequence) triple.
	Trained            bool
	Retrains           int
	MeanScore          float64
	PredictedPositives int // sentences with p_s >= 0.5
}

// Report is a deterministic snapshot of the shared discovery state: equal
// event sequences yield equal reports (no wall-clock fields, and no
// process-local counters like HierarchyGenerations — a regeneration can
// happen on a suggest that assigns nothing, which journals no event), which
// is what the crash-recovery tests compare.
type Report struct {
	ID            string
	Dataset       string
	Budget        int
	Questions     int
	Done          bool
	PositiveCount int
	Positives     []int
	Accepted      []Record
	History       []Record
	Annotators    []AnnotatorReport
	Classifier    ClassifierMetrics
	EventSeq      uint64
}

// Report snapshots the workspace. The record slices are copied, so the
// snapshot stays stable while the workspace keeps running.
func (ws *Workspace) Report() *Report {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	rep := &Report{
		ID:            ws.id,
		Dataset:       ws.dataset,
		Budget:        ws.budget,
		Questions:     ws.questions,
		Done:          ws.questions >= ws.budget,
		PositiveCount: ws.loop.Count(),
		Positives:     ws.loop.PositiveIDs(),
		Accepted:      append([]Record(nil), ws.accepted...),
		History:       append([]Record(nil), ws.history...),
		Classifier:    ws.metricsLocked(),
		EventSeq:      ws.eventSeq,
	}
	for _, name := range ws.annOrder {
		an := ws.annotators[name]
		ar := AnnotatorReport{Name: an.name, Questions: an.questions, Accepts: an.accepts}
		if an.pending != nil {
			ar.PendingKey = an.pending.Key
		}
		rep.Annotators = append(rep.Annotators, ar)
	}
	return rep
}

func (ws *Workspace) metricsLocked() ClassifierMetrics {
	scores := ws.loop.Scores()
	m := ClassifierMetrics{Trained: ws.loop.Classifier().Trained(), Retrains: ws.loop.Retrains()}
	sum := 0.0
	for _, s := range scores {
		sum += s
		if s >= 0.5 {
			m.PredictedPositives++
		}
	}
	if len(scores) > 0 {
		m.MeanScore = sum / float64(len(scores))
	}
	return m
}
