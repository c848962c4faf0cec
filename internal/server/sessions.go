package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/pkg/darwin"
)

// Solo sessions are served from one registry that owns their ids, idle TTL
// and cap and, with Config.JournalPath set, their "<JournalPath>.sessions"
// log (kept apart so workspace compaction never rewrites it). A session's
// state is a pure function of (engine, create options, verdicts), so replay
// rebuilds it through the ordinary SDK calls under its old id with a fresh
// idle timer, and drops it with a log line if the suggestion stream
// diverges (the corpus or engine changed under the log). The log is
// shard-local: sessions are not replicated.
//
// As in workspace.Manager, each mutating verb (create, answer, delete, TTL
// eviction) appends in the critical section that applies it, under the read
// side of an appender gate that compaction takes exclusively. An append
// failure is sticky: every later create, answer and delete fails with
// darwin.ErrUnavailable (503) rather than acknowledge what the log lacks.

// stepHist is the process-wide suggest-step latency histogram. healthz
// derives its steps/last/avg fields from the same histogram /metrics
// serves, so the two surfaces can never disagree.
var stepHist = obs.Default().Histogram("darwin_suggest_step_duration_seconds",
	"Wall-clock latency of the suggest step as seen by the serving handler.",
	obs.LatencyBuckets)

// Default session limits.
const (
	DefaultSessionTTL  = 30 * time.Minute
	DefaultMaxSessions = 1024
)

// Session journal event types.
const (
	sessEventCreate = "screate"
	sessEventAnswer = "sanswer"
	sessEventDelete = "sdelete"
)

// sessCompactEvery compacts the session log after this many appends.
const sessCompactEvery = 4096

// sessCreateData is the payload of a screate event: the fully resolved
// create options (server defaults already applied), so replay does not
// depend on the current Config.
type sessCreateData struct {
	SeedRules       []string `json:"seed_rules,omitempty"`
	SeedPositiveIDs []int    `json:"seed_positive_ids,omitempty"`
	Budget          int      `json:"budget,omitempty"`
	Seed            int64    `json:"seed,omitempty"`
}

// sessAnswerData is the payload of a sanswer event: the resolved key of the
// applied answer (blind answers are journaled with the key they resolved
// to, so replay is unambiguous).
type sessAnswerData struct {
	Key    string `json:"key"`
	Accept bool   `json:"accept"`
}

// soloSession is one served solo session and the labeler it is served as
// on /v1 and /v2: it times suggest steps for healthz and journals answers.
// Every other method is the SDK adapter's, which serializes calls on one
// session.
type soloSession struct {
	*darwin.SessionLabeler
	reg     *sessionRegistry
	id      string
	dataset string
	opts    sessCreateData

	// mu makes an answer call and its appends one critical section, so the
	// log holds verdicts in apply order, and orders the delete after them.
	mu sync.Mutex //darwin:lockrank workspace
	// verdicts are the journaled answers in apply order, written under mu
	// and the gate's read side; compaction reads them under the gate.
	verdicts []sessAnswerData

	lastUsed time.Time // guarded by reg.mu
}

// sessionRegistry holds the live solo sessions of a server.
type sessionRegistry struct {
	ttl time.Duration
	max int
	now func() time.Time
	// w is the session log (nil without a journal).
	w *journal.Writer
	// err holds the first append failure; nothing is appended after it.
	err atomic.Pointer[error]

	// gate is the appender gate: every journaling verb holds RLock while it
	// applies and appends, and compaction holds Lock, so the log it rewrites
	// from the live sessions holds every acknowledged event.
	//darwin:lockrank gate
	gate sync.RWMutex

	mu    sync.Mutex //darwin:lockrank manager
	items map[string]*soloSession
}

// newSessionRegistry creates an empty, unjournaled registry; a non-positive
// ttl or max takes the default.
func newSessionRegistry(ttl time.Duration, max int) *sessionRegistry {
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &sessionRegistry{ttl: ttl, max: max, now: time.Now, items: make(map[string]*soloSession)}
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() string {
	var b [16]byte
	rand.Read(b[:]) // never fails: it crashes the process instead
	return hex.EncodeToString(b[:])
}

// create registers lab as a new session on dataset, created with the
// resolved options opts, once its create is journaled. It fails with
// darwin.ErrUnavailable when the registry is full after evicting expired
// sessions, or when the journal is broken.
func (r *sessionRegistry) create(lab *darwin.SessionLabeler, dataset string, opts sessCreateData) (*soloSession, error) {
	defer r.maybeCompact()
	r.gate.RLock()
	defer r.gate.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.sweepLocked(now)
	if len(r.items) >= r.max {
		return nil, fmt.Errorf("%w: server: session limit reached (%d live sessions)", darwin.ErrUnavailable, len(r.items))
	}
	id := newSessionID()
	if err := r.append(sessEventCreate, id, dataset, opts); err != nil {
		return nil, err
	}
	en := &soloSession{SessionLabeler: lab, reg: r, id: id, dataset: dataset, opts: opts, lastUsed: now}
	r.items[id] = en
	return en, nil
}

// get returns the live session with the given id and refreshes its idle
// timer. An expired session is evicted, journaled, and treated as absent.
func (r *sessionRegistry) get(id string) (*soloSession, bool) {
	defer r.maybeCompact()
	r.gate.RLock()
	defer r.gate.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getLocked(id)
}

// getLocked is get for callers that hold the gate's read side and r.mu.
func (r *sessionRegistry) getLocked(id string) (*soloSession, bool) {
	en, ok := r.items[id]
	now := r.now()
	if ok && now.Sub(en.lastUsed) > r.ttl {
		r.evictLocked(id)
		return nil, false
	}
	if ok {
		en.lastUsed = now
	}
	return en, ok
}

// peek returns the live session with the given id without refreshing its
// idle timer: read-only listings and status polls must not keep abandoned
// sessions alive.
func (r *sessionRegistry) peek(id string) (*soloSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	en, ok := r.items[id]
	if !ok || r.now().Sub(en.lastUsed) > r.ttl {
		return nil, false
	}
	return en, true
}

// delete closes and removes a session and journals the delete. A broken
// journal fails the delete before anything is removed.
func (r *sessionRegistry) delete(ctx context.Context, id string) error {
	defer r.maybeCompact()
	r.gate.RLock()
	defer r.gate.RUnlock()
	r.mu.Lock()
	en, ok := r.getLocked(id)
	err := r.failure()
	if ok && err == nil {
		delete(r.items, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: unknown or expired labeler %q", darwin.ErrNotFound, id)
	}
	if err != nil {
		return err
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	_ = en.Close(ctx) // the SDK adapter's Close cannot fail
	return r.append(sessEventDelete, id, "", nil)
}

// evictLocked drops an expired session and journals it as deleted, so it
// stays gone after a restart; a request that resolved it earlier still
// finishes on it. Callers hold the gate's read side and r.mu.
func (r *sessionRegistry) evictLocked(id string) {
	delete(r.items, id)
	// A failed append is sticky: the next create, answer or delete reports it.
	_ = r.append(sessEventDelete, id, "", nil)
}

// sweep evicts every session idle longer than the TTL and returns how many
// it removed.
func (r *sessionRegistry) sweep() int {
	defer r.maybeCompact()
	r.gate.RLock()
	defer r.gate.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweepLocked(r.now())
}

func (r *sessionRegistry) sweepLocked(now time.Time) int {
	n := 0
	for id, en := range r.items {
		if now.Sub(en.lastUsed) > r.ttl {
			r.evictLocked(id)
			n++
		}
	}
	return n
}

// len counts the sessions held, expired ones not yet swept included.
func (r *sessionRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// ids returns the held session ids, in no particular order.
func (r *sessionRegistry) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.items))
	for id := range r.items {
		out = append(out, id)
	}
	return out
}

// failure returns the sticky append failure as a darwin.ErrUnavailable
// error, or nil.
func (r *sessionRegistry) failure() error {
	if err := r.err.Load(); err != nil {
		return fmt.Errorf("%w: session journal write failed (restart the server to recover the journaled state): %v", darwin.ErrUnavailable, *err)
	}
	return nil
}

// append journals one event unless an earlier append failed, keeping the
// first failure sticky. Without a journal it records nothing.
func (r *sessionRegistry) append(typ, id, dataset string, data any) error {
	if r.w == nil {
		return nil
	}
	if err := r.failure(); err != nil {
		return err
	}
	if _, err := r.w.Append(typ, id, dataset, data); err != nil {
		r.err.CompareAndSwap(nil, &err)
		return r.failure()
	}
	return nil
}

// recordLocked journals the applied records of one answer call, in apply
// order with resolved keys, and keeps them as the session's verdicts.
// Callers hold the gate's read side and en.mu.
func (r *sessionRegistry) recordLocked(en *soloSession, recs []darwin.RuleRecord) error {
	for _, rec := range recs {
		ans := sessAnswerData{Key: rec.Key, Accept: rec.Accepted}
		if err := r.append(sessEventAnswer, en.id, "", ans); err != nil {
			return err
		}
		en.verdicts = append(en.verdicts, ans)
	}
	return nil
}

// maybeCompact rewrites the log, once enough appends accumulated, as each
// live session's create event and verdicts. Callers hold no registry lock.
func (r *sessionRegistry) maybeCompact() {
	if r.w == nil || r.w.SinceRewrite() < sessCompactEvery {
		return
	}
	r.gate.Lock()
	defer r.gate.Unlock()
	if r.w.SinceRewrite() < sessCompactEvery {
		return // compacted while this caller waited for the gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(r.now())
	var events []journal.Event
	add := func(typ, id, dataset string, data any) {
		raw, _ := json.Marshal(data) // flat structs of strings, ints and bools: never fails
		events = append(events, journal.Event{Type: typ, WS: id, Dataset: dataset, Data: raw})
	}
	for id, en := range r.items {
		add(sessEventCreate, id, en.dataset, en.opts)
		for _, ans := range en.verdicts {
			add(sessEventAnswer, id, "", ans)
		}
	}
	if err := r.w.Rewrite(events); err != nil {
		log.Printf("server: session journal compact: %v", err)
	}
}

// open opens the session log at path and replays it: creates and answers
// apply in file order, a delete drops its session, and each survivor is
// rebuilt. Replay journals nothing.
func (r *sessionRegistry) open(path string, datasets map[string]*Dataset) error {
	w, events, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	r.w = w
	var order []*soloSession
	byID := make(map[string]*soloSession)
	for _, ev := range events {
		switch ev.Type {
		case sessEventCreate:
			en := &soloSession{reg: r, id: ev.WS, dataset: ev.Dataset}
			if json.Unmarshal(ev.Data, &en.opts) != nil {
				continue
			}
			byID[ev.WS] = en
			order = append(order, en)
		case sessEventAnswer:
			var ans sessAnswerData
			if en := byID[ev.WS]; en != nil && json.Unmarshal(ev.Data, &ans) == nil {
				en.verdicts = append(en.verdicts, ans)
			}
		case sessEventDelete:
			delete(byID, ev.WS)
		}
	}
	recovered := 0
	for _, en := range order {
		// Skip sessions deleted or re-created later in the log.
		if byID[en.id] != en || !en.rebuild(datasets[en.dataset]) {
			continue
		}
		en.lastUsed = r.now() // the idle clock is not journaled: start afresh
		r.items[en.id] = en
		recovered++
	}
	if recovered > 0 {
		log.Printf("server: recovered %d solo session(s) from the session journal", recovered)
	}
	return nil
}

// rebuild recreates the session on d and applies its verdicts. A verdict
// whose key no longer matches the deterministic suggestion stream drops the
// session.
func (en *soloSession) rebuild(d *Dataset) bool {
	if d == nil {
		log.Printf("server: session %s not recovered: unknown dataset %q", en.id, en.dataset)
		return false
	}
	ctx := context.Background()
	lab, err := darwin.NewSession(d.Engine, d.Name, darwin.Options(en.opts))
	if err != nil {
		log.Printf("server: session %s not recovered: %v", en.id, err)
		return false
	}
	for i, ans := range en.verdicts {
		// Request the next suggestion the way the live client did, then
		// answer it.
		sug, err := lab.Suggest(ctx)
		if err == nil && sug.Key != ans.Key {
			err = fmt.Errorf("suggestion diverged: journal answered %s, replay suggested %s", ans.Key, sug.Key)
		}
		if err == nil {
			_, err = lab.AnswerBatch(ctx, []darwin.Answer{{Key: ans.Key, Accept: ans.Accept}})
		}
		if err != nil {
			log.Printf("server: session %s not recovered: replay answer %d (%s): %v", en.id, i+1, ans.Key, err)
			_ = lab.Close(ctx)
			return false
		}
	}
	en.SessionLabeler = lab
	return true
}

// close flushes and closes the session log (a no-op without a journal).
func (r *sessionRegistry) close() error {
	if r.w == nil {
		return nil
	}
	return r.w.Close()
}

func (en *soloSession) Suggest(ctx context.Context) (darwin.Suggestion, error) {
	start := time.Now()
	sug, err := en.SessionLabeler.Suggest(ctx)
	stepHist.Observe(time.Since(start).Seconds())
	return sug, err
}

// Answer goes through AnswerBatchStatus, so a single verdict is journaled.
func (en *soloSession) Answer(ctx context.Context, ans darwin.Answer) error {
	_, _, err := en.AnswerBatchStatus(ctx, []darwin.Answer{ans})
	return err
}

func (en *soloSession) AnswerBatch(ctx context.Context, answers []darwin.Answer) ([]darwin.RuleRecord, error) {
	recs, _, err := en.AnswerBatchStatus(ctx, answers)
	return recs, err
}

// AnswerBatchStatus applies the batch and journals its applied prefix (even
// on a mid-batch error) in one critical section. A journal failure
// acknowledges none of it.
func (en *soloSession) AnswerBatchStatus(ctx context.Context, answers []darwin.Answer) ([]darwin.RuleRecord, darwin.Status, error) {
	r := en.reg
	defer r.maybeCompact()
	r.gate.RLock()
	defer r.gate.RUnlock()
	if err := r.failure(); err != nil {
		return nil, darwin.Status{}, err
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	recs, st, err := en.SessionLabeler.AnswerBatchStatus(ctx, answers)
	if jerr := r.recordLocked(en, recs); jerr != nil {
		return nil, darwin.Status{}, jerr
	}
	return recs, st, err
}
