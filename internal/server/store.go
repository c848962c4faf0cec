package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pkg/darwin"
)

// stepHist is the process-wide suggest-step latency histogram. healthz
// derives its steps/last/avg fields from the same histogram /metrics
// serves, so the two surfaces can never disagree.
var stepHist = obs.Default().Histogram("darwin_suggest_step_duration_seconds",
	"Wall-clock latency of the suggest step as seen by the serving handler.",
	obs.LatencyBuckets)

// sessionEntry is one live solo labeler in the store. Serialization of
// concurrent handlers on the same session lives in the SDK adapter
// (darwin.SessionLabeler); distinct sessions proceed in parallel.
type sessionEntry struct {
	id string
	// lab is the labeler the session is served as, built once at create.
	lab      *timedSessionLabeler
	lastUsed time.Time
}

// touch refreshes the entry's idle timer. Callers hold the store lock.
func (en *sessionEntry) touch(now time.Time) { en.lastUsed = now }

// Store is a mutex-guarded registry of live sessions with TTL eviction:
// sessions idle longer than the TTL are dropped on the next sweep (sweeps run
// lazily on create/get and periodically from the janitor). It also aggregates
// step latency across all sessions for the health endpoint.
type Store struct {
	mu    sync.Mutex //darwin:lockrank store
	items map[string]*sessionEntry
	ttl   time.Duration
	max   int
	now   func() time.Time
}

// Default store limits.
const (
	DefaultSessionTTL  = 30 * time.Minute
	DefaultMaxSessions = 1024
)

// NewStore creates a session store. A non-positive ttl or max falls back to
// the defaults.
func NewStore(ttl time.Duration, max int) *Store {
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &Store{
		items: make(map[string]*sessionEntry),
		ttl:   ttl,
		max:   max,
		now:   time.Now,
	}
}

// newSessionID returns a 128-bit random hex ID.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generate session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Create registers a new session labeler, journaled through sj (nil for
// none), and returns its entry. It fails when the store is at capacity even
// after evicting expired sessions.
func (st *Store) Create(lab *darwin.SessionLabeler, sj *sessionJournal) (*sessionEntry, error) {
	id, err := newSessionID()
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	st.sweepLocked(now)
	if len(st.items) >= st.max {
		return nil, fmt.Errorf("server: session limit reached (%d live sessions)", len(st.items))
	}
	en := newSessionEntry(id, lab, sj, now)
	st.items[id] = en
	return en, nil
}

// Restore re-registers a session under its pre-crash id (session-journal
// recovery). The entry gets a fresh idle timer: recovery has no
// record of the original idle clock, and resurrecting a session just to
// expire it instantly would break clients resuming after a restart.
func (st *Store) Restore(id string, lab *darwin.SessionLabeler, sj *sessionJournal) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.items[id] = newSessionEntry(id, lab, sj, st.now())
}

func newSessionEntry(id string, lab *darwin.SessionLabeler, sj *sessionJournal, now time.Time) *sessionEntry {
	return &sessionEntry{id: id, lab: &timedSessionLabeler{SessionLabeler: lab, id: id, sj: sj}, lastUsed: now}
}

// Get returns the live session with the given ID and refreshes its idle
// timer. Expired sessions are treated as absent.
func (st *Store) Get(id string) (*sessionEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	en, ok := st.items[id]
	if !ok {
		return nil, false
	}
	now := st.now()
	if now.Sub(en.lastUsed) > st.ttl {
		delete(st.items, id)
		return nil, false
	}
	en.touch(now)
	return en, true
}

// Peek returns the live session with the given ID without refreshing its
// idle timer: read-only listings and status polls must not keep abandoned
// sessions alive.
func (st *Store) Peek(id string) (*sessionEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	en, ok := st.items[id]
	if !ok || st.now().Sub(en.lastUsed) > st.ttl {
		return nil, false
	}
	return en, true
}

// HasCapacity reports whether the store can take another session after
// evicting expired ones. It is a cheap pre-check: callers still race other
// creators, and Create re-checks under the same lock.
func (st *Store) HasCapacity() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(st.now())
	return len(st.items) < st.max
}

// Delete removes a session, reporting whether it existed.
func (st *Store) Delete(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.items[id]
	delete(st.items, id)
	return ok
}

// Len returns the number of live (possibly expired, not yet swept) sessions.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.items)
}

// IDs returns the live session IDs, sorted (the /v2 listing pages over
// them).
func (st *Store) IDs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.items))
	for id := range st.items {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// StepStats returns the number of suggest steps served and their last/average
// latency (zero before the first step). The numbers come from the same
// histogram /metrics renders.
func (st *Store) StepStats() (count int64, last, avg time.Duration) {
	n := stepHist.Count()
	if n > 0 {
		avg = time.Duration(stepHist.Sum() / float64(n) * float64(time.Second))
	}
	return int64(n), time.Duration(stepHist.Last() * float64(time.Second)), avg
}

// Sweep evicts all sessions idle longer than the TTL and returns how many
// were removed.
func (st *Store) Sweep() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sweepLocked(st.now())
}

func (st *Store) sweepLocked(now time.Time) int {
	n := 0
	for id, en := range st.items {
		if now.Sub(en.lastUsed) > st.ttl {
			delete(st.items, id)
			n++
		}
	}
	return n
}

// Janitor sweeps the store every interval until stop is closed. Run it in a
// goroutine: go store.Janitor(time.Minute, stopCh).
func (st *Store) Janitor(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			st.Sweep()
		case <-stop:
			return
		}
	}
}
