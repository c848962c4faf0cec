package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sync"

	"repro/internal/journal"
	"repro/pkg/darwin"
)

// Session journaling (on whenever Config.JournalPath is set): plain solo
// sessions get the same log-then-replay durability workspaces have, in a
// separate "<JournalPath>.sessions" log so workspace compaction never
// rewrites session history. A session's state is a pure function of
// (engine, create options, answer sequence) — suggestions are deterministic
// per seed — so replaying create + answers through the ordinary SDK calls
// reconstructs the exact pre-crash labeler. Recovered sessions keep their ids but get fresh
// idle timers; a session whose replay diverges (e.g. the dataset changed
// under it) is dropped with a log line rather than served in a wrong state.
// The log is not replicated: sessions are shard-local by design.
//
// An append failure is sticky, as it is for workspaces: from then on every
// session create, answer and delete fails with darwin.ErrUnavailable (503)
// instead of acknowledging a change the log does not hold.

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

// sessionJournal appends session lifecycle events and keeps the in-memory
// shadow (creates + answers per live session) that compaction rewrites the
// log from.
type sessionJournal struct {
	srv *Server
	w   *journal.Writer

	mu sync.Mutex
	// err is the first append failure; once set, nothing more is appended.
	err     error
	creates map[string]sessCreateData
	answers map[string][]sessAnswerData
	dataset map[string]string
}

// openSessionJournal opens the session log, replays it into the server's
// session store, and returns the live journal.
func openSessionJournal(path string, s *Server) (*sessionJournal, error) {
	w, events, err := journal.Open(path, journal.Options{})
	if err != nil {
		return nil, err
	}
	sj := &sessionJournal{
		srv:     s,
		w:       w,
		creates: make(map[string]sessCreateData),
		answers: make(map[string][]sessAnswerData),
		dataset: make(map[string]string),
	}
	sj.replay(events)
	return sj, nil
}

// replay reconstructs sessions from the log: apply creates and answers in
// file order, drop deleted sessions, then rebuild each survivor through the
// ordinary SDK calls.
func (sj *sessionJournal) replay(events []journal.Event) {
	var order []string
	for _, ev := range events {
		switch ev.Type {
		case sessEventCreate:
			var data sessCreateData
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				continue
			}
			if _, dup := sj.creates[ev.WS]; !dup {
				order = append(order, ev.WS)
			}
			sj.creates[ev.WS] = data
			sj.dataset[ev.WS] = ev.Dataset
			sj.answers[ev.WS] = nil
		case sessEventAnswer:
			var data sessAnswerData
			if err := json.Unmarshal(ev.Data, &data); err != nil {
				continue
			}
			if _, ok := sj.creates[ev.WS]; ok {
				sj.answers[ev.WS] = append(sj.answers[ev.WS], data)
			}
		case sessEventDelete:
			delete(sj.creates, ev.WS)
			delete(sj.answers, ev.WS)
			delete(sj.dataset, ev.WS)
		}
	}
	ctx := context.Background()
	recovered := 0
	for _, id := range order {
		data, ok := sj.creates[id]
		if !ok {
			continue // deleted later in the log
		}
		if !sj.rebuild(ctx, id, sj.dataset[id], data, sj.answers[id]) {
			delete(sj.creates, id)
			delete(sj.answers, id)
			delete(sj.dataset, id)
			continue
		}
		recovered++
	}
	if recovered > 0 {
		log.Printf("server: recovered %d solo session(s) from the session journal", recovered)
	}
}

// rebuild replays one session: create with the journaled options, then apply
// the answer sequence. Divergence (an answer whose key no longer matches the
// deterministic suggestion stream) drops the session.
func (sj *sessionJournal) rebuild(ctx context.Context, id, dataset string, data sessCreateData, answers []sessAnswerData) bool {
	d, ok := sj.srv.datasets[dataset]
	if !ok {
		log.Printf("server: session %s not recovered: unknown dataset %q", id, dataset)
		return false
	}
	lab, err := darwin.NewSession(d.Engine, d.Name, darwin.Options{
		SeedRules:       data.SeedRules,
		SeedPositiveIDs: data.SeedPositiveIDs,
		Budget:          data.Budget,
		Seed:            data.Seed,
	})
	if err != nil {
		log.Printf("server: session %s not recovered: %v", id, err)
		return false
	}
	for i, ans := range answers {
		// Request the next suggestion the way the live client did, then
		// answer it. The suggestion stream is deterministic per seed, so a
		// key mismatch means the corpus or engine changed under the journal —
		// divergence, not a replay ordering problem.
		sug, err := lab.Suggest(ctx)
		if err == nil && sug.Key != ans.Key {
			err = fmt.Errorf("suggestion diverged: journal answered %s, replay suggested %s", ans.Key, sug.Key)
		}
		if err == nil {
			_, err = lab.AnswerBatch(ctx, []darwin.Answer{{Key: ans.Key, Accept: ans.Accept}})
		}
		if err != nil {
			log.Printf("server: session %s not recovered: replay answer %d (%s): %v", id, i+1, ans.Key, err)
			_ = lab.Close(ctx)
			return false
		}
	}
	sj.srv.store.Restore(id, lab, sj)
	return true
}

// failure returns the sticky append failure as a darwin.ErrUnavailable
// error, or nil. A nil journal (journaling off) never fails.
func (sj *sessionJournal) failure() error {
	if sj == nil {
		return nil
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.failureLocked()
}

// failureLocked is failure for callers that hold sj.mu.
func (sj *sessionJournal) failureLocked() error {
	if sj.err == nil {
		return nil
	}
	return fmt.Errorf("%w: session journal write failed (restart the server to recover the journaled state): %v", darwin.ErrUnavailable, sj.err)
}

// appendLocked journals one event unless an earlier append failed, keeping
// the first failure sticky. Callers hold sj.mu.
func (sj *sessionJournal) appendLocked(typ, id, dataset string, data any) error {
	if sj.err == nil {
		if _, err := sj.w.Append(typ, id, dataset, data); err != nil {
			sj.err = err
		}
	}
	return sj.failureLocked()
}

// recordCreate journals a session create with its resolved options. A nil
// journal records nothing.
func (sj *sessionJournal) recordCreate(id, dataset string, data sessCreateData) error {
	if sj == nil {
		return nil
	}
	sj.mu.Lock()
	err := sj.appendLocked(sessEventCreate, id, dataset, data)
	if err == nil {
		sj.creates[id] = data
		sj.answers[id] = nil
		sj.dataset[id] = dataset
	}
	sj.mu.Unlock()
	if err == nil {
		sj.maybeCompact()
	}
	return err
}

// recordAnswers journals the applied records of one answer call (in apply
// order, with resolved keys). A nil journal records nothing.
func (sj *sessionJournal) recordAnswers(id string, recs []darwin.RuleRecord) error {
	if sj == nil || len(recs) == 0 {
		return nil
	}
	sj.mu.Lock()
	var err error
	if _, known := sj.creates[id]; known {
		for _, rec := range recs {
			ans := sessAnswerData{Key: rec.Key, Accept: rec.Accepted}
			if err = sj.appendLocked(sessEventAnswer, id, "", ans); err != nil {
				break
			}
			sj.answers[id] = append(sj.answers[id], ans)
		}
	}
	sj.mu.Unlock()
	if err == nil {
		sj.maybeCompact()
	}
	return err
}

// recordDelete journals a session delete. A nil journal records nothing.
func (sj *sessionJournal) recordDelete(id string) error {
	if sj == nil {
		return nil
	}
	sj.mu.Lock()
	_, known := sj.creates[id]
	var err error
	if known {
		if err = sj.appendLocked(sessEventDelete, id, "", nil); err == nil {
			delete(sj.creates, id)
			delete(sj.answers, id)
			delete(sj.dataset, id)
		}
	}
	sj.mu.Unlock()
	if err == nil {
		sj.maybeCompact()
	}
	return err
}

// maybeCompact rewrites the log from the in-memory shadow once enough
// appends accumulated, keeping only sessions still live in the store (TTL
// eviction is not journaled, so compaction is where expired sessions fall
// out of the log, and out of the shadow). It holds sj.mu through the
// rewrite: an append that landed between capturing the shadow and the
// rewrite would go to the file the rewrite replaces.
func (sj *sessionJournal) maybeCompact() {
	if sj.w.SinceRewrite() < sessCompactEvery {
		return
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.w.SinceRewrite() < sessCompactEvery {
		return // compacted while this caller waited for the lock
	}
	var events []journal.Event
	for id, data := range sj.creates {
		if _, live := sj.srv.store.Peek(id); !live {
			delete(sj.creates, id)
			delete(sj.answers, id)
			delete(sj.dataset, id)
			continue
		}
		raw, err := json.Marshal(data)
		if err != nil {
			continue
		}
		events = append(events, journal.Event{Type: sessEventCreate, WS: id, Dataset: sj.dataset[id], Data: raw})
		for _, ans := range sj.answers[id] {
			araw, err := json.Marshal(ans)
			if err != nil {
				continue
			}
			events = append(events, journal.Event{Type: sessEventAnswer, WS: id, Data: araw})
		}
	}
	if err := sj.w.Rewrite(events); err != nil {
		log.Printf("server: session journal compact: %v", err)
	}
}

// Close flushes and closes the session log.
func (sj *sessionJournal) Close() error { return sj.w.Close() }
