package workspace

import (
	"encoding/json"
	"fmt"

	"repro/internal/journal"
)

// Replayer applies journal events to a manager incrementally, through the
// same apply methods that serve live traffic. Manager.Recover wraps one in a
// single pass over a recovered log; replication followers (internal/
// replicate) keep one open for the lifetime of a warm standby and feed it
// streamed batches as the primary ships them.
//
// While a Replayer is open the manager suppresses journaling and TTL
// side effects (recovering mode), so a standby manager must be dedicated to
// replay — it cannot serve live traffic at the same time. Apply is not safe
// for concurrent use.
type Replayer struct {
	m      *Manager
	events int
	broken map[string]string
	// diverged maps a dataset whose journaled engine fingerprint differs
	// from its serving engine's to the reason every workspace on it fails.
	diverged map[string]string
}

// NewReplayer puts the manager into recovering mode and returns a replayer
// over it. Call Close to leave recovering mode.
func (m *Manager) NewReplayer() *Replayer {
	m.recovering.Store(true)
	return &Replayer{m: m, broken: make(map[string]string), diverged: make(map[string]string)}
}

// Close leaves recovering mode. The replayer must not be used afterwards.
func (r *Replayer) Close() {
	r.m.recovering.Store(false)
}

// Stats summarizes what has been applied so far.
func (r *Replayer) Stats() RecoveryStats {
	stats := RecoveryStats{Events: r.events, Skipped: make(map[string]string, len(r.broken))}
	for id, reason := range r.broken {
		stats.Skipped[id] = reason
	}
	r.m.mu.Lock()
	stats.Workspaces = len(r.m.items)
	r.m.mu.Unlock()
	return stats
}

// fail marks a workspace unrecoverable and drops any partial reconstruction.
func (r *Replayer) fail(id, format string, args ...any) {
	r.broken[id] = fmt.Sprintf(format, args...)
	r.m.mu.Lock()
	delete(r.m.items, id)
	r.m.mu.Unlock()
}

func decodeEvent(raw json.RawMessage, v any) bool {
	return json.Unmarshal(raw, v) == nil
}

// Apply replays one journal event. Events for workspaces already marked
// broken are skipped; unknown event types are ignored (forward
// compatibility: an older binary replaying a newer journal drops what it
// does not understand rather than failing recovery).
//
//darwin:replaypure
func (r *Replayer) Apply(ev journal.Event) {
	m := r.m
	r.events++
	switch ev.Type {
	case evMaterialize:
		var d materializeData
		eng, ok := m.engines[ev.Dataset]
		if !ok || !decodeEvent(ev.Data, &d) {
			return
		}
		for _, spec := range d.Specs {
			eng.MaterializeRule(spec)
		}
		m.matMu.Lock()
		m.recordMaterializedLocked(ev.Dataset, d.Specs)
		m.matMu.Unlock()
	case evIngest:
		var d ingestData
		eng, ok := m.engines[ev.Dataset]
		if !ok || !decodeEvent(ev.Data, &d) {
			return
		}
		// From pins where the batch was applied: a mismatch means the batch
		// already replayed (duplicate delivery after a crash or replication
		// retry) or the dataset was rebuilt differently; either way skipping
		// is the safe idempotent choice.
		if eng.Corpus().Len() != d.From {
			return
		}
		eng.Ingest(d.Sentences)
	case evEngine:
		var d engineData
		eng, ok := m.engines[ev.Dataset]
		if !ok || !decodeEvent(ev.Data, &d) {
			return
		}
		match := d.Fingerprint == eng.Fingerprint()
		// After a foreign fingerprint the journal must get this engine's
		// own before the next create on the dataset; a later match (that
		// create's) ends the divergence.
		m.matMu.Lock()
		m.engSeen[ev.Dataset] = match
		m.matMu.Unlock()
		if match {
			delete(r.diverged, ev.Dataset)
			return
		}
		reason := fmt.Sprintf("replay diverged: engine fingerprint is %s, journal says %s (engine rebuilt differently?)", eng.Fingerprint(), d.Fingerprint)
		r.diverged[ev.Dataset] = reason
		for _, id := range m.IDsByDataset(ev.Dataset) {
			r.fail(id, "%s", reason)
		}
	case evFence:
		var d fenceData
		if decodeEvent(ev.Data, &d) {
			m.recordFence(ev.Dataset, d.Epoch)
		}
	case evCreate:
		if _, bad := r.broken[ev.WS]; bad {
			return
		}
		var d createData
		if !decodeEvent(ev.Data, &d) {
			r.fail(ev.WS, "corrupt create event")
			return
		}
		eng, ok := m.engines[d.Dataset]
		if !ok {
			r.fail(ev.WS, "dataset %q is not served", d.Dataset)
			return
		}
		if reason, bad := r.diverged[d.Dataset]; bad {
			r.fail(ev.WS, "%s", reason)
			return
		}
		if eng.Corpus().Len() != d.CorpusLen {
			r.fail(ev.WS, "corpus has %d sentences, workspace was created over %d", eng.Corpus().Len(), d.CorpusLen)
			return
		}
		ws, err := New(eng, ev.WS, d.Dataset, d.Options, m.logFor(ev.WS))
		if err != nil {
			r.fail(ev.WS, "replay create: %v", err)
			return
		}
		m.mu.Lock()
		m.items[ev.WS] = &entry{ws: ws, lastUsed: m.now()}
		m.mu.Unlock()
	case evSnapshot:
		var snap Snapshot
		if !decodeEvent(ev.Data, &snap) {
			r.fail(ev.WS, "corrupt snapshot event")
			return
		}
		eng, ok := m.engines[snap.Dataset]
		if !ok {
			r.fail(ev.WS, "dataset %q is not served", snap.Dataset)
			return
		}
		if reason, bad := r.diverged[snap.Dataset]; bad {
			r.fail(ev.WS, "%s", reason)
			return
		}
		ws, err := Restore(eng, &snap, m.logFor(ev.WS))
		if err != nil {
			r.fail(ev.WS, "restore snapshot: %v", err)
			return
		}
		delete(r.broken, ev.WS) // the snapshot is authoritative
		m.mu.Lock()
		m.items[ev.WS] = &entry{ws: ws, lastUsed: m.now()}
		m.mu.Unlock()
	case evAttach:
		var d attachData
		if ws, ok := m.replayTarget(ev.WS, ev.Data, &d, r.broken); ok {
			if err := ws.Attach(d.Annotator); err != nil {
				r.fail(ev.WS, "replay attach: %v", err)
			}
		}
	case evDetach:
		var d detachData
		if ws, ok := m.replayTarget(ev.WS, ev.Data, &d, r.broken); ok {
			if err := ws.Detach(d.Annotator); err != nil {
				r.fail(ev.WS, "replay detach: %v", err)
			}
		}
	case evSuggest:
		var d suggestData
		if ws, ok := m.replayTarget(ev.WS, ev.Data, &d, r.broken); ok {
			if err := ws.assignJournaled(d.Annotator, d.Key); err != nil {
				r.fail(ev.WS, "replay suggest: %v", err)
			}
		}
	case evAnswer:
		var d answerData
		if ws, ok := m.replayTarget(ev.WS, ev.Data, &d, r.broken); ok {
			if _, err := ws.Answer(d.Annotator, d.Key, d.Accept); err != nil {
				r.fail(ev.WS, "replay answer: %v", err)
			}
		}
	case evEvict:
		m.mu.Lock()
		delete(m.items, ev.WS)
		m.mu.Unlock()
		delete(r.broken, ev.WS)
	}
}
