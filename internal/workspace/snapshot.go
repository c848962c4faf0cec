package workspace

import (
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/index"
)

// Snapshot is the full serialized state of a workspace, written into the
// journal by compaction. Because every derived RNG is seeded from
// (Seed, EventSeq) rather than from an evolving stream, restoring a
// snapshot resumes the exact deterministic event stream a full replay would
// produce: scores round-trip exactly through JSON (encoding/json emits
// shortest-round-trip float64), and the classifier model itself need not be
// captured — Restore refits it as a pure function of
// (positives, seed, LastRetrainSeq), reproducing the live model exactly.
type Snapshot struct {
	ID        string   `json:"id"`
	Dataset   string   `json:"dataset"`
	Seed      int64    `json:"seed"`
	Budget    int      `json:"budget"`
	CorpusLen int      `json:"corpus_len"`
	SeedRules []string `json:"seed_rules,omitempty"`

	// HierarchyGenerations is deliberately absent: it counts regenerations
	// performed by this process (a restored workspace regenerates its cache
	// on first use), so it is diagnostics, not logical state.
	EventSeq  uint64 `json:"event_seq"`
	Retrains  int    `json:"retrains"`
	Questions int    `json:"questions"`
	// LastRetrainSeq is the event sequence the last retrain was seeded with;
	// Restore replays that one training step so the recovered classifier is
	// the same fitted model (and Trained() flag) the live workspace had.
	LastRetrainSeq uint64 `json:"last_retrain_seq"`

	Positives []int     `json:"positives"`
	Queried   []string  `json:"queried"`
	Scores    []float64 `json:"scores"`

	Accepted []Record `json:"accepted,omitempty"`
	History  []Record `json:"history,omitempty"`

	Annotators []AnnotatorSnapshot `json:"annotators,omitempty"`
}

// AnnotatorSnapshot is one attached annotator's state, in attach order.
type AnnotatorSnapshot struct {
	Name      string      `json:"name"`
	Questions int         `json:"questions"`
	Accepts   int         `json:"accepts"`
	Pending   *Suggestion `json:"pending,omitempty"`
}

// Snapshot captures the workspace's full state.
func (ws *Workspace) Snapshot() *Snapshot {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	st := ws.loop.State()
	snap := &Snapshot{
		ID:             ws.id,
		Dataset:        ws.dataset,
		Seed:           ws.seed,
		Budget:         ws.budget,
		CorpusLen:      len(st.Scores),
		SeedRules:      append([]string(nil), ws.seedRules...),
		EventSeq:       ws.eventSeq,
		Retrains:       st.Retrains,
		Questions:      ws.questions,
		LastRetrainSeq: ws.lastRetrainSeq,
		Positives:      st.Positives,
		Queried:        st.Queried,
		Scores:         st.Scores,
		Accepted:       append([]Record(nil), ws.accepted...),
		History:        append([]Record(nil), ws.history...),
	}
	for _, name := range ws.annOrder {
		an := ws.annotators[name]
		as := AnnotatorSnapshot{Name: an.name, Questions: an.questions, Accepts: an.accepts}
		if an.pending != nil {
			p := *an.pending
			as.Pending = &p
		}
		snap.Annotators = append(snap.Annotators, as)
	}
	return snap
}

// Restore reconstructs a workspace from a snapshot. Seed rules are
// re-materialized in the shared index (a no-op when the journal's
// materialize events already replayed them); pending suggestions resolve
// their coverage from the index, which is immutable for materialized keys.
func Restore(eng *core.Engine, snap *Snapshot, log LogFunc) (*Workspace, error) {
	// The corpus may be longer than the snapshot saw (sentences ingested
	// after the snapshot, or a compacted journal replaying ingest events
	// before the snapshot record); the loop grows to it on its first view
	// or refit. Shorter means the dataset was rebuilt differently.
	if n := eng.CorpusLen(); n < snap.CorpusLen {
		return nil, fmt.Errorf("workspace: snapshot %s was taken over a corpus of %d sentences, engine has %d (dataset rebuilt differently?)", snap.ID, snap.CorpusLen, n)
	}
	if len(snap.Scores) != snap.CorpusLen {
		return nil, fmt.Errorf("workspace: snapshot %s has %d scores for %d sentences", snap.ID, len(snap.Scores), snap.CorpusLen)
	}
	for _, id := range snap.Positives {
		if id < 0 || id >= snap.CorpusLen {
			return nil, fmt.Errorf("workspace: snapshot %s has out-of-range positive %d", snap.ID, id)
		}
	}
	loop, err := eng.RestoreLoop(snap.Seed, snap.SeedRules, core.LoopState{
		Positives: snap.Positives,
		Queried:   snap.Queried,
		Scores:    snap.Scores,
		Retrains:  snap.Retrains,
	})
	if err != nil {
		return nil, fmt.Errorf("workspace: snapshot %s: %w", snap.ID, err)
	}
	ws := &Workspace{
		eng:            eng,
		log:            log,
		id:             snap.ID,
		dataset:        snap.Dataset,
		seed:           snap.Seed,
		budget:         snap.Budget,
		seedRules:      append([]string(nil), snap.SeedRules...),
		loop:           loop,
		lastRetrainSeq: snap.LastRetrainSeq,
		eventSeq:       snap.EventSeq,
		questions:      snap.Questions,
		accepted:       append([]Record(nil), snap.Accepted...),
		history:        append([]Record(nil), snap.History...),
		annotators:     make(map[string]*annotator, len(snap.Annotators)),
	}
	var resolveErr error
	for _, as := range snap.Annotators {
		// lastSeen restarts at restore time: idleness is process-local, and
		// a just-recovered (or just-promoted) attachment must get a full TTL
		// window before the sweep may reclaim it.
		an := &annotator{name: as.Name, questions: as.Questions, accepts: as.Accepts, lastSeen: time.Now()}
		if as.Pending != nil {
			p := *as.Pending
			an.pending = &p
			var cov bitset.Cover
			eng.WithIndexRead(func(ix *index.Index) {
				if cov = ix.Bits(p.Key); cov != nil {
					an.pendingCov = cov.AppendTo(nil)
				}
			})
			if cov == nil {
				resolveErr = fmt.Errorf("workspace: snapshot %s: pending rule %q is not in the index", snap.ID, p.Key)
			}
		}
		ws.annotators[as.Name] = an
		ws.annOrder = append(ws.annOrder, as.Name)
	}
	if resolveErr != nil {
		return nil, resolveErr
	}
	// Refit the classifier the live workspace had: the last retrain was a
	// pure function of (positives, seed, lastRetrainSeq), and P only changes
	// on the accepts that trigger retrains, so replaying that one training
	// step reproduces the exact model. Without this a restored workspace
	// reported scores while Trained() stayed false until the next accept.
	// The restored score vector stays authoritative — no rescoring here.
	if snap.Retrains > 0 {
		loop.Classifier().Reseed(mix(snap.Seed, snap.LastRetrainSeq))
		if err := loop.Fit(); err != nil {
			return nil, fmt.Errorf("workspace: snapshot %s: refit classifier: %w", snap.ID, err)
		}
	}
	ws.publishStatsLocked()
	return ws, nil
}
