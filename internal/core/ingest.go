package core

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/sketch"
)

// This file is the engine's live corpus-growth surface. Ingest appends
// sentences under the index write lock — the same lock every reading step
// (hierarchy generation, traversal, classifier retrains) already holds in
// read mode — so growth needs no new synchronization contract: a published
// corpus prefix is immutable, and anything that observes the new length also
// observes the fully indexed new sentences.

// Ingest appends a batch of sentences to the live corpus and incrementally
// extends the index: each new sentence is preprocessed, its derivation
// sketch merged in, and every ad-hoc (seed-rule) node probed for a match. No
// full rebuild happens; the index version bump invalidates every cached
// hierarchy, so every Loop grows its positive set and scores and regenerates
// against the grown coverage on its next step. It returns the half-open sentence-ID range [from, to) the batch was
// assigned.
//
// Ingested sentences join candidate generation immediately. Two boot-time
// artifacts deliberately do not grow: the embedding model (new tokens fall
// back to bag-of-words features) and the boot-time prune (a heuristic pruned
// at build keeps only the coverage it accumulates from ingested sentences).
// Both approximations vanish on the next full rebuild from the journaled
// corpus.
func (e *Engine) Ingest(batch []ingest.Sentence) (from, to int, err error) {
	e.ixMu.Lock()
	defer e.ixMu.Unlock()
	from = e.corp.Len()
	if len(batch) == 0 {
		return from, from, nil
	}
	for _, rec := range batch {
		if rec.Label != 0 && rec.Label != 1 {
			return from, from, fmt.Errorf("core: ingest: label must be 0 or 1, got %d", rec.Label)
		}
	}
	for _, rec := range batch {
		e.corp.Add(rec.Text, corpus.Label(rec.Label))
	}
	e.corp.PreprocessFrom(from, corpus.PreprocessOptions{Parse: e.cfg.UseParseTrees})
	b := sketch.NewBuilder(e.reg, e.cfg.SketchDepth)
	to = e.corp.Len()
	for id := from; id < to; id++ {
		s := e.corp.Sentence(id)
		e.ix.AddSentence(b.Build(s), s)
	}
	e.ix.BuildEdges()
	e.view.Store(e.corp.View())
	return from, to, nil
}

// CorpusLen returns the length of the published corpus view.
func (e *Engine) CorpusLen() int { return e.CorpusView().Len() }

// BootCorpusLen returns the corpus length at engine construction — the
// prefix loaded from the dataset source rather than ingested.
func (e *Engine) BootCorpusLen() int { return e.bootLen }

// CorpusView returns an immutable snapshot view of the live corpus (see
// corpus.View), as published by the last Ingest (or New). It takes no lock.
// Read paths that run outside the engine locks — suggestion samples,
// exports, labeling jobs, baselines — read the view instead of the live
// corpus so concurrent ingest never races them.
func (e *Engine) CorpusView() *corpus.Corpus { return e.view.Load() }

// ContainerStats reports the array and bitmap container counts of the
// index's per-node coverage sets, under the engine's read lock.
func (e *Engine) ContainerStats() (arrays, bitmaps int) {
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	return e.ix.ContainerStats()
}

// IngestedTail returns the boot corpus length and every sentence ingested
// since boot, in wire form. Journal compaction re-emits the tail as one
// consolidated batch so a truncated journal still reconstructs the grown
// corpus.
func (e *Engine) IngestedTail() (from int, batch []ingest.Sentence) {
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	from = e.bootLen
	n := e.corp.Len()
	if n <= from {
		return from, nil
	}
	batch = make([]ingest.Sentence, 0, n-from)
	for id := from; id < n; id++ {
		s := e.corp.Sentence(id)
		batch = append(batch, ingest.Sentence{Text: s.Text, Label: int(s.Gold)})
	}
	return from, batch
}
