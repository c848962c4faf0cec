package core

import (
	"sync"

	"repro/internal/corpus"
)

// recordHeads caches the head {"id":N,"text":"…" of every sentence's
// labeled-record JSONL line (corpus.AppendRecordHead), so a labeling job
// copies each head instead of escaping the sentence text again on every
// job. The heads sit back to back in one append-only arena: head i is
// buf[ends[i-1]:ends[i]] (with ends[-1] = 0).
//
// The arena lives next to the feature cache because, like it, it is a pure
// function of the corpus: it is shared by every job against the engine and
// is dropped with the engine, so a job over an uploaded corpus (which runs on
// a throwaway streaming engine) leaves nothing behind. It is built lazily on
// the first job, never at boot, and extended when ingest has grown the
// corpus view beyond it. Its memory is about the size of a job's output
// without the label and probability fields, plus one int per sentence:
// about 0.9 MB for directions at scale 1.0 (15,300 sentences).
type recordHeads struct {
	// mu serializes extensions. Readers hold prefixes of buf and ends that
	// later extensions never write, so they read without it.
	//darwin:lockrank heads
	mu   sync.Mutex
	buf  []byte
	ends []int
}

// RecordHeads returns the labeled-record heads of the first view.Len()
// sentences of the engine's corpus: for i < view.Len(), head i is
// buf[ends[i-1]:ends[i]] (starting at 0 for i = 0). view must be a view of
// this engine's corpus (CorpusView). The returned slices are shared and must
// not be modified; they stay valid while the arena grows.
func (e *Engine) RecordHeads(view *corpus.Corpus) (buf []byte, ends []int) {
	h := &e.heads
	n := view.Len()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := len(h.ends); i < n; i++ {
		s := view.Sentences[i]
		h.buf = corpus.AppendRecordHead(h.buf, s.ID, s.Text)
		h.ends = append(h.ends, len(h.buf))
	}
	ends = h.ends[:n:n]
	if n == 0 {
		return nil, ends
	}
	return h.buf[:ends[n-1]:ends[n-1]], ends
}
