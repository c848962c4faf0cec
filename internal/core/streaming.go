package core

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/ingest"
)

// Config returns a copy of the engine's configuration, so a derived engine
// (e.g. a streaming engine over an uploaded corpus) labels under the same
// grammars and seeds as the dataset it belongs to.
func (e *Engine) Config() Config { return e.cfg }

// NewStreaming prepares a restricted engine over an uploaded corpus for
// batch labeling: the corpus is preprocessed and the grammar registry is
// live, but no embeddings are trained and no candidate index is built —
// rule coverage resolves through the CoverageBits corpus-scan fallback, so
// construction is O(preprocess) instead of O(index build). The result
// supports exactly the batch pipeline surface (ParseRule, CoverageBits,
// CorpusView, CorpusLen); interactive discovery (sessions) needs the full
// New constructor.
func NewStreaming(c *corpus.Corpus, cfg Config) (*Engine, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	cfg, reg := cfg.withDefaults()
	c.Preprocess(corpus.PreprocessOptions{Parse: cfg.UseParseTrees})

	ix := index.New()
	e := &Engine{cfg: cfg, corp: c, reg: reg, ix: ix, bootLen: c.Len()}
	e.view.Store(c.View())
	return e, nil
}

// NewStreamingFromBatch builds a streaming engine directly from decoded wire
// sentences (the ingest JSONL shape). The corpus is a pure function of the
// batch, so two engines built from the same batch label identically.
func NewStreamingFromBatch(name string, batch []ingest.Sentence, cfg Config) (*Engine, error) {
	c := corpus.New(name, "uploaded corpus")
	for _, rec := range batch {
		if rec.Label != 0 && rec.Label != 1 {
			return nil, fmt.Errorf("core: uploaded sentence label must be 0 or 1, got %d", rec.Label)
		}
		c.Add(rec.Text, corpus.Label(rec.Label))
	}
	return NewStreaming(c, cfg)
}
