package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/sketch"
)

// RuleRecord describes one oracle interaction (or seed rule) of a run.
type RuleRecord struct {
	// Question is the 1-based question number (0 for seed rules, which do
	// not consume budget).
	Question int
	// Key and Rule identify the heuristic.
	Key  string
	Rule string
	// Coverage is |C_r|.
	Coverage int
	// Accepted is the oracle's answer.
	Accepted bool
	// CoverageIDs is the full coverage set C_r of accepted rules (nil for
	// rejected rules, to keep reports small).
	CoverageIDs []int
	// AddedIDs are the sentence IDs newly added to P by this rule (empty for
	// rejected rules).
	AddedIDs []int
	// PositivesAfter is |P| after processing this record.
	PositivesAfter int
}

// Report is the result of one Darwin run.
type Report struct {
	// Accepted lists the accepted rules in acceptance order (seeds included).
	Accepted []RuleRecord
	// History lists every oracle query in order (seeds excluded).
	History []RuleRecord
	// Positives is the final discovered positive set P, a snapshot derived
	// from the session's bitset.
	Positives map[int]bool
	// Questions is the number of oracle queries spent.
	Questions int
	// IndexBuild and Total are wall-clock timings of the run.
	IndexBuild time.Duration
	Total      time.Duration
}

// AcceptedRuleStrings returns the accepted rules as display strings.
func (r *Report) AcceptedRuleStrings() []string {
	out := make([]string, len(r.Accepted))
	for i, rec := range r.Accepted {
		out[i] = rec.Rule
	}
	return out
}

// PositiveIDs returns the discovered positive set as a sorted slice.
func (r *Report) PositiveIDs() []int {
	out := make([]int, 0, len(r.Positives))
	for id := range r.Positives {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Engine is a Darwin instance bound to one corpus. It holds only shared
// data: the corpus, grammar registry, embedding model, heuristic index and
// the corpus-level feature cache. Every run of Algorithm 1 keeps its own
// mutable state in a Loop — a Session holds one, and so does each
// multi-annotator workspace.
//
// # Goroutine safety
//
// After New returns, the corpus, grammar registry, embedding model and index
// are treated as immutable shared state, with two exceptions: materializing
// an ad-hoc seed rule inserts a node into the index, and Ingest grows the
// corpus. Both mutations take ixMu for writing, and every index-reading
// step takes it for reading, so these methods are safe for concurrent use:
//
//   - NewSession, NewLoop, RestoreLoop, and all methods of distinct
//     Sessions and Loops
//   - MaterializeRule, CoverageBits, Ingest
//   - ParseRule, Corpus, Index, Registry (but mutating methods of the
//     returned Index — EnsureHeuristic, Prune, Merge — must never be called
//     while sessions are live; use MaterializeRule instead)
//
// A single Session or Loop is owned by one caller at a time.
type Engine struct {
	cfg  Config
	corp *corpus.Corpus
	reg  *grammar.Registry
	ix   *index.Index
	emb  *embedding.Model
	// featCache is the corpus-wide sparse feature cache shared by every
	// session's classifier (features depend only on the immutable corpus and
	// embedding model, and the cache is safe for concurrent use).
	featCache *classifier.FeatureCache
	// heads caches the labeled-record heads labeling jobs write, built on
	// the first job (see RecordHeads).
	heads recordHeads

	// ixMu guards the index and the corpus against their post-build
	// mutations (seed-rule materialization, ingest) racing hierarchy
	// generation, traversal and classifier reads in concurrent loops.
	//darwin:lockrank index
	ixMu sync.RWMutex
	// view is the published corpus snapshot CorpusView hands out. The
	// constructors store it, and Ingest replaces it under the write lock
	// once the sentences it covers are fully preprocessed and indexed.
	view atomic.Pointer[corpus.Corpus]
	// matHook, when set, observes seed-rule materializations under the index
	// write lock (see SetMaterializeHook).
	matHook func(specs []string)

	indexBuild time.Duration

	// bootLen is the corpus length at engine construction. The journal
	// compaction path uses it to re-emit the ingested tail [bootLen, Len) as
	// one consolidated batch.
	bootLen int
	// fingerprint identifies what the engine was built from (see
	// Fingerprint).
	fingerprint string
}

// New prepares a Darwin engine: it preprocesses the corpus, trains word
// embeddings, and builds and prunes the index.
func New(c *corpus.Corpus, cfg Config) (*Engine, error) {
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	cfg, reg := cfg.withDefaults()

	c.Preprocess(corpus.PreprocessOptions{Parse: cfg.UseParseTrees})

	var emb *embedding.Model
	if cfg.Embedding.Dim > 0 {
		embCfg := cfg.Embedding
		if embCfg.Seed == 0 {
			embCfg.Seed = cfg.Seed
		}
		emb = embedding.Train(c.TokenizedSentences(), embCfg)
	}

	start := time.Now()
	builder := sketch.NewBuilder(reg, cfg.SketchDepth)
	ix := index.Build(c, builder)
	ix.Prune(cfg.MinRuleCoverage)
	indexBuild := time.Since(start)

	e := &Engine{
		cfg:        cfg,
		corp:       c,
		reg:        reg,
		ix:         ix,
		emb:        emb,
		featCache:  classifier.NewFeatureCacheCapped(c.Len(), cfg.FeatureCacheCap),
		indexBuild: indexBuild,
		bootLen:    c.Len(),
	}
	e.fingerprint = fingerprint(cfg, reg, c, ix)
	e.view.Store(c.View())
	return e, nil
}

// Fingerprint identifies what the engine was built from: the configuration
// that shapes its output (grammars, sketch and rule depths, candidate count,
// coverage floor, classifier, embedding, scoring and sample settings, seed),
// the text of every boot sentence, and the size of the pruned index. Two
// engines with equal fingerprints rank, sample and score a replayed event
// sequence identically, which is what lets a journal be replayed by key; a
// journal written by an engine with another fingerprint cannot be. Ingested
// sentences and materialized rules are journaled, so they are left out.
func (e *Engine) Fingerprint() string { return e.fingerprint }

// fingerprint computes Fingerprint for a freshly built engine.
func fingerprint(cfg Config, reg *grammar.Registry, c *corpus.Corpus, ix *index.Index) string {
	h := sha256.New()
	for _, g := range reg.Grammars() {
		fmt.Fprintf(h, "grammar %q\n", g.Name())
	}
	fmt.Fprintf(h, "parse %v sketch %d depth %d candidates %d mincov %d\n",
		cfg.UseParseTrees, cfg.SketchDepth, cfg.MaxRuleDepth, cfg.NumCandidates, cfg.MinRuleCoverage)
	fmt.Fprintf(h, "classifier %+v embedding %+v lazy %v %v samples %d seed %d\n",
		cfg.Classifier, cfg.Embedding, cfg.LazyScoring, cfg.LazyScoreThreshold, cfg.OracleSampleSize, cfg.Seed)
	fmt.Fprintf(h, "sentences %d\n", c.Len())
	for _, s := range c.Sentences {
		fmt.Fprintf(h, "%d:%s\n", len(s.Text), s.Text)
	}
	fmt.Fprintf(h, "index %d\n", ix.Len())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Corpus returns the engine's corpus.
func (e *Engine) Corpus() *corpus.Corpus { return e.corp }

// Index returns the engine's heuristic index.
func (e *Engine) Index() *index.Index { return e.ix }

// Registry returns the engine's grammar registry.
func (e *Engine) Registry() *grammar.Registry { return e.reg }

// ParseRule parses a textual rule specification using the engine's grammars.
func (e *Engine) ParseRule(spec string) (grammar.Heuristic, error) {
	return e.reg.Parse(spec)
}

// MaterializeRule parses a rule specification, materializes it in the shared
// index under the engine's write lock, and returns its key and coverage (a
// copy). It is the concurrency-safe way to resolve an ad-hoc rule's coverage
// — e.g. to seed a workspace's positive set — without going through
// Index().EnsureHeuristic, which must not be called while sessions are
// stepping.
func (e *Engine) MaterializeRule(spec string) (string, []int, error) {
	h, err := e.reg.Parse(spec)
	if err != nil {
		return "", nil, fmt.Errorf("core: rule %q: %w", spec, err)
	}
	e.ixMu.Lock()
	node := e.materializeLocked([]grammar.Heuristic{h}, []string{spec})[0]
	e.ixMu.Unlock()
	return h.Key(), node.Bits().AppendTo(nil), nil
}

// CoverageBits resolves a rule specification to its canonical key and full
// corpus coverage set, without mutating the shared index. When the index
// already holds the rule with published bits (a seed rule some session
// materialized, or a sketched candidate), those bits are reused as-is —
// published coverage sets are immutable, so the returned set is safe to
// read after the lock is released but must not be modified. Otherwise the
// rule is matched against the corpus with a full scan. This is the batch
// rule-application primitive of the auto-labeling pipeline: resolving a
// committee of accepted rules costs at most one corpus scan per rule never
// seen by the index, and zero index growth either way.
func (e *Engine) CoverageBits(spec string) (string, *bitset.Adaptive, error) {
	h, err := e.reg.Parse(spec)
	if err != nil {
		return "", nil, fmt.Errorf("core: rule %q: %w", spec, err)
	}
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	if node := e.ix.Node(h.Key()); node != nil {
		return h.Key(), node.Bits(), nil
	}
	// The fallback corpus scan stays under the read lock so a concurrent
	// ingest cannot grow the corpus out from under it.
	return h.Key(), bitset.AdaptiveFromSorted(grammar.Coverage(h, e.corp)), nil
}
