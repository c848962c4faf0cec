package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/oracle"
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

// Engine is a Darwin instance bound to one corpus.
//
// # Goroutine safety
//
// After New returns, the corpus, grammar registry, embedding model and index
// are treated as immutable shared state, with one exception: materializing an
// ad-hoc seed rule inserts a node into the index. That single mutation is
// guarded by ixMu (write-locked in Session init, read-locked around every
// index-reading step), so these methods are safe for concurrent use:
//
//   - NewSession, and all methods of distinct Sessions
//   - MaterializeRule, CoverageBits
//   - ParseRule, Corpus, Index, Registry (but mutating methods of the
//     returned Index — EnsureHeuristic, Prune, Merge — must never be called
//     while sessions are live; use MaterializeRule instead)
//
// Run, Scores and Classifier belong to the legacy single-run mode: they share
// the engine-owned classifier/score state so callbacks and post-run
// inspection keep working, and therefore must not be used concurrently with
// anything else on the same engine. A single Session is likewise owned by one
// caller at a time.
type Engine struct {
	cfg  Config
	corp *corpus.Corpus
	reg  *grammar.Registry
	ix   *index.Index
	emb  *embedding.Model
	clf  *classifier.SentenceClassifier
	rng  *rand.Rand
	// featCache is the corpus-wide sparse feature cache shared by every
	// session's classifier (features depend only on the immutable corpus and
	// embedding model, and the cache is safe for concurrent use).
	featCache *classifier.FeatureCache

	// ixMu guards the index against the one post-build mutation
	// (EnsureHeuristic for seed rules) racing hierarchy generation and
	// traversal reads in concurrent sessions.
	//darwin:lockrank index
	ixMu sync.RWMutex
	// matHook, when set, observes seed-rule materializations under the index
	// write lock (see SetMaterializeHook).
	matHook func(specs []string)

	scores       []float64
	retrainCount int
	indexBuild   time.Duration

	// bootLen is the corpus length at engine construction. The journal
	// compaction path uses it to re-emit the ingested tail [bootLen, Len) as
	// one consolidated batch.
	bootLen int
}

// New prepares a Darwin engine: it preprocesses the corpus, trains word
// embeddings, builds and prunes the index, and initializes the classifier.
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
	ix.SetKernel(cfg.Kernel)
	ix.Prune(cfg.MinRuleCoverage)
	indexBuild := time.Since(start)

	clfCfg := cfg.Classifier
	if clfCfg.Seed == 0 {
		clfCfg.Seed = cfg.Seed
	}
	featCache := classifier.NewFeatureCacheCapped(c.Len(), cfg.FeatureCacheCap)
	clf := classifier.NewSentenceClassifier(c, emb, clfCfg, cfg.ClassifierKind)
	clf.ShareFeatureCache(featCache)

	e := &Engine{
		cfg:        cfg,
		corp:       c,
		reg:        reg,
		ix:         ix,
		emb:        emb,
		clf:        clf,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		featCache:  featCache,
		indexBuild: indexBuild,
		bootLen:    c.Len(),
	}
	e.scores = make([]float64, c.Len())
	for i := range e.scores {
		e.scores[i] = 0.5
	}
	return e, nil
}

// Corpus returns the engine's corpus.
func (e *Engine) Corpus() *corpus.Corpus { return e.corp }

// Index returns the engine's heuristic index.
func (e *Engine) Index() *index.Index { return e.ix }

// Registry returns the engine's grammar registry.
func (e *Engine) Registry() *grammar.Registry { return e.reg }

// Scores returns the engine's current p_s estimates (indexed by sentence ID)
// as updated by the legacy Run mode; sessions created with NewSession own
// their scores and do not touch this slice. The slice is owned by the engine.
func (e *Engine) Scores() []float64 { return e.scores }

// Classifier returns the engine's sentence classifier (trained by the legacy
// Run mode; sessions created with NewSession own their own classifier).
func (e *Engine) Classifier() *classifier.SentenceClassifier { return e.clf }

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
	node := e.ix.EnsureHeuristic(h, e.corp)
	e.ix.BuildEdges()
	if e.matHook != nil {
		e.matHook([]string{spec})
	}
	e.ixMu.Unlock()
	return h.Key(), append([]int(nil), node.Postings...), nil
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
func (e *Engine) CoverageBits(spec string) (string, bitset.Cover, error) {
	h, err := e.reg.Parse(spec)
	if err != nil {
		return "", nil, fmt.Errorf("core: rule %q: %w", spec, err)
	}
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	node := e.ix.Node(h.Key())
	if node != nil {
		if published := node.Bits(); published != nil {
			return h.Key(), published, nil
		}
	}
	// The fallback corpus scan stays under the read lock so a concurrent
	// ingest cannot grow the corpus out from under it.
	return h.Key(), bitset.FromSorted(grammar.Coverage(h, e.corp)), nil
}

// RunOptions configures one discovery run.
type RunOptions struct {
	// SeedRules are textual rule specifications (e.g. "best way to get to" or
	// "treematch:caused/by"); their coverage seeds P without consuming
	// budget.
	SeedRules []string
	// SeedPositiveIDs are sentence IDs known to be positive; they seed P
	// directly (the "couple of positive sentences" initialization).
	SeedPositiveIDs []int
	// Oracle answers rule-verification queries. Required.
	Oracle oracle.Oracle
	// OnQuery, if non-nil, is called after every oracle query with the
	// record and the engine (whose classifier scores reflect the query's
	// outcome). Experiments use it to capture per-question curves.
	OnQuery func(rec RuleRecord, e *Engine)
}

// Run executes Algorithm 1: starting from the seed rules / seed positives it
// iteratively generates a candidate hierarchy, selects the most promising
// rule with the configured traversal strategy, queries the oracle, and
// updates the positive set and classifier, until the query budget is spent or
// no candidates remain. It is a thin wrapper that drives a Session from the
// oracle; interactive callers use NewSession directly. Run mutates the
// engine-owned classifier and scores (see the Engine doc) and is therefore
// not safe for concurrent use.
func (e *Engine) Run(opts RunOptions) (*Report, error) {
	if opts.Oracle == nil {
		return nil, fmt.Errorf("core: RunOptions.Oracle is required")
	}
	start := time.Now()
	s, err := e.newLegacySession(SessionOptions{
		SeedRules:       opts.SeedRules,
		SeedPositiveIDs: opts.SeedPositiveIDs,
	})
	if err != nil {
		return nil, err
	}
	for {
		sug, ok := s.Next()
		if !ok {
			break
		}
		// Line 8: ask the oracle.
		accepted := opts.Oracle.Answer(oracle.Query{
			Heuristic: s.pending.heur,
			Coverage:  s.pending.cov,
			Samples:   sug.SampleIDs,
		})
		rec, err := s.Answer(sug.Key, accepted)
		if err != nil {
			return nil, err
		}
		if opts.OnQuery != nil {
			opts.OnQuery(rec, e)
		}
	}
	report := s.report
	report.Positives = s.Positives()
	report.IndexBuild = e.indexBuild
	report.Total = time.Since(start)
	return report, nil
}

// Suggestion is one candidate rule proposed by Session.Next, with the
// statistics an annotator (or a downstream tool) needs to judge it.
type Suggestion struct {
	Key         string
	Rule        string
	Coverage    int
	NewCoverage int
	Benefit     float64
	AvgBenefit  float64
	SampleIDs   []int
}

// coverageOf resolves a rule key's coverage from the hierarchy or the index.
func coverageOf(ix *index.Index, h *hierarchy.Hierarchy, key string) []int {
	if n := h.Node(key); n != nil {
		return n.Coverage
	}
	return ix.Coverage(key)
}

// heuristicOf resolves a rule key's heuristic from the hierarchy or the index.
func heuristicOf(ix *index.Index, h *hierarchy.Hierarchy, key string) grammar.Heuristic {
	if n := h.Node(key); n != nil {
		return n.Heuristic
	}
	if n := ix.Node(key); n != nil {
		return n.Heuristic
	}
	return nil
}

func ruleString(h grammar.Heuristic, key string) string {
	if h != nil {
		return h.String()
	}
	return key
}
