package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/oracle"
	"repro/internal/traversal"
)

// Loop is the mutable state of one run of Algorithm 1 over an engine's
// shared corpus and index: the positive set P, the p_s score vector, the
// classifier and its retrain count, the rules already queried, and the
// candidate hierarchy cached against (|P|, index version). A solo Session
// and a multi-annotator workspace (internal/workspace) each hold one; they
// keep only what differs between them — how randomness is drawn, how the
// next rule is picked and assigned, and how answers are recorded. Loop is
// the only code that seeds, grows, regenerates and refits that state.
//
// A Loop is not goroutine-safe; its holder serializes access. Its methods
// take the engine's index lock themselves wherever they read shared state.
type Loop struct {
	e *Engine

	// positives is P, a bitset sized to the corpus; npos is |P|, kept by
	// AddPositives, the only routine that grows P.
	positives bitset.Set
	npos      int
	// scores holds p_s for every corpus sentence.
	scores   []float64
	clf      *classifier.SentenceClassifier
	retrains int
	queried  map[string]bool

	// hier is the cached candidate hierarchy. It depends only on the shared
	// index and P, so it stays valid across rejected answers and repeated
	// views; hierPos and hierIxVer record the |P| and index version it was
	// generated against, and hierGens counts regenerations.
	hier      *hierarchy.Hierarchy
	hierPos   int
	hierIxVer uint64
	hierGens  int
}

// Suggestion is one candidate rule proposed to an annotator, with the
// statistics they (or a downstream tool) need to judge it.
type Suggestion struct {
	Key         string
	Rule        string
	Coverage    int
	NewCoverage int
	Benefit     float64
	AvgBenefit  float64
	SampleIDs   []int
}

// LoopState is the persistent part of a Loop. The classifier model is left
// out (its holder refits it from P) and so is the hierarchy cache (it is
// regenerated on first use). len(Scores) is the corpus length the state was
// taken at.
type LoopState struct {
	Positives []int
	Queried   []string
	Scores    []float64
	Retrains  int
}

// newLoop returns an empty loop whose classifier draws negatives from seed
// (an explicit Config.Classifier.Seed wins) and shares the engine's feature
// cache. Callers hold the index lock and size P and the scores.
//
//darwin:replaypure
func (e *Engine) newLoop(seed int64, n int) *Loop {
	clfCfg := e.cfg.Classifier
	if clfCfg.Seed == 0 {
		clfCfg.Seed = seed
	}
	clf := classifier.NewSentenceClassifier(e.corp, e.emb, clfCfg)
	// The cache's eligibility check reads the corpus length, which a
	// concurrent ingest grows under the index write lock.
	clf.ShareFeatureCache(e.featCache)
	return &Loop{e: e, positives: bitset.New(n), clf: clf, queried: make(map[string]bool)}
}

// parseRules parses rule specifications before any shared state is touched,
// so a bad spec leaves the engine unchanged.
//
//darwin:replaypure
func (e *Engine) parseRules(specs []string) ([]grammar.Heuristic, error) {
	hs := make([]grammar.Heuristic, 0, len(specs))
	for _, spec := range specs {
		h, err := e.reg.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("core: seed rule %q: %w", spec, err)
		}
		hs = append(hs, h)
	}
	return hs, nil
}

// materializeLocked inserts the rules into the shared index, leaves its
// edges rebuilt (so read-locked steps never trigger a lazy rebuild) and
// reports the specs to the materialize hook once. Callers hold the index
// write lock.
//
//darwin:replaypure
func (e *Engine) materializeLocked(hs []grammar.Heuristic, specs []string) []*index.Node {
	if len(hs) == 0 {
		return nil
	}
	nodes := make([]*index.Node, len(hs))
	for i, h := range hs {
		nodes[i] = e.ix.EnsureHeuristic(h, e.corp)
	}
	e.ix.BuildEdges()
	if e.matHook != nil {
		e.matHook(specs)
	}
	return nodes
}

// NewLoop seeds a loop (Algorithm 1 line 3): the coverage of every seed rule
// and the valid seed sentence ids form P, and the seed rules count as
// queried. seed drives the classifier's negative sampling unless
// Config.Classifier.Seed is set. Sizing P and the scores to the corpus,
// materializing the seed rules in the shared index and adding the seed ids
// happen in one write-locked section, so a concurrent ingest cannot grow
// the corpus in between. It returns one record per seed rule. The
// classifier is still untrained: the holder's first Refit is line 4.
//
// Materializing a rule the index did not hold grows the index
// monotonically: loops stepping afterwards may see a candidate they would
// not have seen before, so bit-exact replay is guaranteed only against the
// same set of materialized rules.
//
//darwin:replaypure
func (e *Engine) NewLoop(seed int64, seedRules []string, seedIDs []int) (*Loop, []RuleRecord, error) {
	hs, err := e.parseRules(seedRules)
	if err != nil {
		return nil, nil, err
	}
	e.ixMu.Lock()
	l := e.newLoop(seed, e.corp.Len())
	l.scores = make([]float64, e.corp.Len())
	for i := range l.scores {
		l.scores[i] = 0.5
	}
	records := make([]RuleRecord, 0, len(hs))
	for i, node := range e.materializeLocked(hs, seedRules) {
		key := hs[i].Key()
		l.queried[key] = true
		cov := node.Bits().AppendTo(nil)
		added := l.AddPositives(cov)
		records = append(records, RuleRecord{
			Key:            key,
			Rule:           hs[i].String(),
			Coverage:       len(cov),
			Accepted:       true,
			CoverageIDs:    cov,
			AddedIDs:       added,
			PositivesAfter: l.npos,
		})
	}
	var ids []int
	for _, id := range seedIDs {
		if e.corp.Sentence(id) != nil {
			ids = append(ids, id)
		}
	}
	l.AddPositives(ids)
	e.ixMu.Unlock()
	if l.npos == 0 {
		return nil, nil, fmt.Errorf("core: seeds produced no positive instances (need a seed rule with non-empty coverage or seed positive IDs)")
	}
	return l, records, nil
}

// RestoreLoop rebuilds a loop from persisted state, re-materializing the
// seed rules it was created with (a no-op for rules the index already
// holds). The positive ids must lie below len(st.Scores). The classifier
// starts untrained; a holder that needs the fitted model calls Fit.
//
//darwin:replaypure
func (e *Engine) RestoreLoop(seed int64, seedRules []string, st LoopState) (*Loop, error) {
	hs, err := e.parseRules(seedRules)
	if err != nil {
		return nil, err
	}
	e.ixMu.Lock()
	e.materializeLocked(hs, seedRules)
	l := e.newLoop(seed, len(st.Scores))
	e.ixMu.Unlock()
	l.scores = append([]float64(nil), st.Scores...)
	l.retrains = st.Retrains
	l.AddPositives(st.Positives)
	for _, key := range st.Queried {
		l.queried[key] = true
	}
	return l, nil
}

// State exports the loop's persistent state: P ascending, the queried keys
// sorted, and a copy of the scores.
func (l *Loop) State() LoopState {
	queried := make([]string, 0, len(l.queried))
	for k := range l.queried {
		queried = append(queried, k)
	}
	sort.Strings(queried)
	return LoopState{
		Positives: l.PositiveIDs(),
		Queried:   queried,
		Scores:    append([]float64(nil), l.scores...),
		Retrains:  l.retrains,
	}
}

// AddPositives inserts the ids into P, keeping |P| in step, and returns the
// newly added ones (sorted).
//
//darwin:replaypure
func (l *Loop) AddPositives(ids []int) []int {
	var added []int
	for _, id := range ids {
		if !l.positives.Contains(id) {
			l.positives.Add(id)
			added = append(added, id)
		}
	}
	l.npos += len(added)
	sort.Ints(added)
	return added
}

// grow extends P and the scores to the live corpus: new sentences start
// outside P at the untrained prior 0.5. Callers hold the index lock, under
// which the corpus length is stable.
//
//darwin:replaypure
func (l *Loop) grow() {
	n := l.e.corp.Len()
	if n <= len(l.scores) {
		return
	}
	for len(l.scores) < n {
		l.scores = append(l.scores, 0.5)
	}
	l.positives = l.positives.Grow(n)
}

// View runs f under the engine's index read lock with the loop's traversal
// state. First P and the scores grow to the live corpus, and the candidate
// hierarchy is regenerated (Algorithm 1 line 6) if |P| or the index version
// changed since the cached one was built — so rejected answers and repeated
// views reuse it. f picks a rule (line 7) and Takes it; it must not retain
// the index.
//
//darwin:lockrank-callback index
//darwin:replaypure
func (l *Loop) View(f func(st *traversal.State)) {
	e := l.e
	e.ixMu.RLock()
	defer e.ixMu.RUnlock()
	l.grow()
	if ver := e.ix.Version(); l.hier == nil || l.hierPos != l.npos || l.hierIxVer != ver {
		l.hier = hierarchy.Generate(e.ix, l.positives, e.cfg.hierarchyConfig())
		l.hierPos = l.npos
		l.hierIxVer = ver
		l.hierGens++
	}
	f(&traversal.State{
		Hierarchy: l.hier,
		Index:     e.ix,
		Positives: l.positives,
		Scores:    l.scores,
		Queried:   l.queried,
	})
}

// Take marks key queried and returns its suggestion against st (the state
// View passed): coverage, new coverage, benefit, average benefit, display
// string, and presentation samples drawn from rng. It also returns the
// rule's full coverage set and its heuristic.
//
//darwin:replaypure
func (l *Loop) Take(st *traversal.State, key string, rng *rand.Rand) (Suggestion, []int, grammar.Heuristic) {
	l.queried[key] = true
	var cov []int
	if set := coverageOf(st.Index, st.Hierarchy, key); set != nil {
		cov = set.AppendTo(nil)
	}
	heur := heuristicOf(st.Index, st.Hierarchy, key)
	benefit, newCov := st.BenefitNewOf(key)
	avg := 0.0
	if newCov > 0 {
		avg = benefit / float64(newCov)
	}
	sug := Suggestion{
		Key:         key,
		Rule:        ruleString(heur, key),
		Coverage:    len(cov),
		NewCoverage: newCov,
		Benefit:     benefit,
		AvgBenefit:  avg,
		SampleIDs:   oracle.SampleCoverage(cov, l.e.cfg.OracleSampleSize, rng),
	}
	return sug, cov, heur
}

// Release returns a taken rule to the candidate pool (an assignment that
// was never answered).
//
//darwin:replaypure
func (l *Loop) Release(key string) { delete(l.queried, key) }

// Verdict records the answer to question q on a taken rule with coverage
// cov. An accept grows P by cov (Algorithm 1 line 9) and the record lists
// the newly added ids; the holder then refits. PositivesAfter is left for
// the holder to set: the accepted-rule lists of sessions and workspaces
// copy the record before it is set (so their non-seed entries carry 0
// there), and pinned reports and snapshots depend on those bytes.
//
//darwin:replaypure
func (l *Loop) Verdict(q int, sug Suggestion, cov []int, accept bool) RuleRecord {
	rec := RuleRecord{
		Question: q,
		Key:      sug.Key,
		Rule:     sug.Rule,
		Coverage: len(cov),
		Accepted: accept,
	}
	if accept {
		rec.CoverageIDs = append([]int(nil), cov...)
		rec.AddedIDs = l.AddPositives(cov)
	}
	return rec
}

// Refit retrains the classifier on P and refreshes the scores (Algorithm 1
// lines 11-12), honouring the engine's lazy re-scoring settings. It runs
// under the engine's read lock, since training and scoring read the shared
// corpus and feature cache that a concurrent ingest grows, after growing P
// and the scores to the live corpus. A failed fit keeps the previous model
// and scores.
//
//darwin:replaypure
func (l *Loop) Refit() error {
	l.e.ixMu.RLock()
	defer l.e.ixMu.RUnlock()
	l.grow()
	return l.clf.Refit(l.positives, l.scores, &l.retrains, l.e.cfg.LazyScoring, l.e.cfg.LazyScoreThreshold)
}

// Fit trains the classifier on P without rescoring, reproducing a model
// whose scores were persisted.
//
//darwin:replaypure
func (l *Loop) Fit() error {
	l.e.ixMu.RLock()
	defer l.e.ixMu.RUnlock()
	return l.clf.TrainFromPositives(l.positives)
}

// Count returns |P|.
func (l *Loop) Count() int { return l.npos }

// PositiveIDs returns P as ascending ids.
func (l *Loop) PositiveIDs() []int { return l.positives.AppendTo(make([]int, 0, l.npos)) }

// PositivesMap returns a copy of P as a set.
func (l *Loop) PositivesMap() map[int]bool {
	out := make(map[int]bool, l.npos)
	l.positives.Range(func(id int) bool {
		out[id] = true
		return true
	})
	return out
}

// Scores returns the p_s estimates, indexed by sentence ID. The slice is
// owned by the loop.
func (l *Loop) Scores() []float64 { return l.scores }

// Classifier returns the loop's sentence classifier.
func (l *Loop) Classifier() *classifier.SentenceClassifier { return l.clf }

// Retrains returns the number of successful refits.
func (l *Loop) Retrains() int { return l.retrains }

// HierarchyGenerations returns how many times the loop regenerated its
// candidate hierarchy: once per change of P (plus one per shared-index
// growth), not once per view.
func (l *Loop) HierarchyGenerations() int { return l.hierGens }

// coverageOf resolves a rule key's coverage set from the hierarchy or the
// index (nil for an unknown key).
func coverageOf(ix *index.Index, h *hierarchy.Hierarchy, key string) bitset.Cover {
	if n := h.Node(key); n != nil {
		return n.Bits
	}
	return ix.Bits(key)
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
