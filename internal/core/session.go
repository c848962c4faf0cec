package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/grammar"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/traversal"
)

// Engine-level telemetry: the interactive loop's two verbs, measured at the
// core layer (below HTTP and labeler locking) so interactive sessions and
// batch Session.Run callers are covered alike.
var (
	nextDurations = obs.Default().Histogram("darwin_session_next_duration_seconds",
		"Latency of one Session.Next that did real work (traversal of the cached hierarchy, regenerated first only when the index grew or P changed outside an accepting answer).",
		obs.LatencyBuckets)
	answerDurations = obs.Default().Histogram("darwin_session_answer_duration_seconds",
		"Latency of one Session.Answer (on accept: positive-set merge, then classifier retrain + rescore overlapped with the hierarchy regeneration).",
		obs.LatencyBuckets)
)

// SessionOptions configures one interactive discovery session.
type SessionOptions struct {
	// SeedRules are textual rule specifications whose coverage seeds P
	// without consuming budget (Algorithm 1 line 3).
	SeedRules []string
	// SeedPositiveIDs are sentence IDs known to be positive; they seed P
	// directly.
	SeedPositiveIDs []int
	// Budget overrides the engine config's oracle query budget for this
	// session (0 keeps the engine default).
	Budget int
	// Seed overrides the engine config's random seed for this session's
	// sampling and classifier training (0 keeps the engine default), so a
	// session can be replayed deterministically regardless of what other
	// sessions ran before it on the same engine. An explicit
	// Config.Classifier.Seed still wins for classifier training, matching
	// Engine.New.
	Seed int64
	// Traversal, when non-nil, is the traversal strategy this session uses
	// instead of building one from the engine config. The session takes
	// ownership: the instance must not be shared with other sessions.
	Traversal traversal.Traversal
}

// Session is one stepwise run of Algorithm 1 in which the oracle role is
// played by the caller: Next proposes the most promising unqueried rule,
// Answer records the caller's accept/reject verdict and updates the positive
// set and classifier, and Report snapshots the run so far. Run drives the
// same steps from an oracle (batch mode). A Session owns all mutable
// discovery state — its Loop (positive set, classifier, scores, hierarchy
// cache), the traversal and the RNG; it only reads the engine's shared
// corpus and index, so any number of sessions may run concurrently on one
// engine. A single Session is NOT goroutine-safe; callers that share a
// session across goroutines (e.g. an HTTP server) must serialize access
// themselves.
type Session struct {
	e    *Engine
	loop *Loop
	// rng draws presentation samples as one stream over the whole session.
	rng *rand.Rand

	trav     traversal.Traversal
	seedKeys []string
	seeded   bool

	report *Report
	budget int
	start  time.Time

	// Step-latency tracking for the serving layer: duration of each Next
	// that did real work (not a pending replay).
	lastStep  time.Duration
	stepTotal time.Duration
	stepCount int

	pending *pendingSuggestion
	done    bool
}

// pendingSuggestion is the suggestion issued by Next and not yet answered,
// together with the resolution context Answer needs (the full coverage set,
// the heuristic for oracle queries, and the traversal state for Feedback).
type pendingSuggestion struct {
	sug  Suggestion
	heur grammar.Heuristic
	cov  []int
	st   *traversal.State
}

// NewSession starts an interactive discovery session on the engine: it seeds
// the positive set from the options (see NewLoop), trains the session's own
// classifier, and prepares the traversal strategy. It is safe to call
// concurrently with other sessions' steps.
func (e *Engine) NewSession(opts SessionOptions) (*Session, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = e.cfg.Seed
	}
	start := time.Now()
	loop, seeds, err := e.NewLoop(seed, opts.SeedRules, opts.SeedPositiveIDs)
	if err != nil {
		return nil, err
	}
	s := &Session{
		e:      e,
		loop:   loop,
		rng:    rand.New(rand.NewSource(seed)),
		trav:   opts.Traversal,
		report: &Report{Accepted: seeds},
		budget: opts.Budget,
		start:  start,
	}
	if s.budget <= 0 {
		s.budget = e.cfg.Budget
	}
	for _, rec := range seeds {
		s.seedKeys = append(s.seedKeys, rec.Key)
	}
	// Initial classifier (Algorithm 1 line 4). A failed fit keeps the prior
	// scores.
	_ = loop.Refit(false)
	if s.trav == nil {
		s.trav = traversal.New(e.cfg.Traversal, e.cfg.Tau, s.seedKeys...)
	}
	return s, nil
}

// Run drives the session to its end with o answering every suggestion (the
// batch form of Algorithm 1) and returns the final report. onQuery, if
// non-nil, sees each question's record right after its answer is applied,
// when s.Scores() already reflects it.
func (s *Session) Run(o oracle.Oracle, onQuery func(RuleRecord)) *Report {
	for {
		sug, ok := s.Next()
		if !ok {
			return s.Report()
		}
		// Line 8: ask the oracle.
		accept := o.Answer(oracle.Query{Heuristic: s.pending.heur, Coverage: s.pending.cov, Samples: sug.SampleIDs})
		// Answering the pending key cannot fail.
		rec, _ := s.Answer(sug.Key, accept)
		if onQuery != nil {
			onQuery(rec)
		}
	}
}

// Next returns the most promising unqueried candidate rule, or ok=false when
// the session is over (budget spent or no candidates left). Calling Next again
// before Answer returns the same pending suggestion. The heavy work — traverse
// the candidate hierarchy for the current positive set — is done in
// Loop.View, under the engine's read lock, so concurrent sessions step in
// parallel. The hierarchy was usually regenerated by the accepting Answer
// that last grew P; Next regenerates it only on the first step or when the
// shared index grew since.
//
//darwin:replaypure
func (s *Session) Next() (Suggestion, bool) {
	if s.pending != nil {
		return s.pending.sug, true
	}
	if s.done || s.report.Questions >= s.budget {
		return Suggestion{}, false
	}
	//darwin:replaypure-exempt step-latency metric only; never enters session state
	stepStart := time.Now()
	defer func() {
		//darwin:replaypure-exempt step-latency metric only; never enters session state
		d := time.Since(stepStart)
		s.lastStep = d
		s.stepTotal += d
		s.stepCount++
		nextDurations.Observe(d.Seconds())
	}()
	s.loop.View(func(st *traversal.State) {
		// Make sure local strategies know about the seed rules'
		// neighborhoods on the first iteration.
		if !s.seeded {
			for _, k := range s.seedKeys {
				s.trav.Reseed(st, k)
			}
			s.seeded = true
		}
		// Line 7: pick the next rule to verify.
		key, ok := s.trav.Next(st)
		if !ok {
			return
		}
		sug, cov, heur := s.loop.Take(st, key, s.rng)
		s.pending = &pendingSuggestion{sug: sug, heur: heur, cov: cov, st: st}
	})
	if s.pending == nil {
		s.done = true
		return Suggestion{}, false
	}
	return s.pending.sug, true
}

// Answer records the caller's verdict on the pending suggestion (Algorithm 1
// lines 8-12): on accept it extends the positive set with the rule's coverage
// and retrains the classifier, regenerating the candidate hierarchy for the
// next Next on a second goroutine meanwhile (Loop.Refit) unless this answer
// spent the budget; either way it informs the traversal strategy. The key
// must match the pending suggestion's key.
//
//darwin:replaypure
func (s *Session) Answer(key string, accept bool) (RuleRecord, error) {
	//darwin:replaypure-exempt latency metric only; the observed duration never enters session state
	defer answerDurations.ObserveSince(time.Now())
	if s.pending == nil {
		return RuleRecord{}, fmt.Errorf("core: no pending suggestion to answer (call Next first)")
	}
	if key != s.pending.sug.Key {
		return RuleRecord{}, fmt.Errorf("core: answer for %q does not match pending suggestion %q", key, s.pending.sug.Key)
	}
	pending := s.pending
	s.pending = nil

	rec := s.loop.Verdict(s.report.Questions+1, pending.sug, pending.cov, accept)
	if accept {
		s.report.Accepted = append(s.report.Accepted, rec)
		// A failed fit (not enough signal, which should not happen once P
		// is non-empty) keeps the previous scores.
		_ = s.loop.Refit(rec.Question < s.budget)
	}
	rec.PositivesAfter = s.loop.Count()
	s.report.History = append(s.report.History, rec)
	s.report.Questions = rec.Question

	// Feedback may walk the index's parent/child edges.
	s.e.ixMu.RLock()
	s.trav.Feedback(pending.st, key, accept)
	s.e.ixMu.RUnlock()
	return rec, nil
}

// HierarchyGenerations returns how many times the session regenerated its
// candidate hierarchy. With incremental reuse this equals one per
// positive-set change (plus one per shared-index growth), not one per Next.
func (s *Session) HierarchyGenerations() int { return s.loop.HierarchyGenerations() }

// StepLatency returns the duration of the last Next that did real work and
// the average across all of them (zero before the first step).
func (s *Session) StepLatency() (last, avg time.Duration) {
	if s.stepCount > 0 {
		avg = s.stepTotal / time.Duration(s.stepCount)
	}
	return s.lastStep, avg
}

// Done reports whether the session is over: the budget is spent or the
// traversal ran out of candidates.
func (s *Session) Done() bool {
	return s.pending == nil && (s.done || s.report.Questions >= s.budget)
}

// Budget returns the session's oracle query budget.
func (s *Session) Budget() int { return s.budget }

// Questions returns the number of questions answered so far.
func (s *Session) Questions() int { return s.report.Questions }

// PositivesCount returns |P| without copying the set.
func (s *Session) PositivesCount() int { return s.loop.Count() }

// Positives returns a copy of the discovered positive set P.
func (s *Session) Positives() map[int]bool { return s.loop.PositivesMap() }

// Scores returns the session's current p_s estimates (indexed by sentence
// ID). The slice is owned by the session.
func (s *Session) Scores() []float64 { return s.loop.Scores() }

// Report returns a snapshot of the run so far: the records share memory with
// the session but the record slices and the positive set are copied, so the
// snapshot stays stable while the session keeps running.
func (s *Session) Report() *Report {
	rep := &Report{
		Accepted:   append([]RuleRecord(nil), s.report.Accepted...),
		History:    append([]RuleRecord(nil), s.report.History...),
		Positives:  s.Positives(),
		Questions:  s.report.Questions,
		IndexBuild: s.e.indexBuild,
		Total:      time.Since(s.start),
	}
	return rep
}
