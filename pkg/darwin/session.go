package darwin

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// Options configures a new solo session labeler.
type Options struct {
	// SeedRules seed the positive set without consuming budget.
	SeedRules []string
	// SeedPositiveIDs are sentence IDs known to be positive.
	SeedPositiveIDs []int
	// Budget overrides the engine's oracle query budget (0 keeps it).
	Budget int
	// Seed overrides the engine's random seed for this labeler (0 keeps it),
	// making the run replayable independently of other labelers.
	Seed int64
}

// SessionLabeler adapts a solo core.Session to the Labeler interface. It
// owns the serialization the session itself does not provide: all methods
// are safe for concurrent use, and AnswerBatch applies its whole batch in
// one critical section. Status reads a cached snapshot behind its own
// narrow lock, so status polls never block behind an in-flight suggest
// step.
type SessionLabeler struct {
	mu      sync.Mutex
	eng     *core.Engine
	sess    *core.Session
	dataset string
	closed  atomic.Bool

	// stMu guards st, the status snapshot refreshed after every completed
	// operation (Status must stay cheap while mu is held across a long
	// core step).
	stMu sync.Mutex
	st   Status
}

// NewSession starts a solo discovery session on the engine and wraps it as a
// Labeler. The dataset name is carried into reports and statuses.
func NewSession(eng *core.Engine, dataset string, opts Options) (*SessionLabeler, error) {
	sess, err := eng.NewSession(core.SessionOptions{
		SeedRules:       opts.SeedRules,
		SeedPositiveIDs: opts.SeedPositiveIDs,
		Budget:          opts.Budget,
		Seed:            opts.Seed,
	})
	if err != nil {
		return nil, wrap(ErrInvalid, err)
	}
	l := &SessionLabeler{eng: eng, sess: sess, dataset: dataset}
	l.refreshStatusLocked()
	return l, nil
}

// refreshStatusLocked recomputes the cached status snapshot. Callers hold
// l.mu (or are in the constructor).
func (l *SessionLabeler) refreshStatusLocked() {
	st := Status{
		Dataset:   l.dataset,
		Mode:      ModeSession,
		Budget:    l.sess.Budget(),
		Questions: l.sess.Questions(),
		Positives: l.sess.PositivesCount(),
		Done:      l.sess.Done(),
	}
	l.stMu.Lock()
	l.st = st
	l.stMu.Unlock()
}

// Suggest implements Labeler.
func (l *SessionLabeler) Suggest(ctx context.Context) (Suggestion, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.suggestLocked()
}

func (l *SessionLabeler) suggestLocked() (Suggestion, error) {
	if l.closed.Load() {
		return Suggestion{}, fmt.Errorf("%w: labeler is closed", ErrNotFound)
	}
	sug, ok := l.sess.Next()
	defer l.refreshStatusLocked()
	if !ok {
		if l.sess.Questions() >= l.sess.Budget() {
			return Suggestion{}, fmt.Errorf("%w: all %d questions answered", ErrBudgetExhausted, l.sess.Budget())
		}
		return Suggestion{}, fmt.Errorf("%w: no candidate rules remain", ErrBudgetExhausted)
	}
	out := Suggestion{
		Key:         sug.Key,
		Rule:        sug.Rule,
		Coverage:    sug.Coverage,
		NewCoverage: sug.NewCoverage,
		Benefit:     sug.Benefit,
		AvgBenefit:  sug.AvgBenefit,
		Question:    l.sess.Questions() + 1,
		BudgetLeft:  l.sess.Budget() - l.sess.Questions(),
		Samples:     samplesFrom(l.eng.CorpusView(), sug.SampleIDs),
	}
	return out, nil
}

// Answer implements Labeler.
func (l *SessionLabeler) Answer(ctx context.Context, ans Answer) error {
	_, err := l.AnswerBatch(ctx, []Answer{ans})
	return err
}

// AnswerBatch implements BatchAnswerer: the whole batch is applied under one
// lock acquisition, so no other caller's suggest or answer interleaves. Each
// verdict answers the then-pending suggestion (requesting one when none is
// pending); a non-empty key must match it. On error the returned records
// cover the applied prefix.
func (l *SessionLabeler) AnswerBatch(ctx context.Context, answers []Answer) ([]RuleRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.answerBatchLocked(answers)
}

// AnswerBatchStatus implements BatchStatusAnswerer: batch and status come
// out of the same critical section, so the status is exactly the labeler
// after this batch's applied prefix.
func (l *SessionLabeler) AnswerBatchStatus(ctx context.Context, answers []Answer) ([]RuleRecord, Status, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs, err := l.answerBatchLocked(answers)
	l.stMu.Lock()
	st := l.st
	l.stMu.Unlock()
	return recs, st, err
}

func (l *SessionLabeler) answerBatchLocked(answers []Answer) ([]RuleRecord, error) {
	if l.closed.Load() {
		return nil, fmt.Errorf("%w: labeler is closed", ErrNotFound)
	}
	defer l.refreshStatusLocked()
	var recs []RuleRecord
	for i, ans := range answers {
		key := ans.Key
		if key == "" {
			sug, err := l.suggestLocked()
			if err != nil {
				return recs, batchErr(i, len(answers), err)
			}
			key = sug.Key
		} else if i > 0 {
			// A keyed verdict mid-batch targets the next suggestion, which
			// the previous answer has not requested yet.
			if _, err := l.suggestLocked(); err != nil {
				return recs, batchErr(i, len(answers), err)
			}
		}
		rec, err := l.sess.Answer(key, ans.Accept)
		if err != nil {
			return recs, batchErr(i, len(answers), wrap(ErrConflict, err))
		}
		recs = append(recs, coreRecord(rec, ""))
	}
	return recs, nil
}

// batchErr annotates a mid-batch failure with how far the batch got;
// single-answer calls pass the error through untouched.
func batchErr(i, n int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("answer %d/%d (%d applied): %w", i+1, n, i, err)
}

// Report implements Labeler.
func (l *SessionLabeler) Report(ctx context.Context) (Report, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return Report{}, fmt.Errorf("%w: labeler is closed", ErrNotFound)
	}
	rep := l.sess.Report()
	out := Report{
		Dataset:     l.dataset,
		Mode:        ModeSession,
		Budget:      l.sess.Budget(),
		Questions:   rep.Questions,
		Done:        l.sess.Done(),
		Positives:   len(rep.Positives),
		PositiveIDs: rep.PositiveIDs(),
		Accepted:    make([]RuleRecord, 0, len(rep.Accepted)),
		History:     make([]RuleRecord, 0, len(rep.History)),
	}
	for _, rec := range rep.Accepted {
		out.Accepted = append(out.Accepted, coreRecord(rec, ""))
	}
	for _, rec := range rep.History {
		out.History = append(out.History, coreRecord(rec, ""))
	}
	return out, nil
}

// Export implements Labeler.
func (l *SessionLabeler) Export(ctx context.Context, w io.Writer) error {
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return fmt.Errorf("%w: labeler is closed", ErrNotFound)
	}
	positives := l.sess.Positives()
	l.mu.Unlock()
	return l.eng.CorpusView().WriteLabeledJSONL(w, positives)
}

// Close implements Labeler. Further calls fail with ErrNotFound.
func (l *SessionLabeler) Close(ctx context.Context) error {
	l.closed.Store(true)
	return nil
}

// Status implements Statuser. It reads the cached snapshot of the last
// completed operation, so it never blocks behind an in-flight suggest step.
func (l *SessionLabeler) Status(ctx context.Context) (Status, error) {
	if l.closed.Load() {
		return Status{}, fmt.Errorf("%w: labeler is closed", ErrNotFound)
	}
	l.stMu.Lock()
	defer l.stMu.Unlock()
	return l.st, nil
}

// StepLatency returns the last and average wall-clock duration of the
// suggest steps that did real work (serving-layer diagnostics; not part of
// the Labeler interface).
func (l *SessionLabeler) StepLatency() (last, avg time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sess.StepLatency()
}

// samplesFrom resolves sample sentence IDs against the corpus, skipping IDs
// the corpus does not know.
func samplesFrom(corp *corpus.Corpus, ids []int) []Sample {
	var out []Sample
	for _, id := range ids {
		if sent := corp.Sentence(id); sent != nil {
			out = append(out, Sample{ID: id, Text: sent.Text})
		}
	}
	return out
}

// coreRecord converts a core.RuleRecord to the SDK shape. CoverageIDs are
// sorted so reports serialize deterministically.
func coreRecord(rec core.RuleRecord, annotator string) RuleRecord {
	out := RuleRecord{
		Question:       rec.Question,
		Key:            rec.Key,
		Rule:           rec.Rule,
		Coverage:       rec.Coverage,
		Accepted:       rec.Accepted,
		PositivesAfter: rec.PositivesAfter,
		Annotator:      annotator,
	}
	if len(rec.CoverageIDs) > 0 {
		out.CoverageIDs = append([]int(nil), rec.CoverageIDs...)
		sort.Ints(out.CoverageIDs)
	}
	if len(rec.AddedIDs) > 0 {
		out.AddedIDs = append([]int(nil), rec.AddedIDs...)
		sort.Ints(out.AddedIDs)
	}
	return out
}
