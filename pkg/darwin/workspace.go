package darwin

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/workspace"
)

// WorkspaceLabeler adapts one annotator's attachment to a shared
// multi-annotator workspace to the Labeler interface. All state-changing
// calls go through the workspace manager, inheriting its journaling gate and
// TTL refresh; serialization across annotators is the workspace's own lock,
// so a batch of answers may interleave with other annotators exactly as the
// equivalent sequence of single calls would.
type WorkspaceLabeler struct {
	mgr       *workspace.Manager
	eng       *core.Engine
	wsID      string
	annotator string
	// detach marks a labeler whose Close detaches the annotator (labelers
	// created by AttachWorkspace); labelers merely bound to an existing
	// attachment leave it in place.
	detach bool

	mu     sync.Mutex
	closed bool
}

// AttachWorkspace attaches a new annotator to the workspace and returns the
// attachment as a Labeler; Close detaches it again.
func AttachWorkspace(mgr *workspace.Manager, wsID, annotator string) (*WorkspaceLabeler, error) {
	if annotator == "" {
		return nil, fmt.Errorf("%w: annotator name is required", ErrInvalid)
	}
	l, err := BindWorkspace(mgr, wsID, annotator)
	if err != nil {
		return nil, err
	}
	if err := mgr.Attach(wsID, annotator); err != nil {
		return nil, MapWorkspaceErr(err)
	}
	l.detach = true
	return l, nil
}

// AdoptWorkspace wraps an annotator's already-existing attachment as a
// Labeler that owns it: like AttachWorkspace, Close detaches the annotator —
// but the attachment itself is not created here. The serving layer wraps
// every attachment a labeler id resolves to with it, recovered and adopted
// ones included, so each keeps its delete-detaches semantics.
func AdoptWorkspace(mgr *workspace.Manager, wsID, annotator string) (*WorkspaceLabeler, error) {
	if annotator == "" {
		return nil, fmt.Errorf("%w: annotator name is required", ErrInvalid)
	}
	l, err := BindWorkspace(mgr, wsID, annotator)
	if err != nil {
		return nil, err
	}
	l.detach = true
	return l, nil
}

// BindWorkspace wraps an already-attached annotator as a Labeler without
// touching the attachment (Close leaves it in place). The serving layer uses
// it to answer v1 and v2 requests over one code path.
func BindWorkspace(mgr *workspace.Manager, wsID, annotator string) (*WorkspaceLabeler, error) {
	ws, ok := mgr.Get(wsID)
	if !ok {
		return nil, fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, wsID)
	}
	eng, ok := mgr.Engine(ws.Dataset())
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q is not served", ErrNotFound, ws.Dataset())
	}
	return &WorkspaceLabeler{mgr: mgr, eng: eng, wsID: wsID, annotator: annotator}, nil
}

// Workspace returns the workspace ID this labeler is attached to.
func (l *WorkspaceLabeler) Workspace() string { return l.wsID }

// Annotator returns the annotator name this labeler answers as.
func (l *WorkspaceLabeler) Annotator() string { return l.annotator }

func (l *WorkspaceLabeler) live() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: labeler is closed", ErrNotFound)
	}
	return nil
}

// Suggest implements Labeler: it returns the annotator's pending suggestion
// or assigns the most promising candidate no other annotator holds.
func (l *WorkspaceLabeler) Suggest(ctx context.Context) (Suggestion, error) {
	if err := l.live(); err != nil {
		return Suggestion{}, err
	}
	sug, ok, err := l.mgr.Suggest(l.wsID, l.annotator)
	if err != nil {
		return Suggestion{}, MapWorkspaceErr(err)
	}
	if !ok {
		return Suggestion{}, fmt.Errorf("%w: shared budget spent or no candidates remain", ErrBudgetExhausted)
	}
	out := Suggestion{
		Key:         sug.Key,
		Rule:        sug.Rule,
		Coverage:    sug.Coverage,
		NewCoverage: sug.NewCoverage,
		Benefit:     sug.Benefit,
		AvgBenefit:  sug.AvgBenefit,
		Question:    sug.Question,
		BudgetLeft:  sug.BudgetLeft,
		Samples:     samplesFrom(l.eng.CorpusView(), sug.SampleIDs),
	}
	return out, nil
}

// Answer implements Labeler.
func (l *WorkspaceLabeler) Answer(ctx context.Context, ans Answer) error {
	_, err := l.AnswerBatch(ctx, []Answer{ans})
	return err
}

// AnswerBatch implements BatchAnswerer. Every applied answer is journaled
// individually through the workspace's write-ahead log (the same events the
// single-call path appends), so recovery replays the batch exactly.
func (l *WorkspaceLabeler) AnswerBatch(ctx context.Context, answers []Answer) ([]RuleRecord, error) {
	if err := l.live(); err != nil {
		return nil, err
	}
	var recs []RuleRecord
	for i, ans := range answers {
		key := ans.Key
		if key == "" || i > 0 {
			// Resolve (or assign) the pending suggestion; Suggest is
			// idempotent while one is pending, so a keyed first answer after
			// a client-side suggest sees the same key again.
			sug, ok, err := l.mgr.Suggest(l.wsID, l.annotator)
			if err != nil {
				return recs, batchErr(i, len(answers), MapWorkspaceErr(err))
			}
			if !ok {
				return recs, batchErr(i, len(answers),
					fmt.Errorf("%w: shared budget spent or no candidates remain", ErrBudgetExhausted))
			}
			if key == "" {
				key = sug.Key
			}
		}
		rec, err := l.mgr.Answer(l.wsID, l.annotator, key, ans.Accept)
		if err != nil {
			return recs, batchErr(i, len(answers), MapWorkspaceErr(err))
		}
		recs = append(recs, coreRecord(rec.RuleRecord, rec.Annotator))
	}
	return recs, nil
}

// AnswerBatchStatus implements BatchStatusAnswerer: the batch followed by a
// status read of the shared workspace. Workspaces serialize per event (other
// annotators may interleave), so the status is simply the workspace after
// this caller's applied prefix plus any concurrent progress — the same
// guarantee two separate calls gave, without the second round trip.
func (l *WorkspaceLabeler) AnswerBatchStatus(ctx context.Context, answers []Answer) ([]RuleRecord, Status, error) {
	recs, batchErr := l.AnswerBatch(ctx, answers)
	if batchErr != nil && len(recs) == 0 {
		return nil, Status{}, batchErr
	}
	st, stErr := l.Status(ctx)
	if batchErr != nil {
		return recs, st, batchErr
	}
	return recs, st, stErr
}

// Report implements Labeler: the report of the shared workspace.
func (l *WorkspaceLabeler) Report(ctx context.Context) (Report, error) {
	if err := l.live(); err != nil {
		return Report{}, err
	}
	ws, ok := l.mgr.Get(l.wsID)
	if !ok {
		return Report{}, fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, l.wsID)
	}
	return WorkspaceReport(ws.Report()), nil
}

// WorkspaceReport converts a workspace snapshot to the SDK report shape, as
// WorkspaceLabeler.Report returns it. The serving layer encodes a snapshot's
// records through it when it also reads the snapshot's other fields.
func WorkspaceReport(rep *workspace.Report) Report {
	out := Report{
		Dataset:     rep.Dataset,
		Mode:        ModeWorkspace,
		Budget:      rep.Budget,
		Questions:   rep.Questions,
		Done:        rep.Done,
		Positives:   rep.PositiveCount,
		PositiveIDs: rep.Positives,
		Accepted:    make([]RuleRecord, 0, len(rep.Accepted)),
		History:     make([]RuleRecord, 0, len(rep.History)),
		Classifier: &ClassifierInfo{
			Trained:            rep.Classifier.Trained,
			Retrains:           rep.Classifier.Retrains,
			MeanScore:          rep.Classifier.MeanScore,
			PredictedPositives: rep.Classifier.PredictedPositives,
		},
	}
	for _, rec := range rep.Accepted {
		out.Accepted = append(out.Accepted, coreRecord(rec.RuleRecord, rec.Annotator))
	}
	for _, rec := range rep.History {
		out.History = append(out.History, coreRecord(rec.RuleRecord, rec.Annotator))
	}
	return out
}

// Export implements Labeler: the labeled corpus of the shared positive set.
func (l *WorkspaceLabeler) Export(ctx context.Context, w io.Writer) error {
	if err := l.live(); err != nil {
		return err
	}
	ws, ok := l.mgr.Get(l.wsID)
	if !ok {
		return fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, l.wsID)
	}
	return l.eng.CorpusView().WriteLabeledJSONL(w, ws.PositivesMap())
}

// Close implements Labeler: it detaches the annotator when the labeler
// created the attachment (releasing any pending suggestion back to the
// pool). The workspace itself lives on. The labeler is marked closed only
// once the detach succeeded (or the attachment is already gone), so a
// failed detach — e.g. a broken journal — can be retried.
func (l *WorkspaceLabeler) Close(ctx context.Context) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	detach := l.detach
	l.mu.Unlock()
	if detach {
		err := l.mgr.Detach(l.wsID, l.annotator)
		if err != nil &&
			!errors.Is(err, workspace.ErrUnknownWorkspace) &&
			!errors.Is(err, workspace.ErrUnknownAnnotator) {
			return MapWorkspaceErr(err)
		}
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return nil
}

// Status implements Statuser.
func (l *WorkspaceLabeler) Status(ctx context.Context) (Status, error) {
	if err := l.live(); err != nil {
		return Status{}, err
	}
	ws, ok := l.mgr.Get(l.wsID)
	if !ok {
		return Status{}, fmt.Errorf("%w: unknown or expired workspace %q", ErrNotFound, l.wsID)
	}
	questions, positives, done := ws.Stats()
	return Status{
		Dataset:   ws.Dataset(),
		Mode:      ModeWorkspace,
		Workspace: l.wsID,
		Annotator: l.annotator,
		Budget:    ws.Budget(),
		Questions: questions,
		Positives: positives,
		Done:      done,
	}, nil
}

// MapWorkspaceErr attaches the matching API sentinel to a workspace-layer
// error, preserving its message and chain. A full manager or a dead journal
// is ErrUnavailable (retry later); an error no sentinel names is the
// request's fault (ErrInvalid).
func MapWorkspaceErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errorsIsAny(err, workspace.ErrUnknownWorkspace, workspace.ErrUnknownAnnotator):
		return wrap(ErrNotFound, err)
	case errorsIsAny(err, workspace.ErrDuplicateAnnotator, workspace.ErrNoPending, workspace.ErrKeyMismatch):
		return wrap(ErrConflict, err)
	case errorsIsAny(err, workspace.ErrJournal, workspace.ErrLimit):
		return wrap(ErrUnavailable, err)
	default:
		return wrap(ErrInvalid, err)
	}
}

func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
