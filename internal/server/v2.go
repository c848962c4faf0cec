// The /v2 surface serves every error as the uniform darwin envelope; the
// directive below makes darwinlint enforce that for this file.
//
//darwin:errenvelope
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/autolabel"
	"repro/internal/ingest"
	"repro/internal/workspace"
	"repro/pkg/darwin"
)

// This file is the versioned /v2 surface: one handler set generated over the
// Backend interface below. Solo sessions and workspace attachments are both
// "labelers"; the handlers never branch on the mode — they resolve the id to
// a darwin.Labeler and call interface methods. Because the handlers see only
// Backend, the same set serves two deployments with zero handler changes:
// darwind mounts it over *Server (labelers live in this process), and
// darwin-router mounts it over internal/shard.Router (labelers live on a
// fleet of darwind shards reached through darwin.RemoteLabeler). Every error
// is served as the uniform envelope {code, message, retryable} with the
// status from the shared taxonomy (pkg/darwin/errors.go).

// Backend is the resource layer behind the /v2 handler set: it creates,
// resolves, lists and deletes labelers. *Server implements it over its local
// session registry and workspace manager (the manager alone maps a workspace
// labeler id to its attachment); internal/shard.Router implements it over
// remote darwind shards.
type Backend interface {
	// CreateLabeler validates opts, creates (or attaches) a labeler and
	// returns its status with the ID set. Implementations journal the
	// created workspace state before returning.
	//
	//darwin:journals
	CreateLabeler(ctx context.Context, opts darwin.CreateOptions) (darwin.Status, error)
	// Labeler resolves an id for the verb endpoints (suggestion, answers,
	// report, export). It fails with darwin.ErrNotFound for unknown ids.
	Labeler(id string) (darwin.Labeler, error)
	// LabelerStatus reports a labeler's status without refreshing any idle
	// timer, so periodic monitoring cannot keep abandoned labelers alive.
	LabelerStatus(ctx context.Context, id string) (darwin.Status, error)
	// ListLabelers returns one page of live labeler statuses starting
	// strictly after cursor ("" for the first page).
	ListLabelers(ctx context.Context, cursor string, limit int) (darwin.LabelerPage, error)
	// ListDatasets returns one page of the served dataset names.
	ListDatasets(ctx context.Context, cursor string, limit int) (darwin.DatasetPage, error)
	// DeleteLabeler closes and removes a labeler (detaching the annotator
	// for workspace attachments). Implementations journal the detach before
	// returning.
	//
	//darwin:journals
	DeleteLabeler(ctx context.Context, id string) error

	// CreateLabelingJob resolves the spec (expanding any labeler reference
	// into rule strings) and submits an async corpus-labeling job for the
	// dataset, returning its queued status with the job ID set.
	// Implementations journal the job-create record durably before
	// returning, so an accepted job survives a crash.
	//
	//darwin:journals
	CreateLabelingJob(ctx context.Context, dataset string, spec autolabel.Spec) (autolabel.JobStatus, error)
	// LabelingJob reports a labeling job's status with progress counters.
	LabelingJob(ctx context.Context, dataset, id string) (autolabel.JobStatus, error)
	// LabelingJobOutput streams a done job's labeled JSONL to w, starting at
	// byte offset (resumable download). It fails with a typed error before
	// writing anything when the job is unknown or not done.
	LabelingJobOutput(ctx context.Context, dataset, id string, offset int64, w io.Writer) error
	// SnubaBaseline mines a Snuba heuristic committee from a gold-labeled
	// seed and scores it (and optionally an interactive committee)
	// corpus-wide — the paper's automatic baseline as one synchronous call.
	SnubaBaseline(ctx context.Context, dataset string, req autolabel.SnubaRequest) (autolabel.SnubaResult, error)

	// IngestSentences appends a validated batch of sentences to the
	// dataset's live corpus, durably (journaled before returning), and
	// extends its index incrementally. Not idempotent: the router attempts
	// it exactly once.
	//
	//darwin:journals
	IngestSentences(ctx context.Context, dataset string, batch []ingest.Sentence) (darwin.IngestResult, error)
}

// RegisterV2 registers the /v2 handler set over b. register is called once
// per route with the "METHOD /pattern" mux pattern.
func RegisterV2(b Backend, register func(pattern string, h http.HandlerFunc)) {
	register("GET /v2/datasets", handleV2Datasets(b))
	register("POST /v2/labelers", handleV2Create(b))
	register("GET /v2/labelers", handleV2List(b))
	register("GET /v2/labelers/{id}", handleV2Get(b))
	register("GET /v2/labelers/{id}/suggestion", handleV2Suggest(b))
	register("POST /v2/labelers/{id}/answers", handleV2Answers(b))
	register("GET /v2/labelers/{id}/report", handleV2Report(b))
	register("GET /v2/labelers/{id}/export", handleV2Export(b))
	register("DELETE /v2/labelers/{id}", handleV2Delete(b))
	register("POST /v2/datasets/{dataset}/labeling-jobs", handleV2JobCreate(b))
	register("GET /v2/datasets/{dataset}/labeling-jobs/{id}", handleV2JobStatus(b))
	register("GET /v2/datasets/{dataset}/labeling-jobs/{id}/output", handleV2JobOutput(b))
	register("POST /v2/datasets/{dataset}/baselines/snuba", handleV2Snuba(b))
	register("POST /v2/datasets/{dataset}/sentences", handleV2Ingest(b))
}

// V2Handler returns a handler serving just the /v2 surface over b — what
// cmd/darwin-router mounts (darwind registers the same routes on its own mux
// alongside /v1 and /healthz).
func V2Handler(b Backend) http.Handler {
	mux := http.NewServeMux()
	RegisterV2(b, func(pattern string, h http.HandlerFunc) { mux.HandleFunc(pattern, h) })
	return mux
}

// defaultPageLimit and maxPageLimit bound the /v2 list endpoints.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// registerV2 wires the /v2 routes onto the server's own mux, with *Server
// itself as the backend.
func (s *Server) registerV2() {
	RegisterV2(s, s.handle)
}

// writeV2Error serves err as the uniform envelope with its taxonomy status.
func writeV2Error(w http.ResponseWriter, err error) {
	writeJSON(w, darwin.HTTPStatus(err), darwin.Envelope(err))
}

// --- the generic /v2 handlers (one closure set over any Backend) ---

// handleV2Create acks 201 only after CreateLabeler has journaled the new
// workspace/session state.
//
//darwin:mutating-handler
func handleV2Create(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req darwin.CreateOptions
		if err := decodeBody(r, &req); err != nil {
			writeV2Error(w, fmt.Errorf("%w: invalid JSON body: %v", darwin.ErrInvalid, err))
			return
		}
		st, err := b.CreateLabeler(r.Context(), req)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	}
}

func handleV2Get(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, err := b.LabelerStatus(r.Context(), r.PathValue("id"))
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

func handleV2List(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit, err := parseLimit(r)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		page, err := b.ListLabelers(r.Context(), r.URL.Query().Get("cursor"), limit)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		if page.Labelers == nil {
			page.Labelers = []darwin.Status{}
		}
		writeJSON(w, http.StatusOK, page)
	}
}

func handleV2Datasets(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		limit, err := parseLimit(r)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		page, err := b.ListDatasets(r.Context(), r.URL.Query().Get("cursor"), limit)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusOK, page)
	}
}

func handleV2Suggest(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		lab, err := b.Labeler(r.PathValue("id"))
		if err != nil {
			writeV2Error(w, err)
			return
		}
		sug, err := lab.Suggest(r.Context())
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sug)
	}
}

// handleV2Answers acks 200 only after the labeler has journaled the applied
// verdicts (the //darwin:journals contract on the answer interfaces).
//
//darwin:mutating-handler
func handleV2Answers(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		lab, err := b.Labeler(r.PathValue("id"))
		if err != nil {
			writeV2Error(w, err)
			return
		}
		var req struct {
			Answers []darwin.Answer `json:"answers"`
		}
		if err := decodeBody(r, &req); err != nil {
			writeV2Error(w, fmt.Errorf("%w: invalid JSON body: %v", darwin.ErrInvalid, err))
			return
		}
		if len(req.Answers) == 0 {
			writeV2Error(w, fmt.Errorf("%w: at least one answer is required", darwin.ErrInvalid))
			return
		}
		var (
			recs     []darwin.RuleRecord
			st       darwin.Status
			batchErr error
		)
		if bs, ok := lab.(darwin.BatchStatusAnswerer); ok {
			// One call returns the post-batch status alongside the records,
			// so the router needs no second Status round trip — and a shard
			// dying between the two calls can no longer 503 a batch that was
			// already durably applied.
			recs, st, batchErr = bs.AnswerBatchStatus(r.Context(), req.Answers)
		} else {
			recs, batchErr = darwin.AnswerBatch(r.Context(), lab, req.Answers)
			if batchErr == nil || len(recs) > 0 {
				var stErr error
				st, stErr = labelerStatus(r, lab)
				if stErr != nil {
					writeV2Error(w, stErr)
					return
				}
			}
		}
		if batchErr != nil && len(recs) == 0 {
			// Nothing applied: a plain error response.
			writeV2Error(w, batchErr)
			return
		}
		resp := struct {
			Applied    int                   `json:"applied"`
			Records    []darwin.RuleRecord   `json:"records"`
			Questions  int                   `json:"questions"`
			BudgetLeft int                   `json:"budget_left"`
			Positives  int                   `json:"positives"`
			Done       bool                  `json:"done"`
			Error      *darwin.ErrorEnvelope `json:"error,omitempty"`
		}{
			Applied:    len(recs),
			Records:    recs,
			Questions:  st.Questions,
			BudgetLeft: st.Budget - st.Questions,
			Positives:  st.Positives,
			Done:       st.Done,
		}
		if len(recs) > 0 {
			// Derive the caller-visible counters from the batch's own last
			// record (its committed question number), not from the racy status
			// read above — a concurrent annotator on the same workspace must
			// not shift this response. Budget is immutable, so st.Budget is
			// safe to combine.
			last := recs[len(recs)-1]
			resp.Questions = last.Question
			resp.BudgetLeft = st.Budget - last.Question
			resp.Positives = last.PositivesAfter
			resp.Done = last.Question >= st.Budget
		}
		if batchErr != nil {
			// Fail-fast mid-batch: report the applied prefix alongside the
			// typed error (nothing applied is rolled back — each applied answer
			// already went through the journal).
			env := darwin.Envelope(batchErr)
			resp.Error = &env
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func handleV2Report(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		lab, err := b.Labeler(r.PathValue("id"))
		if err != nil {
			writeV2Error(w, err)
			return
		}
		rep, err := lab.Report(r.Context())
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	}
}

func handleV2Export(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		lab, err := b.Labeler(r.PathValue("id"))
		if err != nil {
			writeV2Error(w, err)
			return
		}
		serveExport(w, r, lab, writeV2Error)
	}
}

// serveExport streams lab's labeled corpus as JSONL, the export of both API
// versions; writeErr renders an error in the caller's wire shape. Headers
// are sent on first body write, so an export that fails before streaming
// anything (e.g. its shard is down) can still be served as a typed error
// instead of an empty 200; a mid-stream failure can only truncate the body.
func serveExport(w http.ResponseWriter, r *http.Request, lab darwin.Labeler, writeErr func(http.ResponseWriter, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingResponseWriter{w: w}
	if err := lab.Export(r.Context(), cw); err != nil && cw.n == 0 {
		writeErr(w, err)
	}
}

// countingResponseWriter counts body bytes through to the response so
// serveExport knows whether an error arrived before any output.
type countingResponseWriter struct {
	w http.ResponseWriter
	n int64
}

func (cw *countingResponseWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// handleV2Delete acks 204 only after DeleteLabeler has journaled the
// detach/delete.
//
//darwin:mutating-handler
func handleV2Delete(b Backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := b.DeleteLabeler(r.Context(), r.PathValue("id")); err != nil {
			writeV2Error(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

func labelerStatus(r *http.Request, lab darwin.Labeler) (darwin.Status, error) {
	st, ok := lab.(darwin.Statuser)
	if !ok {
		return darwin.Status{}, fmt.Errorf("%w: labeler does not report status", darwin.ErrInternal)
	}
	return st.Status(r.Context())
}

// Page applies cursor pagination over a sorted id list: items strictly after
// cursor, at most limit (clamped to the /v2 page bounds), plus the next
// cursor ("" when the page is last). internal/shard reuses it for its
// fan-out merges.
func Page(ids []string, cursor string, limit int) (pageIDs []string, next string) {
	limit = ClampPageLimit(limit)
	start := 0
	if cursor != "" {
		start = sort.SearchStrings(ids, cursor)
		if start < len(ids) && ids[start] == cursor {
			start++
		}
	}
	end := start + limit
	if end > len(ids) {
		end = len(ids)
	}
	pageIDs = ids[start:end]
	if end < len(ids) {
		next = ids[end-1]
	}
	return pageIDs, next
}

// ClampPageLimit resolves a requested page limit against the /v2 bounds
// (non-positive → default, capped at the maximum).
func ClampPageLimit(limit int) int {
	if limit <= 0 {
		return defaultPageLimit
	}
	if limit > maxPageLimit {
		return maxPageLimit
	}
	return limit
}

func parseLimit(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, nil
	}
	limit, err := strconv.Atoi(raw)
	if err != nil || limit <= 0 {
		return 0, fmt.Errorf("%w: limit must be a positive integer, got %q", darwin.ErrInvalid, raw)
	}
	return limit, nil
}

// --- *Server as the local Backend ---

// CreateLabeler implements Backend.
func (s *Server) CreateLabeler(ctx context.Context, req darwin.CreateOptions) (darwin.Status, error) {
	switch req.Mode {
	case "", darwin.ModeSession:
		return s.createSessionLabeler(ctx, req)
	case darwin.ModeWorkspace:
		return s.createWorkspaceLabeler(ctx, req)
	default:
		return darwin.Status{}, fmt.Errorf("%w: unknown mode %q (want %q or %q)",
			darwin.ErrInvalid, req.Mode, darwin.ModeSession, darwin.ModeWorkspace)
	}
}

// createSessionLabeler validates a session create request, builds the SDK
// adapter and registers it, journaled.
func (s *Server) createSessionLabeler(ctx context.Context, req darwin.CreateOptions) (darwin.Status, error) {
	d, budget, err := s.resolveCreate(req)
	if err != nil {
		return darwin.Status{}, err
	}
	// Reject a full registry or a broken journal before paying for session
	// construction (classifier training plus the engine's index write
	// lock); create re-checks both.
	if s.sessions.sweep(); s.sessions.len() >= s.sessions.max {
		return darwin.Status{}, fmt.Errorf("%w: session limit reached", darwin.ErrUnavailable)
	}
	if err := s.sessions.failure(); err != nil {
		return darwin.Status{}, err
	}
	// The resolved options are journaled, so replay does not depend on the
	// config of the recovering process.
	opts := sessCreateData{SeedRules: req.SeedRules, SeedPositiveIDs: req.SeedPositiveIDs, Budget: budget, Seed: req.Seed}
	lab, err := darwin.NewSession(d.Engine, d.Name, darwin.Options(opts))
	if err != nil {
		return darwin.Status{}, err
	}
	en, err := s.sessions.create(lab, d.Name, opts)
	if err != nil {
		_ = lab.Close(ctx)
		return darwin.Status{}, err
	}
	st, err := en.Status(ctx)
	st.ID = en.id
	return st, err
}

func (s *Server) createWorkspaceLabeler(ctx context.Context, req darwin.CreateOptions) (darwin.Status, error) {
	if req.Annotator == "" {
		return darwin.Status{}, fmt.Errorf("%w: annotator name is required in workspace mode", darwin.ErrInvalid)
	}
	wsID := req.Workspace
	fresh := wsID == ""
	if fresh {
		// Fresh workspace for this labeler; its durability and TTL are the
		// workspace manager's business.
		ws, err := s.createWorkspace(req)
		if err != nil {
			return darwin.Status{}, err
		}
		wsID = ws.ID()
	} else {
		// Joining an existing workspace: the workspace's own dataset,
		// seeds, budget and seed govern; silently ignoring conflicting
		// request fields would hand the caller a labeler over a different
		// corpus than they asked for.
		ws, ok := s.mgr.Get(wsID)
		if !ok {
			return darwin.Status{}, fmt.Errorf("%w: unknown or expired workspace %q", darwin.ErrNotFound, wsID)
		}
		if req.Dataset != "" && req.Dataset != ws.Dataset() {
			return darwin.Status{}, fmt.Errorf("%w: workspace %s serves dataset %q, not %q",
				darwin.ErrInvalid, wsID, ws.Dataset(), req.Dataset)
		}
		if len(req.SeedRules) > 0 || len(req.SeedPositiveIDs) > 0 || req.Budget > 0 || req.Seed != 0 {
			return darwin.Status{}, fmt.Errorf("%w: seed_rules, seed_positive_ids, budget and seed cannot be set when joining an existing workspace", darwin.ErrInvalid)
		}
	}
	// From here on a failure must not orphan a freshly created (and
	// journaled) workspace the client never learned the id of.
	fail := func(err error) (darwin.Status, error) {
		if fresh {
			// Best-effort cleanup on an already-failing path; the Writer's
			// sticky error resurfaces on the next journaling operation.
			_, _ = s.mgr.Evict(wsID, "labeler create failed")
		}
		return darwin.Status{}, err
	}
	lab, err := darwin.AttachWorkspace(s.mgr, wsID, req.Annotator)
	if err != nil {
		return fail(err)
	}
	st, err := lab.Status(ctx)
	if err != nil {
		return darwin.Status{}, err
	}
	st.ID = workspace.LabelerID(wsID, req.Annotator)
	return st, nil
}

// resolveCreate validates a request for a fresh session or workspace and
// resolves its budget against the server default.
func (s *Server) resolveCreate(req darwin.CreateOptions) (*Dataset, int, error) {
	d, ok := s.datasets[req.Dataset]
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown dataset %q (have %v)", darwin.ErrNotFound, req.Dataset, s.DatasetNames())
	}
	if len(req.SeedRules) > s.cfg.MaxSeedRules {
		return nil, 0, fmt.Errorf("%w: too many seed rules (%d > %d)", darwin.ErrInvalid, len(req.SeedRules), s.cfg.MaxSeedRules)
	}
	if req.Budget <= 0 {
		return d, s.cfg.DefaultBudget, nil
	}
	return d, req.Budget, nil
}

// createWorkspace validates a fresh-workspace request and creates the
// workspace, journaled; /v1 and /v2 creation share it. It returns a typed
// error: a full manager or a dead journal is darwin.ErrUnavailable (retry
// later).
func (s *Server) createWorkspace(req darwin.CreateOptions) (*workspace.Workspace, error) {
	d, budget, err := s.resolveCreate(req)
	if err != nil {
		return nil, err
	}
	ws, err := s.mgr.Create(d.Name, workspace.Options{
		SeedRules:       req.SeedRules,
		SeedPositiveIDs: req.SeedPositiveIDs,
		Budget:          budget,
		Seed:            req.Seed,
	})
	return ws, darwin.MapWorkspaceErr(err)
}

// Labeler implements Backend: it maps a labeler id to its darwin.Labeler.
// A workspace labeler id resolves through the workspace manager, which
// tracks every live attachment, recovered and adopted ones included.
func (s *Server) Labeler(id string) (darwin.Labeler, error) {
	if en, ok := s.sessions.get(id); ok {
		return en, nil
	}
	if a, ok := s.mgr.Attachment(id); ok {
		return darwin.AdoptWorkspace(s.mgr, a.Workspace, a.Annotator)
	}
	return nil, fmt.Errorf("%w: unknown or expired labeler %q", darwin.ErrNotFound, id)
}

// LabelerStatus implements Backend: a status peek that never refreshes idle
// timers, so periodic monitoring cannot keep abandoned labelers alive
// forever. A workspace status reads the manager's attachment index and the
// workspace's published counters, so it takes no workspace lock and never
// waits on an in-flight suggest.
func (s *Server) LabelerStatus(ctx context.Context, id string) (darwin.Status, error) {
	if en, ok := s.sessions.peek(id); ok {
		st, err := en.Status(ctx)
		if err != nil {
			return darwin.Status{}, err
		}
		st.ID = id
		return st, nil
	}
	if a, ok := s.mgr.Attachment(id); ok {
		if ws, live := s.mgr.Peek(a.Workspace); live {
			questions, positives, done := ws.Stats()
			return darwin.Status{
				ID:        id,
				Dataset:   ws.Dataset(),
				Mode:      darwin.ModeWorkspace,
				Workspace: a.Workspace,
				Annotator: a.Annotator,
				Budget:    ws.Budget(),
				Questions: questions,
				Positives: positives,
				Done:      done,
			}, nil
		}
	}
	return darwin.Status{}, fmt.Errorf("%w: unknown or expired labeler %q", darwin.ErrNotFound, id)
}

// ListLabelers implements Backend.
func (s *Server) ListLabelers(ctx context.Context, cursor string, limit int) (darwin.LabelerPage, error) {
	ids := append(s.sessions.ids(), s.mgr.LabelerIDs(s.mgr.IDs())...)
	sort.Strings(ids)
	pageIDs, next := Page(ids, cursor, limit)
	page := darwin.LabelerPage{Labelers: make([]darwin.Status, 0, len(pageIDs)), NextCursor: next}
	for _, id := range pageIDs {
		st, err := s.LabelerStatus(ctx, id)
		if err != nil {
			continue // evicted between listing and resolution
		}
		page.Labelers = append(page.Labelers, st)
	}
	return page, nil
}

// ListDatasets implements Backend.
func (s *Server) ListDatasets(ctx context.Context, cursor string, limit int) (darwin.DatasetPage, error) {
	names, next := Page(s.DatasetNames(), cursor, limit)
	return darwin.DatasetPage{Datasets: names, NextCursor: next}, nil
}

// DeleteLabeler implements Backend.
func (s *Server) DeleteLabeler(ctx context.Context, id string) error {
	if a, ok := s.mgr.Attachment(id); ok {
		// A detach that fails (broken journal) leaves the attachment, and so
		// its id, in place, so the DELETE can be retried.
		err := s.mgr.Detach(a.Workspace, a.Annotator)
		if err != nil && !errors.Is(err, workspace.ErrUnknownWorkspace) && !errors.Is(err, workspace.ErrUnknownAnnotator) {
			return darwin.MapWorkspaceErr(err)
		}
		return nil
	}
	return s.sessions.delete(ctx, id)
}
