package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/pkg/darwin"
)

// This file is the legacy /v1 surface, a wire-format shim over the calls the
// /v2 handlers make. Session routes resolve through the Backend methods
// (CreateLabeler, Labeler, DeleteLabeler); workspace routes bind the named
// annotator with darwin.BindWorkspace. Suggest, answer and export are then
// one encoder each over a darwin.Labeler, so journaling, step timing and
// error classes are the labeler's, as on /v2; only the wire shapes differ.

// --- v1 wire format ---

type errorJSON struct {
	Error string `json:"error"`
}

type healthJSON struct {
	Status     string   `json:"status"`
	Datasets   []string `json:"datasets"`
	Sessions   int      `json:"sessions"`
	Workspaces int      `json:"workspaces"`
	// Recovered counts workspaces replayed from the journal at startup.
	Recovered int `json:"recovered,omitempty"`
	// Step-latency aggregate across every suggest call served (wall-clock of
	// the suggest step as seen by the handler).
	Steps          int64   `json:"steps"`
	LastStepMillis float64 `json:"last_step_ms"`
	AvgStepMillis  float64 `json:"avg_step_ms"`
}

// createRequest creates a session or a workspace.
type createRequest struct {
	Dataset         string   `json:"dataset"`
	SeedRules       []string `json:"seed_rules,omitempty"`
	SeedPositiveIDs []int    `json:"seed_positive_ids,omitempty"`
	Budget          int      `json:"budget,omitempty"`
	Seed            int64    `json:"seed,omitempty"`
}

func (req createRequest) options(mode string) darwin.CreateOptions {
	return darwin.CreateOptions{
		Dataset:         req.Dataset,
		Mode:            mode,
		SeedRules:       req.SeedRules,
		SeedPositiveIDs: req.SeedPositiveIDs,
		Budget:          req.Budget,
		Seed:            req.Seed,
	}
}

type createResponse struct {
	ID        string           `json:"id"`
	Dataset   string           `json:"dataset"`
	Budget    int              `json:"budget"`
	Positives int              `json:"positives"`
	SeedRules []ruleRecordJSON `json:"seed_rules,omitempty"`
}

// ruleRecordJSON is the v1 rule record, which never carried coverage IDs.
// Annotator is set on workspace records only.
type ruleRecordJSON struct {
	Question       int    `json:"question"`
	Key            string `json:"key"`
	Rule           string `json:"rule"`
	Coverage       int    `json:"coverage"`
	Accepted       bool   `json:"accepted"`
	AddedIDs       []int  `json:"added_ids,omitempty"`
	PositivesAfter int    `json:"positives_after"`
	Annotator      string `json:"annotator,omitempty"`
}

// suggestResponse carries the pending suggestion. The numeric fields must
// not be omitempty: a zero benefit is a meaningful value the annotator (or a
// driving program) reads.
type suggestResponse struct {
	Done        bool            `json:"done"`
	Question    int             `json:"question"`
	BudgetLeft  int             `json:"budget_left"`
	Key         string          `json:"key,omitempty"`
	Rule        string          `json:"rule,omitempty"`
	Coverage    int             `json:"coverage"`
	NewCoverage int             `json:"new_coverage"`
	Benefit     float64         `json:"benefit"`
	AvgBenefit  float64         `json:"avg_benefit"`
	Samples     []darwin.Sample `json:"samples,omitempty"`
}

// answerRequest is a verdict on the pending suggestion. Annotator names the
// answering workspace annotator; sessions ignore it.
type answerRequest struct {
	Annotator string `json:"annotator,omitempty"`
	Key       string `json:"key"`
	Accept    bool   `json:"accept"`
}

type answerResponse struct {
	Record     ruleRecordJSON `json:"record"`
	Done       bool           `json:"done"`
	BudgetLeft int            `json:"budget_left"`
	Positives  int            `json:"positives"`
}

type reportResponse struct {
	ID        string `json:"id"`
	Dataset   string `json:"dataset"`
	Questions int    `json:"questions"`
	Budget    int    `json:"budget"`
	Done      bool   `json:"done"`
	Positives int    `json:"positives"`
	// Per-session step latency: the last suggest that did real work and the
	// average across all of them.
	LastStepMillis float64          `json:"last_step_ms"`
	AvgStepMillis  float64          `json:"avg_step_ms"`
	Accepted       []ruleRecordJSON `json:"accepted"`
	History        []ruleRecordJSON `json:"history"`
}

type wsAttachRequest struct {
	Annotator string `json:"annotator"`
}

type wsAnnotatorJSON struct {
	Name       string `json:"name"`
	Questions  int    `json:"questions"`
	Accepts    int    `json:"accepts"`
	PendingKey string `json:"pending_key,omitempty"`
}

// wsReportResponse carries only state that is deterministic under replay
// (no process-local counters), so clients may compare reports across
// restarts byte for byte.
type wsReportResponse struct {
	ID          string                 `json:"id"`
	Dataset     string                 `json:"dataset"`
	Budget      int                    `json:"budget"`
	Questions   int                    `json:"questions"`
	Done        bool                   `json:"done"`
	Positives   int                    `json:"positives"`
	PositiveIDs []int                  `json:"positive_ids"`
	Accepted    []ruleRecordJSON       `json:"accepted"`
	History     []ruleRecordJSON       `json:"history"`
	Annotators  []wsAnnotatorJSON      `json:"annotators"`
	Classifier  *darwin.ClassifierInfo `json:"classifier"`
	EventSeq    uint64                 `json:"event_seq"`
}

// recordJSON renders an SDK rule record in the v1 wire shape.
func recordJSON(rec darwin.RuleRecord) ruleRecordJSON {
	return ruleRecordJSON{
		Question:       rec.Question,
		Key:            rec.Key,
		Rule:           rec.Rule,
		Coverage:       rec.Coverage,
		Accepted:       rec.Accepted,
		AddedIDs:       rec.AddedIDs,
		PositivesAfter: rec.PositivesAfter,
		Annotator:      rec.Annotator,
	}
}

func recordsJSON(recs []darwin.RuleRecord) []ruleRecordJSON {
	out := make([]ruleRecordJSON, 0, len(recs))
	for _, rec := range recs {
		out = append(out, recordJSON(rec))
	}
	return out
}

// createdJSON is the v1 create response of a labeler or workspace whose
// report is rep.
func createdJSON(id string, rep darwin.Report) createResponse {
	return createResponse{
		ID:        id,
		Dataset:   rep.Dataset,
		Budget:    rep.Budget,
		Positives: rep.Positives,
		SeedRules: recordsJSON(rep.Accepted),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// writeV1Error renders a typed error in the legacy v1 shape {"error": msg},
// with the HTTP status taken from the shared taxonomy mapping. The sentinel
// prefix is stripped — v1 clients predate the taxonomy.
func writeV1Error(w http.ResponseWriter, err error) {
	writeError(w, darwin.HTTPStatus(err), "%s", darwin.Envelope(err).Message)
}

// decodeBody decodes a JSON request body into v; every handler that reads
// a JSON body goes through it. Syntax errors keep encoding/json's message.
// A value of the wrong JSON type is reported by the JSON field and the JSON
// kind received, never by the Go type it was to be decoded into, so that
// renaming a Go type cannot change a wire message.
func decodeBody(r *http.Request, v any) error {
	err := json.NewDecoder(r.Body).Decode(v)
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		return err
	}
	kind, _, _ := strings.Cut(te.Value, " ") // "number 1.5" -> "number"
	if te.Field == "" {
		return fmt.Errorf("json: cannot unmarshal %s into the request body", kind)
	}
	return fmt.Errorf("json: cannot unmarshal %s into field %q", kind, te.Field)
}

// decodeV1 reads a JSON request body into v, writing the v1 400 when it is
// malformed.
func decodeV1(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeBody(r, v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// decodeV1Answer reads an answer body. v1 never supported blind answers, so
// an empty key is a protocol error (409).
func decodeV1Answer(w http.ResponseWriter, r *http.Request) (answerRequest, bool) {
	var req answerRequest
	if !decodeV1(w, r, &req) {
		return req, false
	}
	if req.Key == "" {
		writeError(w, http.StatusConflict, "answer key is required")
		return req, false
	}
	return req, true
}

// --- the v1 encoders, one per verb over the labelers this process serves ---

// localLabeler is what the v1 encoders use of a solo session or a workspace
// attachment.
type localLabeler interface {
	darwin.Labeler
	darwin.Statuser
	darwin.BatchStatusAnswerer
}

// writeV1Suggest serves lab's pending suggestion. A finished labeler is a 200
// with done set, not an error.
func writeV1Suggest(w http.ResponseWriter, r *http.Request, lab localLabeler) {
	sug, err := lab.Suggest(r.Context())
	if errors.Is(err, darwin.ErrBudgetExhausted) {
		st, _ := lab.Status(r.Context())
		writeJSON(w, http.StatusOK, suggestResponse{Done: true, BudgetLeft: st.Budget - st.Questions})
		return
	}
	if err != nil {
		writeV1Error(w, err)
		return
	}
	// Question/BudgetLeft were fixed when the suggestion was assigned, so
	// concurrent annotators of one workspace see distinct question numbers.
	writeJSON(w, http.StatusOK, suggestResponse{
		Question:    sug.Question,
		BudgetLeft:  sug.BudgetLeft,
		Key:         sug.Key,
		Rule:        sug.Rule,
		Coverage:    sug.Coverage,
		NewCoverage: sug.NewCoverage,
		Benefit:     sug.Benefit,
		AvgBenefit:  sug.AvgBenefit,
		Samples:     sug.Samples,
	})
}

// writeV1Answer applies one verdict and acks 200 only after the labeler has
// journaled it.
//
//darwin:mutating-handler
func writeV1Answer(w http.ResponseWriter, r *http.Request, lab localLabeler, req answerRequest) {
	recs, st, err := lab.AnswerBatchStatus(r.Context(), []darwin.Answer{{Key: req.Key, Accept: req.Accept}})
	if err != nil {
		writeV1Error(w, err)
		return
	}
	// Derive done/budget from the answered record itself (rec.Question is
	// the question number this answer was committed as) and the immutable
	// budget, so a concurrent annotator cannot shift this response.
	rec := recs[0]
	writeJSON(w, http.StatusOK, answerResponse{
		Record:     recordJSON(rec),
		Done:       rec.Question >= st.Budget,
		BudgetLeft: st.Budget - rec.Question,
		Positives:  rec.PositivesAfter,
	})
}

// --- session handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	steps := stepHist.Count()
	var avg time.Duration
	if steps > 0 {
		avg = time.Duration(stepHist.Sum() / float64(steps) * float64(time.Second))
	}
	writeJSON(w, http.StatusOK, healthJSON{
		Status:         "ok",
		Datasets:       s.DatasetNames(),
		Sessions:       s.sessions.len(),
		Workspaces:     s.mgr.Len(),
		Recovered:      s.recovery.Workspaces,
		Steps:          int64(steps),
		LastStepMillis: millis(time.Duration(stepHist.Last() * float64(time.Second))),
		AvgStepMillis:  millis(avg),
	})
}

func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// handleCreate acks 201 only after CreateLabeler has journaled the session
// create.
//
//darwin:mutating-handler
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeV1(w, r, &req) {
		return
	}
	st, err := s.CreateLabeler(r.Context(), req.options(darwin.ModeSession))
	if err != nil {
		writeV1Error(w, err)
		return
	}
	lab, err := s.Labeler(st.ID)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	rep, err := lab.Report(r.Context())
	if err != nil {
		writeV1Error(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, createdJSON(st.ID, rep))
}

// v1Session resolves the {id} path value through Labeler to a live solo
// session, writing the v1 404 when it is unknown, expired or not a session.
func (s *Server) v1Session(w http.ResponseWriter, r *http.Request) (*soloSession, bool) {
	id := r.PathValue("id")
	lab, _ := s.Labeler(id)
	sess, ok := lab.(*soloSession)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired session %q", id)
	}
	return sess, ok
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	if lab, ok := s.v1Session(w, r); ok {
		writeV1Suggest(w, r, lab)
	}
}

// handleAnswer acks through writeV1Answer, after the session journaled the
// verdict.
//
//darwin:mutating-handler
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	lab, ok := s.v1Session(w, r)
	if !ok {
		return
	}
	if req, ok := decodeV1Answer(w, r); ok {
		writeV1Answer(w, r, lab, req)
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	lab, ok := s.v1Session(w, r)
	if !ok {
		return
	}
	rep, err := lab.Report(r.Context())
	if err != nil {
		writeV1Error(w, err)
		return
	}
	lastStep, avgStep := lab.StepLatency()
	writeJSON(w, http.StatusOK, reportResponse{
		ID:             lab.id,
		Dataset:        rep.Dataset,
		Questions:      rep.Questions,
		Budget:         rep.Budget,
		Done:           rep.Done,
		Positives:      rep.Positives,
		LastStepMillis: millis(lastStep),
		AvgStepMillis:  millis(avgStep),
		Accepted:       recordsJSON(rep.Accepted),
		History:        recordsJSON(rep.History),
	})
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if lab, ok := s.v1Session(w, r); ok {
		serveExport(w, r, lab, writeV1Error)
	}
}

// handleDelete acks 204 only after DeleteLabeler has journaled the session
// delete.
//
//darwin:mutating-handler
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	lab, ok := s.v1Session(w, r)
	if !ok {
		return
	}
	if err := s.DeleteLabeler(r.Context(), lab.id); err != nil {
		if errors.Is(err, darwin.ErrNotFound) {
			writeError(w, http.StatusNotFound, "unknown or expired session %q", lab.id)
		} else {
			writeV1Error(w, err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- workspace handlers ---

// handleWSCreate acks 201 only after createWorkspace has journaled (and
// synced) the new workspace.
//
//darwin:mutating-handler
func (s *Server) handleWSCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeV1(w, r, &req) {
		return
	}
	ws, err := s.createWorkspace(req.options(darwin.ModeWorkspace))
	if err != nil {
		writeV1Error(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, createdJSON(ws.ID(), darwin.WorkspaceReport(ws.Report())))
}

// handleWSAttach acks 201 only after the attach event is journaled.
//
//darwin:mutating-handler
func (s *Server) handleWSAttach(w http.ResponseWriter, r *http.Request) {
	var req wsAttachRequest
	if !decodeV1(w, r, &req) {
		return
	}
	if req.Annotator == "" {
		writeError(w, http.StatusBadRequest, "annotator name is required")
		return
	}
	wsID := r.PathValue("id")
	if err := s.mgr.Attach(wsID, req.Annotator); err != nil {
		writeV1Error(w, darwin.MapWorkspaceErr(err))
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"annotator": req.Annotator})
}

// handleWSDetach acks 204 only after the detach event is journaled.
//
//darwin:mutating-handler
func (s *Server) handleWSDetach(w http.ResponseWriter, r *http.Request) {
	wsID, name := r.PathValue("id"), r.PathValue("name")
	if err := s.mgr.Detach(wsID, name); err != nil {
		writeV1Error(w, darwin.MapWorkspaceErr(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWSSuggest(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("annotator")
	if name == "" {
		writeError(w, http.StatusBadRequest, "annotator query parameter is required")
		return
	}
	lab, err := darwin.BindWorkspace(s.mgr, r.PathValue("id"), name)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	writeV1Suggest(w, r, lab)
}

// handleWSAnswer acks through writeV1Answer, after the workspace journaled
// the verdict.
//
//darwin:mutating-handler
func (s *Server) handleWSAnswer(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeV1Answer(w, r)
	if !ok {
		return
	}
	lab, err := darwin.BindWorkspace(s.mgr, r.PathValue("id"), req.Annotator)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	writeV1Answer(w, r, lab, req)
}

func (s *Server) handleWSReport(w http.ResponseWriter, r *http.Request) {
	ws, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired workspace %q", r.PathValue("id"))
		return
	}
	// One snapshot feeds the records and the per-annotator counters.
	rep := ws.Report()
	sdk := darwin.WorkspaceReport(rep)
	resp := wsReportResponse{
		ID:          rep.ID,
		Dataset:     rep.Dataset,
		Budget:      rep.Budget,
		Questions:   rep.Questions,
		Done:        rep.Done,
		Positives:   rep.PositiveCount,
		PositiveIDs: rep.Positives,
		Accepted:    recordsJSON(sdk.Accepted),
		History:     recordsJSON(sdk.History),
		Classifier:  sdk.Classifier,
		EventSeq:    rep.EventSeq,
	}
	for _, an := range rep.Annotators {
		resp.Annotators = append(resp.Annotators, wsAnnotatorJSON(an))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWSExport(w http.ResponseWriter, r *http.Request) {
	lab, err := darwin.BindWorkspace(s.mgr, r.PathValue("id"), "")
	if err != nil {
		writeV1Error(w, err)
		return
	}
	serveExport(w, r, lab, writeV1Error)
}

// handleWSDelete evicts a workspace. The 204 is only sent once the eviction
// record is journaled AND fsynced: acknowledging a delete that a crash could
// resurrect on replay would violate the durability contract.
//
//darwin:mutating-handler
func (s *Server) handleWSDelete(w http.ResponseWriter, r *http.Request) {
	existed, err := s.mgr.Evict(r.PathValue("id"), "deleted")
	if !existed {
		writeError(w, http.StatusNotFound, "unknown or expired workspace %q", r.PathValue("id"))
		return
	}
	if err != nil {
		writeV1Error(w, darwin.MapWorkspaceErr(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
