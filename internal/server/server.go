// Package server hosts concurrent interactive Darwin rule-discovery
// labelers over HTTP. One read-only core.Engine is shared per loaded
// dataset, so the expensive corpus preprocessing and index build are paid
// once and amortized across every labeler.
//
// The canonical surface is the versioned /v2 API: one handler set generated
// over the public pkg/darwin Labeler interface, serving solo sessions and
// workspace attachments uniformly as "labelers", with a uniform JSON error
// envelope {code, message, retryable}, batch answers, and paginated list
// endpoints (see v2.go and api/openapi.yaml):
//
//	GET    /v2/datasets                     served datasets (paginated)
//	POST   /v2/labelers                     create {dataset, mode, ...}
//	GET    /v2/labelers                     list live labelers (paginated)
//	GET    /v2/labelers/{id}                labeler status
//	GET    /v2/labelers/{id}/suggestion     pending candidate rule
//	POST   /v2/labelers/{id}/answers        {answers: [{key, accept}...]} batch
//	GET    /v2/labelers/{id}/report         deterministic discovery report
//	GET    /v2/labelers/{id}/export         JSONL labeled corpus
//	DELETE /v2/labelers/{id}                close (delete session / detach annotator)
//
// The legacy /v1 endpoints remain as thin adapters over the same SDK
// adapters — same state, same semantics, v1 wire shapes:
//
//	GET  /healthz                      liveness + dataset/session counts
//	POST /v1/sessions                  create a session {dataset, seed_rules, ...}
//	GET  /v1/sessions/{id}/suggest     next candidate rule to verify
//	POST /v1/sessions/{id}/answer      {key, accept} verdict for the pending rule
//	GET  /v1/sessions/{id}/report      accepted rules + full query history
//	GET  /v1/sessions/{id}/export      JSONL labeled corpus (text/plain lines)
//	DELETE /v1/sessions/{id}           drop a session early
//
// Multi-annotator workspaces (durable when a journal is configured — see
// internal/workspace and internal/journal):
//
//	POST /v1/workspaces                          create {dataset, seed_rules, ...}
//	POST /v1/workspaces/{id}/annotators          attach {annotator}
//	DELETE /v1/workspaces/{id}/annotators/{name} detach an annotator
//	GET  /v1/workspaces/{id}/suggest?annotator=a next rule assigned to annotator a
//	POST /v1/workspaces/{id}/answer              {annotator, key, accept}
//	GET  /v1/workspaces/{id}/report              shared rules/history + per-annotator stats
//	GET  /v1/workspaces/{id}/export              JSONL labeled corpus of the shared P
//	DELETE /v1/workspaces/{id}                   evict a workspace
//
// When Config.Token is set, every /v1/* and /v2/* endpoint requires
// "Authorization: Bearer <token>" (healthz stays open); Config.RatePerSec
// adds a per-IP token-bucket rate limit across all endpoints.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"repro/internal/autolabel"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/replicate"
	"repro/internal/workspace"
	"repro/pkg/darwin"
)

// Dataset is one corpus served by the server: a name and the shared engine
// built over it. The engine (and the corpus and index behind it) must not be
// mutated after the server starts; sessions only read it.
type Dataset struct {
	Name   string
	Engine *core.Engine
}

// Config tunes the server.
type Config struct {
	// SessionTTL evicts sessions idle longer than this (default 30m).
	SessionTTL time.Duration
	// MaxSessions bounds the number of live sessions (default 1024).
	MaxSessions int
	// DefaultBudget is used for sessions that do not request a budget
	// (0 keeps each engine's configured budget).
	DefaultBudget int
	// MaxSeedRules bounds how many seed rules one create request may carry
	// (default 16), keeping a single request from monopolizing the index
	// write lock.
	MaxSeedRules int

	// JournalPath, when non-empty, makes workspaces durable: every
	// workspace event is appended to this JSONL write-ahead log, and New
	// replays it to recover workspaces from a previous process.
	JournalPath string
	// WorkspaceTTL evicts workspaces idle longer than this (default 2h).
	WorkspaceTTL time.Duration
	// MaxWorkspaces bounds the number of live workspaces (default 256).
	MaxWorkspaces int
	// CompactEvery compacts the journal (snapshot+truncate) after this many
	// appends (default 4096; negative disables).
	CompactEvery int
	// AttachmentTTL detaches individual annotators idle longer than this
	// during sweeps (0 disables). The detach is journaled, so it replays and
	// replicates like a client-issued one.
	AttachmentTTL time.Duration

	// JobsDir, when non-empty, enables the /v2 labeling-job subsystem: job
	// records are journaled under it (crash-survivable status) and finished
	// outputs live there until their TTL. Empty leaves the job endpoints
	// registered but answering 503.
	JobsDir string
	// JobWorkers bounds concurrent labeling-job execution (default 2).
	JobWorkers int
	// JobTTL retains terminal labeling jobs and their outputs (default 1h).
	JobTTL time.Duration

	// JournalSessions additionally journals plain (non-workspace) session
	// lifecycle and answers into "<JournalPath>.sessions", so solo sessions
	// recover across a restart like workspaces do. Requires JournalPath.
	JournalSessions bool

	// ReplicationSync blocks acknowledged workspace writes until the
	// dataset's replication follower acks them (bounded by
	// ReplicationSyncTimeout, default 2s). Only meaningful with a journal;
	// the replication endpoints themselves are active whenever JournalPath
	// is set.
	ReplicationSync        bool
	ReplicationSyncTimeout time.Duration

	// Token, when non-empty, requires "Authorization: Bearer <token>" on
	// every /v1/* and /v2/* endpoint.
	Token string
	// RatePerSec, when positive, rate-limits each client IP to this many
	// requests per second with a burst of RateBurst (default 2×RatePerSec).
	RatePerSec float64
	// RateBurst is the per-IP burst size.
	RateBurst int

	// Daemon labels this process's series in /metrics and request logs
	// (default "darwind"; the router runs its own edge with
	// "darwin-router").
	Daemon string
	// AccessLog, when non-nil, receives one structured line per request
	// (method, route, status, duration, request id).
	AccessLog *slog.Logger
}

// Server is the HTTP front end. It implements http.Handler.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped with auth / rate-limit middleware
	routes   []string     // every registered "METHOD /pattern", sorted
	datasets map[string]*Dataset
	store    *Store
	mgr      *workspace.Manager
	labelers *labelerRegistry
	recovery workspace.RecoveryStats
	// repl is the journal-replication node (nil without a journal; the
	// replication endpoints then answer 503).
	repl *replicate.Node
	// jobs is the labeling-job manager (nil without Config.JobsDir; the job
	// endpoints then answer 503).
	jobs *autolabel.Manager
	// sessJournal journals solo-session events when Config.JournalSessions
	// is set (nil otherwise).
	sessJournal *sessionJournal
}

// New creates a server over the given datasets. When Config.JournalPath is
// set it opens the journal and recovers all journaled workspaces before
// returning, so the server starts serving with the pre-crash state live.
func New(cfg Config, datasets ...*Dataset) (*Server, error) {
	if len(datasets) == 0 {
		return nil, errors.New("server: at least one dataset is required")
	}
	if cfg.MaxSeedRules <= 0 {
		cfg.MaxSeedRules = 16
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		datasets: make(map[string]*Dataset, len(datasets)),
		store:    NewStore(cfg.SessionTTL, cfg.MaxSessions),
		labelers: newLabelerRegistry(),
	}
	engines := make(map[string]*core.Engine, len(datasets))
	for _, d := range datasets {
		if d == nil || d.Engine == nil || d.Name == "" {
			return nil, errors.New("server: dataset must have a name and an engine")
		}
		if _, dup := s.datasets[d.Name]; dup {
			return nil, fmt.Errorf("server: duplicate dataset %q", d.Name)
		}
		s.datasets[d.Name] = d
		engines[d.Name] = d.Engine
	}
	var jw *journal.Writer
	var events []journal.Event
	if cfg.JournalPath != "" {
		var err error
		jw, events, err = journal.Open(cfg.JournalPath, journal.Options{})
		if err != nil {
			return nil, err
		}
	}
	s.mgr = workspace.NewManager(engines, jw, workspace.ManagerConfig{
		TTL:           cfg.WorkspaceTTL,
		MaxWorkspaces: cfg.MaxWorkspaces,
		CompactEvery:  cfg.CompactEvery,
		AttachmentTTL: cfg.AttachmentTTL,
	})
	if len(events) > 0 {
		s.recovery = s.mgr.Recover(events)
		// Re-derive the /v2 labeler registry from the recovered workspaces:
		// attachment labeler ids are a pure function of (workspace,
		// annotator), so clients resume the ids they held before the restart.
		s.rebuildLabelers()
	}
	if jw != nil {
		// Replication rides the journal: stream it out when the router names
		// this shard a primary, keep warm standbys when it names it a
		// follower. Recovers on-disk standbys from a previous process.
		s.repl = replicate.NewNode(replicate.NodeOptions{
			Manager:       s.mgr,
			Journal:       jw,
			Engines:       engines,
			JournalPath:   cfg.JournalPath,
			Sync:          cfg.ReplicationSync,
			SyncTimeout:   cfg.ReplicationSyncTimeout,
			Logf:          log.Printf,
			LabelersFor:   s.labelersFor,
			AdoptLabelers: s.adoptLabelers,
			DropLabelers:  s.dropLabelers,
		})
	}
	if cfg.JournalSessions {
		if cfg.JournalPath == "" {
			return nil, errors.New("server: JournalSessions requires JournalPath")
		}
		sj, err := openSessionJournal(cfg.JournalPath+".sessions", s)
		if err != nil {
			return nil, err
		}
		s.sessJournal = sj
	}
	if cfg.JobsDir != "" {
		jobs, err := autolabel.NewManager(autolabel.ManagerConfig{
			Dir:     cfg.JobsDir,
			Workers: cfg.JobWorkers,
			TTL:     cfg.JobTTL,
			Logf:    log.Printf,
		}, func(dataset string) (*core.Engine, bool) {
			eng, ok := engines[dataset]
			return eng, ok
		})
		if err != nil {
			return nil, err
		}
		s.jobs = jobs
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", obs.Default().Handler().ServeHTTP)
	s.handle("POST /v1/sessions", s.handleCreate)
	s.handle("GET /v1/sessions/{id}/suggest", s.handleSuggest)
	s.handle("POST /v1/sessions/{id}/answer", s.handleAnswer)
	s.handle("GET /v1/sessions/{id}/report", s.handleReport)
	s.handle("GET /v1/sessions/{id}/export", s.handleExport)
	s.handle("DELETE /v1/sessions/{id}", s.handleDelete)
	s.handle("POST /v1/workspaces", s.handleWSCreate)
	s.handle("POST /v1/workspaces/{id}/annotators", s.handleWSAttach)
	s.handle("DELETE /v1/workspaces/{id}/annotators/{name}", s.handleWSDetach)
	s.handle("GET /v1/workspaces/{id}/suggest", s.handleWSSuggest)
	s.handle("POST /v1/workspaces/{id}/answer", s.handleWSAnswer)
	s.handle("GET /v1/workspaces/{id}/report", s.handleWSReport)
	s.handle("GET /v1/workspaces/{id}/export", s.handleWSExport)
	s.handle("DELETE /v1/workspaces/{id}", s.handleWSDelete)
	s.registerV2()
	s.registerReplication()
	sort.Strings(s.routes)
	if cfg.Daemon == "" {
		cfg.Daemon = "darwind"
		s.cfg.Daemon = "darwind"
	}
	// Live-object gauges are callbacks so /metrics and /healthz read the
	// same stores at scrape time. Last registration wins, so repeated server
	// construction in tests tracks the newest instance.
	obs.Default().GaugeFunc("darwin_sessions_live",
		"Live solo sessions in the store.",
		func() float64 { return float64(s.store.Len()) })
	obs.Default().GaugeFunc("darwin_workspaces_live",
		"Live workspaces in the manager.",
		func() float64 { return float64(s.mgr.Len()) })
	// Seed the per-dataset corpus and coverage-container gauges; ingest
	// refreshes them on every acknowledged batch.
	s.updateEngineGauges()
	// Instrumentation wraps the auth/rate-limit middleware so 401s and 429s
	// are counted and logged too.
	s.handler = obs.Instrument(obs.Default(), cfg.Daemon, cfg.AccessLog, s.middleware(s.mux))
	return s, nil
}

// handle registers one route and records it for Routes (which the OpenAPI
// honesty test audits against api/openapi.yaml).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
	s.routes = append(s.routes, pattern)
}

// Routes returns every registered route as "METHOD /pattern", sorted. The
// checked-in OpenAPI spec is tested against this list.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Store exposes the session store (for the janitor and diagnostics).
func (s *Server) Store() *Store { return s.store }

// Workspaces exposes the workspace manager (janitor, shutdown flush,
// diagnostics).
func (s *Server) Workspaces() *workspace.Manager { return s.mgr }

// Recovery reports what was replayed from the journal at startup.
func (s *Server) Recovery() workspace.RecoveryStats { return s.recovery }

// Close stops replication (keeping standbys warm on disk), then flushes and
// closes the workspace journal. Call after the HTTP server has drained.
func (s *Server) Close() error {
	if s.jobs != nil {
		// Stop job workers first: an interrupted job keeps no terminal
		// record, so the next process re-runs it to the identical bytes.
		if err := s.jobs.Close(); err != nil {
			log.Printf("server: close job manager: %v", err)
		}
	}
	if s.sessJournal != nil {
		if err := s.sessJournal.Close(); err != nil {
			log.Printf("server: close session journal: %v", err)
		}
	}
	if s.repl != nil {
		s.repl.Close()
	}
	return s.mgr.Close()
}

// Dataset returns the served dataset by name, or nil when unknown. The
// datasets map is fixed at construction, so this needs no locking.
func (s *Server) Dataset(name string) *Dataset { return s.datasets[name] }

// DatasetNames returns the served dataset names, sorted.
func (s *Server) DatasetNames() []string {
	out := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// newSessionLabeler validates a create request and builds the SDK adapter
// both /v1 and /v2 session creation share. It returns a typed error.
func (s *Server) newSessionLabeler(dataset string, seedRules []string, seedIDs []int, budget int, seed int64) (*darwin.SessionLabeler, *sessionEntry, error) {
	d, ok := s.datasets[dataset]
	if !ok {
		return nil, nil, fmt.Errorf("%w: unknown dataset %q (have %v)", darwin.ErrNotFound, dataset, s.DatasetNames())
	}
	if len(seedRules) > s.cfg.MaxSeedRules {
		return nil, nil, fmt.Errorf("%w: too many seed rules (%d > %d)", darwin.ErrInvalid, len(seedRules), s.cfg.MaxSeedRules)
	}
	// Reject a full store before paying for session construction (classifier
	// training plus the engine's index write lock); Create re-checks under
	// its lock.
	if !s.store.HasCapacity() {
		return nil, nil, fmt.Errorf("%w: session limit reached", darwin.ErrUnavailable)
	}
	if err := s.sessJournal.failure(); err != nil {
		return nil, nil, err
	}
	if budget <= 0 {
		budget = s.cfg.DefaultBudget
	}
	lab, err := darwin.NewSession(d.Engine, d.Name, darwin.Options{
		SeedRules:       seedRules,
		SeedPositiveIDs: seedIDs,
		Budget:          budget,
		Seed:            seed,
	})
	if err != nil {
		return nil, nil, err
	}
	en, err := s.store.Create(d.Name, lab)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", darwin.ErrUnavailable, err)
	}
	// Journal the resolved options (server defaults applied), so replay
	// does not depend on the config of the recovering process. A session
	// whose create is not in the log is not served.
	if err := s.sessJournal.recordCreate(en.id, d.Name, sessCreateData{
		SeedRules:       seedRules,
		SeedPositiveIDs: seedIDs,
		Budget:          budget,
		Seed:            seed,
	}); err != nil {
		s.store.Delete(en.id)
		_ = lab.Close(context.TODO())
		return nil, nil, err
	}
	return lab, en, nil
}

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

type createRequest struct {
	Dataset         string   `json:"dataset"`
	SeedRules       []string `json:"seed_rules,omitempty"`
	SeedPositiveIDs []int    `json:"seed_positive_ids,omitempty"`
	Budget          int      `json:"budget,omitempty"`
	Seed            int64    `json:"seed,omitempty"`
}

type createResponse struct {
	ID        string           `json:"id"`
	Dataset   string           `json:"dataset"`
	Budget    int              `json:"budget"`
	Positives int              `json:"positives"`
	SeedRules []ruleRecordJSON `json:"seed_rules,omitempty"`
}

type ruleRecordJSON struct {
	Question       int    `json:"question"`
	Key            string `json:"key"`
	Rule           string `json:"rule"`
	Coverage       int    `json:"coverage"`
	Accepted       bool   `json:"accepted"`
	AddedIDs       []int  `json:"added_ids,omitempty"`
	PositivesAfter int    `json:"positives_after"`
}

type sampleJSON struct {
	ID   int    `json:"id"`
	Text string `json:"text"`
}

// suggestResponse carries the pending suggestion. The numeric fields must
// not be omitempty: a zero benefit is a meaningful value the annotator (or a
// driving program) reads.
type suggestResponse struct {
	Done        bool         `json:"done"`
	Question    int          `json:"question"`
	BudgetLeft  int          `json:"budget_left"`
	Key         string       `json:"key,omitempty"`
	Rule        string       `json:"rule,omitempty"`
	Coverage    int          `json:"coverage"`
	NewCoverage int          `json:"new_coverage"`
	Benefit     float64      `json:"benefit"`
	AvgBenefit  float64      `json:"avg_benefit"`
	Samples     []sampleJSON `json:"samples,omitempty"`
}

type answerRequest struct {
	Key    string `json:"key"`
	Accept bool   `json:"accept"`
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

// recordJSON renders an SDK rule record in the v1 wire shape (which never
// carried coverage IDs).
func recordJSON(rec darwin.RuleRecord) ruleRecordJSON {
	return ruleRecordJSON{
		Question:       rec.Question,
		Key:            rec.Key,
		Rule:           rec.Rule,
		Coverage:       rec.Coverage,
		Accepted:       rec.Accepted,
		AddedIDs:       rec.AddedIDs,
		PositivesAfter: rec.PositivesAfter,
	}
}

func samplesJSON(samples []darwin.Sample) []sampleJSON {
	out := make([]sampleJSON, 0, len(samples))
	for _, s := range samples {
		out = append(out, sampleJSON{ID: s.ID, Text: s.Text})
	}
	return out
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

// --- v1 handlers (thin adapters over the pkg/darwin core) ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	steps, last, avg := s.store.StepStats()
	writeJSON(w, http.StatusOK, healthJSON{
		Status:         "ok",
		Datasets:       s.DatasetNames(),
		Sessions:       s.store.Len(),
		Workspaces:     s.mgr.Len(),
		Recovered:      s.recovery.Workspaces,
		Steps:          steps,
		LastStepMillis: millis(last),
		AvgStepMillis:  millis(avg),
	})
}

func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// handleCreate acks 201 only after the session create is journaled (when
// session journaling is on, via newSessionLabeler -> recordCreate).
//
//darwin:mutating-handler
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	lab, en, err := s.newSessionLabeler(req.Dataset, req.SeedRules, req.SeedPositiveIDs, req.Budget, req.Seed)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	rep, err := lab.Report(r.Context())
	if err != nil {
		writeV1Error(w, err)
		return
	}
	resp := createResponse{
		ID:        en.id,
		Dataset:   en.dataset,
		Budget:    rep.Budget,
		Positives: rep.Positives,
	}
	for _, rec := range rep.Accepted {
		resp.SeedRules = append(resp.SeedRules, recordJSON(rec))
	}
	writeJSON(w, http.StatusCreated, resp)
}

// session resolves the {id} path value to a live session entry, writing a 404
// when it is unknown or expired.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*sessionEntry, bool) {
	id := r.PathValue("id")
	en, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or expired session %q", id)
		return nil, false
	}
	return en, true
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	en, ok := s.session(w, r)
	if !ok {
		return
	}
	sug, st, err := s.suggestStep(r.Context(), en.lab)
	if err != nil {
		if errors.Is(err, darwin.ErrBudgetExhausted) {
			writeJSON(w, http.StatusOK, suggestResponse{Done: true, BudgetLeft: st.Budget - st.Questions})
			return
		}
		writeV1Error(w, err)
		return
	}
	writeJSON(w, http.StatusOK, suggestResponse{
		Question:    sug.Question,
		BudgetLeft:  sug.BudgetLeft,
		Key:         sug.Key,
		Rule:        sug.Rule,
		Coverage:    sug.Coverage,
		NewCoverage: sug.NewCoverage,
		Benefit:     sug.Benefit,
		AvgBenefit:  sug.AvgBenefit,
		Samples:     samplesJSON(sug.Samples),
	})
}

// suggestStep is the one suggest path both API versions use: it runs
// Suggest, folds the step duration into the healthz aggregate, and returns
// the labeler status alongside (valid even when Suggest reports done).
func (s *Server) suggestStep(ctx context.Context, lab *darwin.SessionLabeler) (darwin.Suggestion, darwin.Status, error) {
	stepStart := time.Now()
	sug, err := lab.Suggest(ctx)
	s.store.RecordStep(time.Since(stepStart))
	var st darwin.Status
	if err != nil {
		st, _ = lab.Status(ctx)
	}
	return sug, st, err
}

// handleAnswer acks 200 only after the applied verdicts are journaled.
//
//darwin:mutating-handler
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	en, ok := s.session(w, r)
	if !ok {
		return
	}
	var req answerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Key == "" {
		// v1 never supported blind answers; an empty key is a protocol error.
		writeError(w, http.StatusConflict, "answer key is required")
		return
	}
	if err := s.sessJournal.failure(); err != nil {
		writeV1Error(w, err)
		return
	}
	recs, err := en.lab.AnswerBatch(r.Context(), []darwin.Answer{{Key: req.Key, Accept: req.Accept}})
	if err == nil {
		err = s.sessJournal.recordAnswers(en.id, recs)
	}
	if err != nil {
		writeV1Error(w, err)
		return
	}
	// Derive done/budget from the answered record itself (rec.Question is
	// the question number this answer was committed as) and the immutable
	// budget, not from a second unsynchronized status read.
	rec := recs[0]
	st, err := en.lab.Status(r.Context())
	if err != nil {
		writeV1Error(w, err)
		return
	}
	writeJSON(w, http.StatusOK, answerResponse{
		Record:     recordJSON(rec),
		Done:       rec.Question >= st.Budget,
		BudgetLeft: st.Budget - rec.Question,
		Positives:  rec.PositivesAfter,
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	en, ok := s.session(w, r)
	if !ok {
		return
	}
	rep, err := en.lab.Report(r.Context())
	if err != nil {
		writeV1Error(w, err)
		return
	}
	lastStep, avgStep := en.lab.StepLatency()
	resp := reportResponse{
		ID:             en.id,
		Dataset:        en.dataset,
		Questions:      rep.Questions,
		Budget:         rep.Budget,
		Done:           rep.Done,
		Positives:      rep.Positives,
		LastStepMillis: millis(lastStep),
		AvgStepMillis:  millis(avgStep),
		Accepted:       make([]ruleRecordJSON, 0, len(rep.Accepted)),
		History:        make([]ruleRecordJSON, 0, len(rep.History)),
	}
	for _, rec := range rep.Accepted {
		resp.Accepted = append(resp.Accepted, recordJSON(rec))
	}
	for _, rec := range rep.History {
		resp.History = append(resp.History, recordJSON(rec))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	en, ok := s.session(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Headers are sent on first write; a mid-stream failure can only
	// truncate the body.
	_ = en.lab.Export(r.Context(), w)
}

// handleDelete acks 204 only after the session delete is journaled.
//
//darwin:mutating-handler
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	deleted, err := s.deleteSession(r.Context(), id)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	if !deleted {
		writeError(w, http.StatusNotFound, "unknown or expired session %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// deleteSession closes and removes a session labeler (shared by v1 and v2
// delete). It fails without deleting anything when the session journal is
// broken.
func (s *Server) deleteSession(ctx context.Context, id string) (bool, error) {
	en, ok := s.store.Get(id)
	if !ok {
		return false, nil
	}
	if err := s.sessJournal.failure(); err != nil {
		return false, err
	}
	_ = en.lab.Close(ctx)
	if !s.store.Delete(id) {
		return false, nil
	}
	return true, s.sessJournal.recordDelete(id)
}
