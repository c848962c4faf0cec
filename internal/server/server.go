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
// The legacy /v1 endpoints remain as a wire-format shim over the same
// calls (see v1.go): same state, same semantics, v1 wire shapes:
//
//	GET  /healthz                      liveness + dataset/session counts
//	POST /v1/sessions                  create a session {dataset, seed_rules, ...}
//	GET  /v1/sessions/{id}/suggest     next candidate rule to verify
//	POST /v1/sessions/{id}/answer      {key, accept} verdict for the pending rule
//	GET  /v1/sessions/{id}/report      accepted rules + full query history
//	GET  /v1/sessions/{id}/export      JSONL labeled corpus (text/plain lines)
//	DELETE /v1/sessions/{id}           drop a session early
//
// Multi-annotator workspaces:
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
// Solo sessions live in one registry (sessions.go) that owns their ids, TTL
// and cap. When Config.JournalPath is set, labelers are durable: workspace
// events go to that write-ahead log (internal/workspace, internal/journal)
// and the registry journals every session create, answer, delete and TTL
// eviction to "<JournalPath>.sessions", each in the critical section that
// applies it; New replays both logs to recover the pre-crash state.
//
// When Config.Token is set, every /v1/* and /v2/* endpoint requires
// "Authorization: Bearer <token>" (healthz stays open); Config.RatePerSec
// adds a per-IP token-bucket rate limit across all endpoints.
package server

import (
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

	// JournalPath, when non-empty, makes workspaces and solo sessions
	// durable: every workspace event is appended to this JSONL write-ahead
	// log and every session event to "<JournalPath>.sessions", and New
	// replays both to recover labelers from a previous process.
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
	sessions *sessionRegistry
	mgr      *workspace.Manager
	recovery workspace.RecoveryStats
	// repl is the journal-replication node (nil without a journal; the
	// replication endpoints then answer 503).
	repl *replicate.Node
	// jobs is the labeling-job manager (nil without Config.JobsDir; the job
	// endpoints then answer 503).
	jobs *autolabel.Manager
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
		sessions: newSessionRegistry(cfg.SessionTTL, cfg.MaxSessions),
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
	}
	if jw != nil {
		// Replication rides the journal: stream it out when the router names
		// this shard a primary, keep warm standbys when it names it a
		// follower. Recovers on-disk standbys from a previous process.
		s.repl = replicate.NewNode(replicate.NodeOptions{
			Manager:     s.mgr,
			Journal:     jw,
			Engines:     engines,
			JournalPath: cfg.JournalPath,
			Sync:        cfg.ReplicationSync,
			SyncTimeout: cfg.ReplicationSyncTimeout,
			Logf:        log.Printf,
		})
	}
	if jw != nil {
		if err := s.sessions.open(cfg.JournalPath+".sessions", s.datasets); err != nil {
			return nil, err
		}
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
		func() float64 { return float64(s.sessions.len()) })
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

// Janitor evicts idle solo sessions and workspaces every interval until
// stop is closed. Run it in a goroutine.
func (s *Server) Janitor(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sessions.sweep()
			s.mgr.Sweep()
		case <-stop:
			return
		}
	}
}

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
	if err := s.sessions.close(); err != nil {
		log.Printf("server: close session journal: %v", err)
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
