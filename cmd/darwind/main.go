// Command darwind serves concurrent interactive Darwin rule-discovery
// labelers over HTTP. It loads one or more datasets (synthetic generators
// and/or JSONL corpora written by cmd/datagen), builds a shared read-only
// engine per dataset once at startup, and then hosts any number of
// interactive labelers against them. The canonical surface is the versioned
// /v2 API (one labeler resource for solo sessions and workspace
// attachments alike — see internal/server and api/openapi.yaml); the /v1
// endpoints remain as thin adapters. Go programs should use the pkg/darwin
// SDK (darwin.NewClient) rather than raw HTTP.
//
// Examples:
//
//	darwind -addr :8080 -datasets directions,musicians -scale 0.2
//	darwind -corpus mydata.jsonl -budget 50 -session-ttl 15m
//
// A minimal interactive transcript (/v2):
//
//	curl -s -X POST localhost:8080/v2/labelers \
//	     -d '{"dataset":"directions","seed_rules":["best way to get to"]}'
//	curl -s localhost:8080/v2/labelers/$ID/suggestion
//	curl -s -X POST localhost:8080/v2/labelers/$ID/answers \
//	     -d '{"answers":[{"key":"...","accept":true}]}'
//	curl -s localhost:8080/v2/labelers/$ID/report
//	curl -s localhost:8080/v2/labelers/$ID/export > labeled.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/server"
	"repro/internal/tokensregex"
	"repro/internal/treematch"
	"repro/internal/workspace"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		datasets   = flag.String("datasets", "directions", "comma-separated synthetic dataset names to serve")
		corpusPath = flag.String("corpus", "", "path to a JSONL corpus written by cmd/datagen (served in addition to -datasets)")
		scale      = flag.Float64("scale", 0.2, "synthetic dataset scale factor")
		seed       = flag.Int64("seed", 1, "random seed for dataset generation and engine defaults")
		budget     = flag.Int("budget", 100, "default oracle query budget per session")
		candidates = flag.Int("candidates", 2000, "candidate rules generated per iteration")
		sketchD    = flag.Int("sketch-depth", 5, "derivation sketch depth")
		useTree    = flag.Bool("treematch", false, "enable the TreeMatch grammar (dependency-parse rules)")
		ttl        = flag.Duration("session-ttl", server.DefaultSessionTTL, "evict sessions idle longer than this")
		maxSess    = flag.Int("max-sessions", server.DefaultMaxSessions, "maximum number of live sessions")
		journalP   = flag.String("journal", "", "path to the workspace event journal (enables durable multi-annotator workspaces with crash recovery)")
		jobsDir    = flag.String("jobs-dir", "", "directory for async labeling jobs: job journal plus labeled JSONL outputs (empty disables /v2 labeling jobs)")
		jobWorkers = flag.Int("job-workers", 2, "concurrent labeling-job workers")
		jobTTL     = flag.Duration("job-ttl", time.Hour, "evict finished labeling jobs (and their outputs) this long after completion")
		wsTTL      = flag.Duration("workspace-ttl", workspace.DefaultTTL, "evict workspaces idle longer than this")
		maxWS      = flag.Int("max-workspaces", workspace.DefaultMaxWorkspaces, "maximum number of live workspaces")
		compactN   = flag.Int("compact-every", workspace.DefaultCompactEvery, "compact the journal after this many appends (negative disables)")
		attachTTL  = flag.Duration("attachment-ttl", 0, "detach workspace annotators idle longer than this, journaled (0 disables; the workspace itself lives until -workspace-ttl)")
		replSync   = flag.Bool("repl-sync", true, "when this shard streams its journal to a replication follower, gate answer acknowledgements on the follower's ack (degrades to async if the follower is down)")
		replSyncTO = flag.Duration("repl-sync-timeout", 2*time.Second, "how long a synchronously replicated append waits for the follower before degrading to async")
		token      = flag.String("token", "", "require 'Authorization: Bearer <token>' on /v1/* endpoints")
		rateLimit  = flag.Float64("rate-limit", 0, "per-IP request rate limit in requests/second (0 disables)")
		rateBurst  = flag.Int("rate-burst", 0, "per-IP burst size (default 2x -rate-limit)")
		featCap    = flag.Int("feature-cache-cap", 0, "cap the per-engine sparse feature cache to this many sentences (0 caches the whole corpus; ~0.5 KB/entry)")
		accessLog  = flag.Bool("access-log", true, "emit one structured (JSON) log line per request, carrying the request id")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (unauthenticated; bind accordingly)")
	)
	// Accepted and ignored, so command lines that still pass it (perfbench's
	// solo workload does) keep starting.
	flag.Bool("journal-sessions", false, "ignored: solo sessions are journaled to \"<-journal path>.sessions\" whenever -journal is set")
	flag.Parse()

	var sets []*server.Dataset
	for _, name := range splitList(*datasets) {
		c, err := datagen.ByName(name, *scale, *seed)
		if err != nil {
			fatalf("dataset %q: %v", name, err)
		}
		sets = append(sets, buildDataset(name, c, *seed, *budget, *candidates, *sketchD, *featCap, *useTree))
	}
	if *corpusPath != "" {
		c, err := corpus.LoadJSONL(*corpusPath)
		if err != nil {
			fatalf("load corpus %s: %v", *corpusPath, err)
		}
		name := c.Name
		if name == "" {
			name = strings.TrimSuffix(*corpusPath, ".jsonl")
		}
		sets = append(sets, buildDataset(name, c, *seed, *budget, *candidates, *sketchD, *featCap, *useTree))
	}

	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv, err := server.New(server.Config{
		SessionTTL:             *ttl,
		MaxSessions:            *maxSess,
		DefaultBudget:          *budget,
		JournalPath:            *journalP,
		JobsDir:                *jobsDir,
		JobWorkers:             *jobWorkers,
		JobTTL:                 *jobTTL,
		WorkspaceTTL:           *wsTTL,
		MaxWorkspaces:          *maxWS,
		CompactEvery:           *compactN,
		AttachmentTTL:          *attachTTL,
		ReplicationSync:        *replSync,
		ReplicationSyncTimeout: *replSyncTO,
		Token:                  *token,
		RatePerSec:             *rateLimit,
		RateBurst:              *rateBurst,
		Daemon:                 "darwind",
		AccessLog:              logger,
	}, sets...)
	if err != nil {
		fatalf("%v", err)
	}
	if rec := srv.Recovery(); rec.Events > 0 {
		log.Printf("journal %s: replayed %d events, recovered %d workspaces (%d skipped)",
			*journalP, rec.Events, rec.Workspaces, len(rec.Skipped))
		for id, reason := range rec.Skipped {
			log.Printf("journal: workspace %s not recovered: %s", id, reason)
		}
	}

	stop := make(chan struct{})
	go srv.Janitor(time.Minute, stop)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	var handler http.Handler = srv
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", srv)
		handler = outer
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down")
		close(stop)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()

	log.Printf("darwind listening on %s (datasets: %s)", ln.Addr(), strings.Join(srv.DatasetNames(), ", "))
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatalf("%v", err)
	}
	// Drained: flush and close the workspace journal so every acknowledged
	// event is fsync-durable before exit.
	if err := srv.Close(); err != nil && *journalP != "" {
		log.Printf("journal close: %v", err)
	}
}

// buildDataset preprocesses the corpus and builds the shared engine, logging
// the one-time cost that every session then amortizes.
func buildDataset(name string, c *corpus.Corpus, seed int64, budget, candidates, sketchDepth, featCacheCap int, useTree bool) *server.Dataset {
	grams := []grammar.Grammar{tokensregex.New()}
	if useTree {
		grams = append(grams, treematch.New())
	}
	cfg := core.DefaultConfig()
	cfg.Grammars = grams
	cfg.Budget = budget
	cfg.NumCandidates = candidates
	cfg.SketchDepth = sketchDepth
	cfg.Seed = seed
	cfg.FeatureCacheCap = featCacheCap
	cfg.Classifier = classifier.Config{Epochs: 10, LearningRate: 0.3, L2: 1e-4, Seed: seed}
	cfg.Embedding = embedding.Config{Dim: 32, Window: 4, MinCount: 2, Seed: seed}

	start := time.Now()
	engine, err := core.New(c, cfg)
	if err != nil {
		fatalf("build engine for %q: %v", name, err)
	}
	log.Printf("dataset %q ready: %s (engine built in %v)", name, c, time.Since(start).Round(time.Millisecond))
	return &server.Dataset{Name: name, Engine: engine}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(strings.ToLower(part)); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "darwind: "+format+"\n", args...)
	os.Exit(1)
}
