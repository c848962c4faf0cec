package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tokensregex"
	"repro/pkg/darwin"
)

// newTestEngine builds a small deterministic engine — identical flags across
// calls, so a restarted shard rebuilds the exact engine its journal was
// recorded against.
func newTestEngine(t testing.TB, dataset string) *core.Engine {
	t.Helper()
	c, err := datagen.ByName(dataset, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(c, core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    6,
		NumCandidates:   400,
		MinRuleCoverage: 2,
		Budget:          30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		Embedding:       embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newShardServer builds one darwind-equivalent shard serving the given
// datasets (with an optional journal for crash recovery).
func newShardServer(t testing.TB, journal string, datasets ...string) *server.Server {
	t.Helper()
	sets := make([]*server.Dataset, 0, len(datasets))
	for _, name := range datasets {
		sets = append(sets, &server.Dataset{Name: name, Engine: newTestEngine(t, name)})
	}
	srv, err := server.New(server.Config{JournalPath: journal}, sets...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// seedRuleFor mirrors the canonical per-dataset seed rules.
func seedRuleFor(dataset string) string {
	if dataset == "musicians" {
		return "composer"
	}
	return "best way to get to"
}

// newRouterServer mounts the unmodified /v2 handler set over a Router and
// serves it — exactly what cmd/darwin-router does.
func newRouterServer(t testing.TB, specs []shard.Spec, cfg shard.Config) (*shard.Router, *httptest.Server) {
	t.Helper()
	rt, err := shard.New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.V2Handler(rt))
	t.Cleanup(ts.Close)
	return rt, ts
}

func TestPlacementIsDeterministicAndCovering(t *testing.T) {
	specs := []shard.Spec{
		{Name: "alpha", URL: "http://a"}, {Name: "beta", URL: "http://b"}, {Name: "gamma", URL: "http://c"},
	}
	r1, err := shard.New(specs, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Same fleet in a different declaration order: identical placement.
	r2, err := shard.New([]shard.Spec{specs[2], specs[0], specs[1]}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 600
	hit := map[string]int{}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		p1, p2 := r1.Place(key), r2.Place(key)
		if p1 != p2 {
			t.Errorf("placement of %q depends on declaration order: %q vs %q", key, p1, p2)
		}
		hit[p1]++
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if hit[name] < keys/10 {
			t.Errorf("shard %s owns %d of %d keys (%v); ring is badly unbalanced", name, hit[name], keys, hit)
		}
	}
}

func TestRouterRejectsBadSpecs(t *testing.T) {
	for _, specs := range [][]shard.Spec{
		nil,
		{{Name: "", URL: "http://a"}},
		{{Name: "a~b", URL: "http://a"}},
		{{Name: "a", URL: ""}},
		{{Name: "a", URL: "http://a"}, {Name: "a", URL: "http://b"}},
	} {
		if _, err := shard.New(specs, shard.Config{}); err == nil {
			t.Errorf("New(%+v) accepted an invalid fleet", specs)
		}
	}
}

// TestRouterEndToEnd drives the full surface through client → router →
// shard: namespaced ids, every labeler verb, fan-out listing with cursors,
// dataset union, and delete.
func TestRouterEndToEnd(t *testing.T) {
	shardA := httptest.NewServer(newShardServer(t, "", "directions", "musicians"))
	defer shardA.Close()
	shardB := httptest.NewServer(newShardServer(t, "", "directions", "musicians"))
	defer shardB.Close()
	rt, ts := newRouterServer(t, []shard.Spec{
		{Name: "alpha", URL: shardA.URL}, {Name: "beta", URL: shardB.URL},
	}, shard.Config{})
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()

	if rt.Place("directions") == rt.Place("musicians") {
		t.Fatalf("test datasets hash to the same shard (%q); pick different shard names", rt.Place("directions"))
	}

	// One session labeler per dataset: they must land on different shards.
	labs := map[string]*darwin.RemoteLabeler{}
	for _, ds := range []string{"directions", "musicians"} {
		lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
			Dataset: ds, SeedRules: []string{seedRuleFor(ds)}, Budget: 8, Seed: 42,
		})
		if err != nil {
			t.Fatalf("create on %s: %v", ds, err)
		}
		wantPrefix := rt.Place(ds) + shard.Sep
		if !strings.HasPrefix(lab.ID(), wantPrefix) {
			t.Fatalf("labeler id %q not namespaced to its dataset's shard (want prefix %q)", lab.ID(), wantPrefix)
		}
		labs[ds] = lab
	}

	// The full verb set works through the router.
	lab := labs["directions"]
	sug, err := lab.Suggest(ctx)
	if err != nil || sug.Key == "" {
		t.Fatalf("suggest: %v (%+v)", err, sug)
	}
	again, err := lab.Suggest(ctx)
	if err != nil || again.Key != sug.Key {
		t.Fatalf("suggest not idempotent through the router: %q vs %q (%v)", again.Key, sug.Key, err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatalf("answer: %v", err)
	}
	st, err := lab.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.ID != lab.ID() || st.Questions != 1 || st.Dataset != "directions" {
		t.Fatalf("status %+v does not match the routed labeler", st)
	}
	rep, err := lab.Report(ctx)
	if err != nil || rep.Questions != 1 {
		t.Fatalf("report: %v (%+v)", err, rep)
	}
	var buf bytes.Buffer
	if err := lab.Export(ctx, &buf); err != nil || buf.Len() == 0 {
		t.Fatalf("export: %v (%d bytes)", err, buf.Len())
	}

	// A workspace labeler: the workspace id is namespaced, and joining by
	// that namespaced id routes to the owning shard.
	alice, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{seedRuleFor("directions")}, Budget: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ast, err := alice.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ast.Workspace, rt.Place("directions")+shard.Sep) {
		t.Fatalf("workspace id %q is not router-namespaced", ast.Workspace)
	}
	bob, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Mode: darwin.ModeWorkspace, Workspace: ast.Workspace, Annotator: "bob",
	})
	if err != nil {
		t.Fatalf("join namespaced workspace: %v", err)
	}
	bst, err := bob.Status(ctx)
	if err != nil || bst.Workspace != ast.Workspace {
		t.Fatalf("bob's workspace %q, want %q (%v)", bst.Workspace, ast.Workspace, err)
	}

	// Fan-out listing: all labelers appear exactly once across cursor pages
	// of limit 2, each with a namespaced id.
	want := map[string]bool{labs["directions"].ID(): true, labs["musicians"].ID(): true, alice.ID(): true, bob.ID(): true}
	got := map[string]bool{}
	cursor, pages := "", 0
	for {
		page, err := client.ListLabelers(ctx, cursor, 2)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if len(page.Labelers) > 2 {
			t.Fatalf("page of %d exceeds limit 2", len(page.Labelers))
		}
		for _, st := range page.Labelers {
			if got[st.ID] {
				t.Fatalf("labeler %s listed twice", st.ID)
			}
			if !strings.Contains(st.ID, shard.Sep) {
				t.Fatalf("listed id %q is not namespaced", st.ID)
			}
			got[st.ID] = true
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(got) != len(want) || pages < 2 {
		t.Fatalf("listing returned %d labelers over %d pages, want %d over >= 2", len(got), pages, len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("labeler %s missing from the fan-out listing", id)
		}
	}

	// Dataset union across the fleet.
	dp, err := client.ListDatasets(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Datasets) != 2 || dp.Datasets[0] != "directions" || dp.Datasets[1] != "musicians" {
		t.Fatalf("datasets = %v, want [directions musicians]", dp.Datasets)
	}

	// Delete routes by prefix; the labeler is gone afterwards.
	if err := labs["musicians"].Close(ctx); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := labs["musicians"].Suggest(ctx); !errors.Is(err, darwin.ErrNotFound) {
		t.Fatalf("suggest after delete: %v, want ErrNotFound", err)
	}
	// Unknown / un-namespaced ids are not found.
	if _, err := client.OpenLabeler("no-separator").Status(ctx); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("un-namespaced id: %v, want ErrNotFound", err)
	}
	if _, err := client.OpenLabeler("nosuchshard" + shard.Sep + "abc").Status(ctx); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("unknown shard prefix: %v, want ErrNotFound", err)
	}
}

// restartableShard serves a shard over a real listener so the test can kill
// it (connection refused, like a SIGKILLed darwind) and later restart a
// recovered server on the same address.
type restartableShard struct {
	addr string
	hs   *http.Server
}

func startShard(t *testing.T, srv *server.Server, addr string) *restartableShard {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	rs := &restartableShard{addr: ln.Addr().String(), hs: &http.Server{Handler: srv}}
	go rs.hs.Serve(ln)
	t.Cleanup(func() { rs.hs.Close() })
	return rs
}

func (rs *restartableShard) kill() { rs.hs.Close() }

// TestRouterFailoverAndRecovery kills one shard mid-session and asserts the
// blast radius: labelers on the surviving shard are unaffected, labelers
// routed to the dead shard surface ErrUnavailable with retryable=true, and
// a restarted shard resumes its journaled workspaces through the router —
// including the annotator attachment, whose labeler id is derived
// deterministically and rebuilt from the journal.
func TestRouterFailoverAndRecovery(t *testing.T) {
	dir := t.TempDir()
	journalB := filepath.Join(dir, "shard-b.jsonl")

	shardA := startShard(t, newShardServer(t, "", "directions", "musicians"), "127.0.0.1:0")
	srvB := newShardServer(t, journalB, "directions", "musicians")
	shardB := startShard(t, srvB, "127.0.0.1:0")

	// Tight retry budget so the dead-shard assertions stay fast.
	rt, ts := newRouterServer(t, []shard.Spec{
		{Name: "alpha", URL: "http://" + shardA.addr}, {Name: "beta", URL: "http://" + shardB.addr},
	}, shard.Config{Retries: 1, RetryBackoff: 10 * time.Millisecond})
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()

	// "musicians" lives on alpha, "directions" on beta (pinned above by
	// TestRouterEndToEnd's placement check).
	if rt.Place("musicians") != "alpha" || rt.Place("directions") != "beta" {
		t.Fatalf("unexpected placement: musicians → %s, directions → %s", rt.Place("musicians"), rt.Place("directions"))
	}
	onA, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "musicians", SeedRules: []string{seedRuleFor("musicians")}, Budget: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	onB, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{seedRuleFor("directions")}, Budget: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sug, err := onB.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := onB.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatal(err)
	}
	stB, err := onB.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	repBefore, err := onB.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := srvB.Workspaces().Sync(); err != nil {
		t.Fatal(err)
	}

	// Kill shard beta mid-session.
	shardB.kill()

	// Non-routed labelers are unaffected.
	if _, err := onA.Suggest(ctx); err != nil {
		t.Fatalf("labeler on the surviving shard broke: %v", err)
	}
	// Routed labelers surface the typed, retryable unavailability.
	if _, err := onB.Suggest(ctx); !errors.Is(err, darwin.ErrUnavailable) {
		t.Fatalf("suggest on dead shard: %v, want ErrUnavailable", err)
	} else if !darwin.Retryable(err) {
		t.Fatalf("dead-shard error %v is not marked retryable", err)
	}
	// The prober notices, healthz names the gap, and the listing degrades
	// to the surviving shard instead of failing.
	if up := rt.ProbeNow(ctx); up != 1 {
		t.Fatalf("ProbeNow reports %d healthy shards, want 1", up)
	}
	var aliveNames []string
	for _, h := range rt.Health() {
		if h.Healthy {
			aliveNames = append(aliveNames, h.Name)
		} else if h.Error == "" {
			t.Errorf("down shard %s reports no error", h.Name)
		}
	}
	if len(aliveNames) != 1 || aliveNames[0] != "alpha" {
		t.Fatalf("healthy shards %v, want [alpha]", aliveNames)
	}
	page, err := client.ListLabelers(ctx, "", 0)
	if err != nil {
		t.Fatalf("degraded listing failed: %v", err)
	}
	for _, st := range page.Labelers {
		if strings.HasPrefix(st.ID, "beta"+shard.Sep) {
			t.Fatalf("dead shard's labeler %s still listed", st.ID)
		}
	}

	// Restart shard beta from its journal on the same address: the
	// workspace, its attachment, and the labeler id all resume through the
	// router without any router-side change.
	srvB2 := newShardServer(t, journalB, "directions", "musicians")
	if rec := srvB2.Recovery(); rec.Workspaces != 1 || len(rec.Skipped) != 0 {
		t.Fatalf("shard recovery stats: %+v", rec)
	}
	startShard(t, srvB2, shardB.addr)
	if up := rt.ProbeNow(ctx); up != 2 {
		t.Fatalf("ProbeNow after restart reports %d healthy shards, want 2", up)
	}
	stAfter, err := onB.Status(ctx)
	if err != nil {
		t.Fatalf("status after shard restart: %v", err)
	}
	if stAfter.ID != stB.ID || stAfter.Workspace != stB.Workspace || stAfter.Questions != stB.Questions {
		t.Fatalf("resumed status %+v does not match pre-crash %+v", stAfter, stB)
	}
	repAfter, err := onB.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(repAfter.History) != len(repBefore.History) || repAfter.Positives != repBefore.Positives {
		t.Fatalf("report diverged across shard restart: before %+v after %+v", repBefore, repAfter)
	}
	if _, err := onB.Suggest(ctx); err != nil {
		t.Fatalf("suggest after shard recovery: %v", err)
	}
}

// TestBatchAnswersNeedNoStatusRoundTrip pins the single-request contract of
// the /v2 batch-answers path through the router: the post-batch counters ride
// in the answers response itself, so a shard that dies (or starts failing)
// right after applying the batch cannot turn a durably-applied batch into a
// 503. The fake shard answers the batch POST once and 503s everything else —
// if the router issued a second status round trip, the call would fail and
// the status GET counter would be nonzero.
func TestBatchAnswersNeedNoStatusRoundTrip(t *testing.T) {
	var statusGets, answerPosts atomic.Int32
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v2/labelers/x1/answers":
			answerPosts.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"applied":1,"records":[{"question":3,"key":"k1","rule":"word(go)","coverage":4,"accepted":true,"positives_after":5}],"questions":3,"budget_left":7,"positives":5,"done":false}`)
		case r.Method == http.MethodGet && r.URL.Path == "/v2/labelers/x1":
			statusGets.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			// The shard is dead to every other request.
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer fake.Close()

	_, ts := newRouterServer(t, []shard.Spec{{Name: "alpha", URL: fake.URL}}, shard.Config{})
	client := darwin.NewClient(ts.URL, "")
	lab := client.OpenLabeler("alpha" + shard.Sep + "x1")

	recs, st, err := lab.AnswerBatchStatus(context.Background(), []darwin.Answer{{Key: "k1", Accept: true}})
	if err != nil {
		t.Fatalf("batch through router with dead status path: %v", err)
	}
	if len(recs) != 1 || recs[0].Question != 3 || !recs[0].Accepted {
		t.Fatalf("records = %+v, want the applied record", recs)
	}
	if st.ID != "alpha"+shard.Sep+"x1" || st.Questions != 3 || st.Budget != 10 || st.Positives != 5 || st.Done {
		t.Fatalf("post-batch status = %+v, want the counters carried in the answers response", st)
	}
	if got := answerPosts.Load(); got != 1 {
		t.Fatalf("answers POST hit the shard %d times, want exactly 1", got)
	}
	if got := statusGets.Load(); got != 0 {
		t.Fatalf("router issued %d status GETs after the batch; the counters must ride the answers response", got)
	}
}

// TestHealthProbeBookkeeping pins the per-shard probe state surfaced by
// Health() (and thus the router's /healthz JSON): last probe time and the
// consecutive-failure streak.
func TestHealthProbeBookkeeping(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rt, err := shard.New([]shard.Spec{{Name: "alpha", URL: up.URL}}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	healthOf := func() shard.ShardHealth {
		hs := rt.Health()
		if len(hs) != 1 {
			t.Fatalf("Health() returned %d shards, want 1", len(hs))
		}
		return hs[0]
	}
	if h := healthOf(); !h.LastProbe.IsZero() {
		t.Fatalf("LastProbe %v before any probe, want zero", h.LastProbe)
	}

	before := time.Now().Add(-time.Second)
	rt.ProbeNow(ctx)
	h := healthOf()
	if !h.Healthy || h.ConsecutiveFailures != 0 {
		t.Fatalf("after healthy probe: %+v", h)
	}
	if h.LastProbe.Before(before) || h.LastProbe.After(time.Now().Add(time.Second)) {
		t.Fatalf("LastProbe %v is not a recent timestamp", h.LastProbe)
	}

	up.Close()
	for want := 1; want <= 2; want++ {
		rt.ProbeNow(ctx)
		h = healthOf()
		if h.Healthy || h.ConsecutiveFailures != want || h.Error == "" {
			t.Fatalf("after %d failed probes: %+v", want, h)
		}
	}
	if h.LastProbe.IsZero() {
		t.Fatal("LastProbe lost after a failed probe")
	}
}
