package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/pkg/darwin"
)

// playWorkspace drives a two-annotator workspace over HTTP for up to steps
// answered questions, judging each suggestion against the corpus gold
// labels, and returns the workspace ID.
func playWorkspace(t *testing.T, ts *httptest.Server, c *corpus.Corpus, budget, steps int) string {
	t.Helper()
	var created createResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/workspaces", createRequest{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    budget,
		Seed:      3,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}
	if created.ID == "" || created.Positives == 0 {
		t.Fatalf("bad create response: %+v", created)
	}
	base := "/v1/workspaces/" + created.ID
	annotators := []string{"alice", "bob"}
	for _, name := range annotators {
		if status := doJSON(t, ts, http.MethodPost, base+"/annotators", wsAttachRequest{Annotator: name}, nil); status != http.StatusCreated {
			t.Fatalf("attach %s: status %d", name, status)
		}
	}
	answered := 0
	for q := 0; answered < steps; q++ {
		name := annotators[q%2]
		var sug suggestResponse
		if status := doJSON(t, ts, http.MethodGet, base+"/suggest?annotator="+name, nil, &sug); status != http.StatusOK {
			t.Fatalf("suggest for %s: status %d", name, status)
		}
		if sug.Done {
			break
		}
		pos := 0
		for _, sm := range sug.Samples {
			if s := c.Sentence(sm.ID); s != nil && s.Gold == corpus.Positive {
				pos++
			}
		}
		accept := len(sug.Samples) > 0 && float64(pos)/float64(len(sug.Samples)) >= 0.8
		var ans answerResponse
		if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{
			Annotator: name, Key: sug.Key, Accept: accept,
		}, &ans); status != http.StatusOK {
			t.Fatalf("answer for %s: status %d", name, status)
		}
		if ans.Record.Annotator != name || ans.Record.Key != sug.Key {
			t.Fatalf("answer echoed wrong record: %+v", ans.Record)
		}
		answered++
		if ans.Done {
			break
		}
	}
	if answered == 0 {
		t.Fatal("no questions answered")
	}
	return created.ID
}

func getWSReport(t *testing.T, ts *httptest.Server, id string) wsReportResponse {
	t.Helper()
	var rep wsReportResponse
	if status := doJSON(t, ts, http.MethodGet, "/v1/workspaces/"+id+"/report", nil, &rep); status != http.StatusOK {
		t.Fatalf("workspace report: status %d", status)
	}
	return rep
}

func TestWorkspaceHTTPLifecycle(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	id := playWorkspace(t, ts, c, 16, 10)
	rep := getWSReport(t, ts, id)
	if rep.Questions == 0 || rep.Questions > rep.Budget {
		t.Fatalf("questions = %d (budget %d)", rep.Questions, rep.Budget)
	}
	if len(rep.History) != rep.Questions {
		t.Fatalf("history %d != questions %d", len(rep.History), rep.Questions)
	}
	if len(rep.Annotators) != 2 {
		t.Fatalf("annotators: %+v", rep.Annotators)
	}
	perAnnotator := 0
	for _, an := range rep.Annotators {
		perAnnotator += an.Questions
	}
	if perAnnotator != rep.Questions {
		t.Fatalf("per-annotator sum %d != %d", perAnnotator, rep.Questions)
	}
	if rep.Classifier.Retrains == 0 {
		t.Error("classifier never retrained despite accepts")
	}
	// The shared hierarchy cache is live (process-local counter, hence not
	// in the report: it may diverge across replay on no-assignment
	// regenerations).
	ws, ok := srv.Workspaces().Get(id)
	if !ok {
		t.Fatal("workspace missing from manager")
	}
	if ws.HierarchyGenerations() == 0 {
		t.Error("shared hierarchy never generated")
	}

	// healthz counts the workspace.
	var health healthJSON
	doJSON(t, ts, http.MethodGet, "/healthz", nil, &health)
	if health.Workspaces != 1 {
		t.Errorf("healthz workspaces = %d", health.Workspaces)
	}

	// Export matches the shared positive set.
	resp, err := ts.Client().Get(ts.URL + "/v1/workspaces/" + id + "/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d", resp.StatusCode)
	}

	// Detach one annotator, delete the workspace.
	if status := doJSON(t, ts, http.MethodDelete, "/v1/workspaces/"+id+"/annotators/alice", nil, nil); status != http.StatusNoContent {
		t.Fatalf("detach: status %d", status)
	}
	if status := doJSON(t, ts, http.MethodDelete, "/v1/workspaces/"+id, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	if status := doJSON(t, ts, http.MethodGet, "/v1/workspaces/"+id+"/report", nil, nil); status != http.StatusNotFound {
		t.Fatalf("report after delete: status %d", status)
	}
}

// TestWorkspaceConcurrentAnnotatorsHTTP runs several annotators stepping
// concurrently over HTTP in one workspace; assignments must stay disjoint
// end to end (the acceptance invariant), race-clean.
func TestWorkspaceConcurrentAnnotatorsHTTP(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created createResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/workspaces", createRequest{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    20,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	base := "/v1/workspaces/" + created.ID
	names := []string{"a0", "a1", "a2", "a3"}
	for _, n := range names {
		if status := doJSON(t, ts, http.MethodPost, base+"/annotators", wsAttachRequest{Annotator: n}, nil); status != http.StatusCreated {
			t.Fatalf("attach: status %d", status)
		}
	}
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(name string, accept bool) {
			defer wg.Done()
			for {
				var sug suggestResponse
				if status := doJSON(t, ts, http.MethodGet, base+"/suggest?annotator="+name, nil, &sug); status != http.StatusOK {
					t.Errorf("%s suggest: status %d", name, status)
					return
				}
				if sug.Done {
					return
				}
				var ans answerResponse
				if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{
					Annotator: name, Key: sug.Key, Accept: accept,
				}, &ans); status != http.StatusOK {
					t.Errorf("%s answer: status %d", name, status)
					return
				}
				if ans.Done {
					return
				}
			}
		}(n, i%2 == 0)
	}
	wg.Wait()

	rep := getWSReport(t, ts, created.ID)
	if rep.Questions == 0 || rep.Questions > rep.Budget {
		t.Fatalf("questions = %d (budget %d)", rep.Questions, rep.Budget)
	}
	seen := map[string]bool{}
	for _, rec := range rep.History {
		if seen[rec.Key] {
			t.Fatalf("rule %q answered twice", rec.Key)
		}
		seen[rec.Key] = true
	}
}

// TestWorkspaceJournalRecoveryAcrossServers is the in-process restart test:
// a journaled workspace played on one server instance is byte-identically
// live on a second instance built over the same journal (the HTTP-level
// equivalent of the kill -9 e2e in cmd/darwind).
func TestWorkspaceJournalRecoveryAcrossServers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	srv1, c := newTestServer(t, Config{JournalPath: path})
	ts1 := httptest.NewServer(srv1)
	id := playWorkspace(t, ts1, c, 30, 20)
	before := getWSReport(t, ts1, id)
	ts1.Close()
	if err := srv1.Workspaces().Sync(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, Config{JournalPath: path})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if rec := srv2.Recovery(); rec.Workspaces != 1 || len(rec.Skipped) != 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	after := getWSReport(t, ts2, id)
	if !reflect.DeepEqual(before, after) {
		b1, _ := json.Marshal(before)
		b2, _ := json.Marshal(after)
		t.Fatalf("report changed across restart:\nbefore: %s\nafter:  %s", b1, b2)
	}

	// The recovered workspace is live: annotators keep stepping where they
	// left off.
	var sug suggestResponse
	if status := doJSON(t, ts2, http.MethodGet, "/v1/workspaces/"+id+"/suggest?annotator=alice", nil, &sug); status != http.StatusOK {
		t.Fatalf("suggest after recovery: status %d", status)
	}
	if !sug.Done && sug.Key == "" {
		t.Fatalf("bad post-recovery suggestion: %+v", sug)
	}
}

func TestWorkspaceHTTPErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created createResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/workspaces", createRequest{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    5,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	base := "/v1/workspaces/" + created.ID
	doJSON(t, ts, http.MethodPost, base+"/annotators", wsAttachRequest{Annotator: "alice"}, nil)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown dataset", http.MethodPost, "/v1/workspaces", createRequest{Dataset: "nope"}, http.StatusNotFound},
		{"bad body", http.MethodPost, "/v1/workspaces", "not-json", http.StatusBadRequest},
		{"empty seeds", http.MethodPost, "/v1/workspaces", createRequest{Dataset: "directions"}, http.StatusBadRequest},
		{"unknown workspace suggest", http.MethodGet, "/v1/workspaces/deadbeef/suggest?annotator=x", nil, http.StatusNotFound},
		{"unknown workspace report", http.MethodGet, "/v1/workspaces/deadbeef/report", nil, http.StatusNotFound},
		{"unknown workspace delete", http.MethodDelete, "/v1/workspaces/deadbeef", nil, http.StatusNotFound},
		{"missing annotator param", http.MethodGet, base + "/suggest", nil, http.StatusBadRequest},
		{"unattached annotator", http.MethodGet, base + "/suggest?annotator=ghost", nil, http.StatusNotFound},
		{"duplicate attach", http.MethodPost, base + "/annotators", wsAttachRequest{Annotator: "alice"}, http.StatusConflict},
		{"answer without pending", http.MethodPost, base + "/answer", answerRequest{Annotator: "alice", Key: "k"}, http.StatusConflict},
		{"detach unknown", http.MethodDelete, base + "/annotators/ghost", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		var errResp errorJSON
		if status := doJSON(t, ts, tc.method, tc.path, tc.body, &errResp); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		} else if errResp.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	// Mismatched answer key conflicts and leaves the workspace usable.
	var sug suggestResponse
	if status := doJSON(t, ts, http.MethodGet, base+"/suggest?annotator=alice", nil, &sug); status != http.StatusOK || sug.Done {
		t.Fatalf("suggest: status %d done=%v", status, sug.Done)
	}
	if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{Annotator: "alice", Key: "wrong"}, nil); status != http.StatusConflict {
		t.Fatalf("mismatched key: status %d", status)
	}
	if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{Annotator: "alice", Key: sug.Key, Accept: true}, nil); status != http.StatusOK {
		t.Fatalf("valid answer after conflict: status %d", status)
	}
}

// TestSessionTTLEvictionRacingAnswer hammers one HTTP session with
// suggest/answer traffic while the store's clock jumps past the TTL and
// sweeps run concurrently; with -race this pins the store's eviction lock
// discipline. After eviction, handlers must return 404 and the store must
// be empty — never panic or deadlock.
func TestSessionTTLEvictionRacingAnswer(t *testing.T) {
	srv, _ := newTestServer(t, Config{SessionTTL: time.Minute})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created createResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/sessions", createRequest{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    1000,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	base := "/v1/sessions/" + created.ID

	var mu sync.Mutex
	expired := false
	srv.sessions.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		if expired {
			return time.Now().Add(2 * time.Minute)
		}
		return time.Now()
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var sug suggestResponse
				status := doJSON(t, ts, http.MethodGet, base+"/suggest", nil, &sug)
				if status == http.StatusNotFound {
					return // evicted mid-flight: the expected outcome
				}
				if status != http.StatusOK {
					t.Errorf("suggest: status %d", status)
					return
				}
				if sug.Done {
					return
				}
				doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{Key: sug.Key, Accept: false}, nil)
			}
		}()
	}
	sweeps := make(chan struct{})
	go func() {
		defer close(sweeps)
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		expired = true
		mu.Unlock()
		for i := 0; i < 50; i++ {
			srv.sessions.sweep()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-sweeps
	srv.sessions.sweep()
	if got := srv.sessions.len(); got != 0 {
		t.Fatalf("store holds %d sessions after TTL race", got)
	}
	if status := doJSON(t, ts, http.MethodGet, base+"/report", nil, nil); status != http.StatusNotFound {
		t.Fatalf("report on evicted session: status %d", status)
	}
}

// TestWSDeleteRefusesUndurableEviction pins the DELETE durability contract
// (surfaced by darwinlint's journalack pass): when the eviction record
// cannot be journaled, the handler must answer 503 — never the 204 that
// tells the client the workspace is permanently gone while journal replay
// would resurrect it after a restart.
func TestWSDeleteRefusesUndurableEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	srv, _ := newTestServer(t, Config{JournalPath: path})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created createResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/workspaces", createRequest{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    10,
		Seed:      3,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}

	// Kill the journal out from under the server: the evict append fails.
	if err := srv.Workspaces().Close(); err != nil {
		t.Fatal(err)
	}
	if status := doJSON(t, ts, http.MethodDelete, "/v1/workspaces/"+created.ID, nil, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("delete on a dead journal: status %d, want 503", status)
	}
}

// TestWorkspaceCreateFailuresAreRetryable pins the error class of a
// workspace create the server cannot take right now: at the workspace limit
// and on a dead journal, both surfaces answer 503 (retryable), as the
// session limit does, not the 400 of a malformed request.
func TestWorkspaceCreateFailuresAreRetryable(t *testing.T) {
	create := `{"dataset":"directions","seed_rules":["best way to get to"]}`
	createV2 := `{"dataset":"directions","mode":"workspace","annotator":"a","seed_rules":["best way to get to"]}`
	check := func(t *testing.T, ts *httptest.Server) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/workspaces", "application/json", strings.NewReader(create))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/v1 create: HTTP %d, want 503", resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+"/v2/labelers", "application/json", strings.NewReader(createV2))
		if err != nil {
			t.Fatal(err)
		}
		var env darwin.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || env.Code != darwin.CodeUnavailable || !env.Retryable {
			t.Errorf("/v2 create: HTTP %d %+v, want 503 unavailable retryable", resp.StatusCode, env)
		}
	}

	t.Run("limit", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{MaxWorkspaces: 1})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/workspaces", "application/json", strings.NewReader(create))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("first create: HTTP %d", resp.StatusCode)
		}
		check(t, ts)
	})
	t.Run("journal", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{JournalPath: filepath.Join(t.TempDir(), "journal.jsonl")})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if err := srv.Workspaces().Close(); err != nil {
			t.Fatal(err)
		}
		check(t, ts)
	})
}
