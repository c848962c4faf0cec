package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/workspace"
	"repro/pkg/darwin"
)

// listLabelerIDs returns the ids GET /v2/labelers lists.
func listLabelerIDs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	var page darwin.LabelerPage
	if status := doJSON(t, ts, http.MethodGet, "/v2/labelers", nil, &page); status != http.StatusOK {
		t.Fatalf("list labelers: status %d", status)
	}
	var ids []string
	for _, st := range page.Labelers {
		ids = append(ids, st.ID)
	}
	return ids
}

// TestV1AttachRegistersV2Labeler holds a /v1 attachment to what a restart
// over the journal rebuilds: /v2 lists the attachment's labeler under the
// same w… id right after the attach and after the restart, and a /v1
// detach drops it.
func TestV1AttachRegistersV2Labeler(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	srv1, _ := newTestServer(t, Config{JournalPath: path})
	ts1 := httptest.NewServer(srv1)
	var ws struct {
		ID string `json:"id"`
	}
	if status := doJSON(t, ts1, http.MethodPost, "/v1/workspaces", map[string]any{
		"dataset": "directions", "seed_rules": []string{"best way to get to"}, "budget": 5,
	}, &ws); status != http.StatusCreated {
		t.Fatalf("create workspace: status %d", status)
	}
	if status := doJSON(t, ts1, http.MethodPost, "/v1/workspaces/"+ws.ID+"/annotators",
		map[string]string{"annotator": "alice"}, nil); status != http.StatusCreated {
		t.Fatalf("attach: status %d", status)
	}
	before := listLabelerIDs(t, ts1)
	if len(before) != 1 || !strings.HasPrefix(before[0], "w") {
		t.Fatalf("after a /v1 attach /v2 lists %v, want one w… labeler", before)
	}
	ts1.Close()
	if err := srv1.Workspaces().Sync(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, Config{JournalPath: path})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if after := listLabelerIDs(t, ts2); len(after) != 1 || after[0] != before[0] {
		t.Fatalf("after a restart /v2 lists %v, before it %v", after, before)
	}
	if status := doJSON(t, ts2, http.MethodDelete, "/v1/workspaces/"+ws.ID+"/annotators/alice", nil, nil); status != http.StatusNoContent {
		t.Fatalf("detach: status %d", status)
	}
	if left := listLabelerIDs(t, ts2); len(left) != 0 {
		t.Fatalf("after a /v1 detach /v2 lists %v", left)
	}
}

// TestJSONTypeErrorsNameNoGoTypes sends bodies of the wrong JSON type to the
// /v1 and /v2 create routes: the 400 names the JSON field and the kind it
// received, and no Go type.
func TestJSONTypeErrorsNameNoGoTypes(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cases := []struct {
		path, body, want string
	}{
		{"/v1/sessions", `[]`, `cannot unmarshal array into the request body`},
		{"/v1/workspaces", `{"budget":"ten"}`, `cannot unmarshal string into field \"budget\"`},
		{"/v2/labelers", `"directions"`, `cannot unmarshal string into the request body`},
		{"/v2/labelers", `{"seed_rules":[1.5]}`, `cannot unmarshal number into field \"seed_rules\"`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body strings.Builder
		_, _ = io.Copy(&body, resp.Body)
		resp.Body.Close()
		got := body.String()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, tc.want) ||
			strings.Contains(got, "Go ") || strings.Contains(got, "server.") || strings.Contains(got, "darwin.") {
			t.Errorf("POST %s %s: %d %s, want 400 naming %s", tc.path, tc.body, resp.StatusCode, got, tc.want)
		}
	}
}

// TestV2WorkspaceLabelerStatusTakesNoWorkspaceLock parks a suggest inside
// its workspace's critical section (blocked on the engine's index lock,
// where a hierarchy regeneration waits) and expects the labeler's /v2
// status and the labeler listing to answer meanwhile.
func TestV2WorkspaceLabelerStatusTakesNoWorkspaceLock(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var st darwin.Status
	if status := doJSON(t, ts, http.MethodPost, "/v2/labelers", darwin.CreateOptions{
		Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "alice",
		SeedRules: []string{"best way to get to"}, Budget: 10, Seed: 2,
	}, &st); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}

	eng := srv.Dataset("directions").Engine
	entered, release := make(chan struct{}), make(chan struct{})
	eng.SetMaterializeHook(func([]string) { close(entered); <-release })
	matDone := make(chan struct{})
	go func() {
		defer close(matDone)
		eng.MaterializeRule("how do i get")
	}()
	<-entered // the index write lock is now held and parked
	sugDone := make(chan struct{})
	go func() {
		defer close(sugDone)
		if resp, err := ts.Client().Get(ts.URL + "/v2/labelers/" + st.ID + "/suggestion"); err == nil {
			resp.Body.Close()
		}
	}()
	defer func() {
		close(release)
		<-matDone
		<-sugDone
	}()
	// Let the suggest take the workspace lock and block on the index lock.
	time.Sleep(300 * time.Millisecond)
	select {
	case <-sugDone:
		t.Fatal("suggest completed while the index write lock was held")
	default:
	}

	type result struct {
		status int
		st     darwin.Status
		ids    []string
	}
	done := make(chan result, 1)
	go func() {
		var r result
		resp, err := ts.Client().Get(ts.URL + "/v2/labelers/" + st.ID)
		if err != nil {
			done <- r
			return
		}
		r.status = resp.StatusCode
		_ = json.NewDecoder(resp.Body).Decode(&r.st)
		resp.Body.Close()
		var page darwin.LabelerPage
		if resp, err := ts.Client().Get(ts.URL + "/v2/labelers"); err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&page)
			resp.Body.Close()
		}
		for _, l := range page.Labelers {
			r.ids = append(r.ids, l.ID)
		}
		done <- r
	}()
	select {
	case r := <-done:
		if r.status != http.StatusOK || r.st.ID != st.ID || r.st.Annotator != "alice" || len(r.ids) != 1 || r.ids[0] != st.ID {
			t.Fatalf("status %d %+v, listing %v; want 200 for %s, listed", r.status, r.st, r.ids, st.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a labeler status waited behind an in-flight suggest")
	}
}

// TestLabelerCapRefusesRetryably fills the 4,096 live attachments a server
// takes: the next /v2 create answers 503 retryable and leaves no workspace
// behind, and a /v1 attach answers 503 with nothing journaled.
func TestLabelerCapRefusesRetryably(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	srv, _ := newTestServer(t, Config{JournalPath: path})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	mgr := srv.Workspaces()
	var wsIDs []string
	for i := 0; i < 2; i++ {
		ws, err := mgr.Create("directions", workspace.Options{SeedRules: []string{"best way to get to"}, Budget: 5})
		if err != nil {
			t.Fatal(err)
		}
		wsIDs = append(wsIDs, ws.ID())
	}
	for i := 0; i < 4096; i++ {
		if err := mgr.Attach(wsIDs[i%2], fmt.Sprintf("a%04d", i)); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
	}
	workspaces := mgr.Len()

	for _, req := range []darwin.CreateOptions{
		{Dataset: "directions", Mode: darwin.ModeWorkspace, Annotator: "late", SeedRules: []string{"best way to get to"}},
		{Mode: darwin.ModeWorkspace, Workspace: wsIDs[0], Annotator: "late"},
	} {
		var env darwin.ErrorEnvelope
		status := doJSON(t, ts, http.MethodPost, "/v2/labelers", req, &env)
		if status != http.StatusServiceUnavailable || env.Code != darwin.CodeUnavailable || !env.Retryable ||
			!strings.Contains(env.Message, "labeler limit reached (4096 live labelers)") {
			t.Errorf("/v2 create at the cap (workspace %q): HTTP %d %+v, want 503 unavailable retryable", req.Workspace, status, env)
		}
	}
	if got := mgr.Len(); got != workspaces {
		t.Errorf("refused creates left %d workspaces, want %d", got, workspaces)
	}

	journaled := func() int {
		t.Helper()
		if err := mgr.Sync(); err != nil {
			t.Fatal(err)
		}
		events, err := journal.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		return len(events)
	}
	before := journaled()
	if status := doJSON(t, ts, http.MethodPost, "/v1/workspaces/"+wsIDs[0]+"/annotators",
		map[string]string{"annotator": "late"}, nil); status != http.StatusServiceUnavailable {
		t.Errorf("/v1 attach at the cap: HTTP %d, want 503", status)
	}
	if after := journaled(); after != before {
		t.Errorf("a refused /v1 attach journaled %d events", after-before)
	}
}
