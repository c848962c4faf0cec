package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

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
