package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateV1Golden = flag.Bool("update-v1-golden", false, "rewrite testdata/v1_golden.txt from the current server")

// v1Step is one scripted /v1 request. Paths and bodies may name
// {session}, {workspace} and {key}: the id of the last created session or
// workspace, and the key of the last suggestion served.
type v1Step struct {
	method, path, body string
}

// v1Script is the scripted /v1 transcript: a session and a workspace each
// created with a seed rule, asked, answered once yes and once no, asked past
// the budget, reported, exported and deleted, plus attach/detach and the
// error paths (unknown ids, key mismatches, missing annotator, bad JSON).
var v1Script = []v1Step{
	{"POST", "/v1/sessions", `{"dataset":"directions","seed_rules":["best way to get to"],"budget":2,"seed":42}`},
	{"POST", "/v1/sessions/{session}/answer", `{"key":"tokensregex:nope","accept":true}`},
	{"GET", "/v1/sessions/{session}/suggest", ``},
	{"POST", "/v1/sessions/{session}/answer", `{"key":"tokensregex:wrong","accept":true}`},
	{"POST", "/v1/sessions/{session}/answer", `{"key":"","accept":true}`},
	{"POST", "/v1/sessions/{session}/answer", `{"key":`},
	{"POST", "/v1/sessions/{session}/answer", `{"key":"{key}","accept":true}`},
	{"GET", "/v1/sessions/{session}/suggest", ``},
	{"POST", "/v1/sessions/{session}/answer", `{"key":"{key}","accept":false}`},
	{"GET", "/v1/sessions/{session}/suggest", ``},
	{"GET", "/v1/sessions/{session}/report", ``},
	{"GET", "/v1/sessions/{session}/export", ``},
	{"DELETE", "/v1/sessions/{session}", ``},
	{"GET", "/v1/sessions/{session}/suggest", ``},
	{"GET", "/v1/sessions/{session}/report", ``},
	{"GET", "/v1/sessions/{session}/export", ``},
	{"DELETE", "/v1/sessions/{session}", ``},
	{"POST", "/v1/sessions/deadbeef/answer", `{"key":"k","accept":true}`},
	{"POST", "/v1/sessions", `not-json`},
	{"POST", "/v1/sessions", `{"dataset":"nope","seed_rules":["best way to get to"]}`},
	{"POST", "/v1/sessions", `{"dataset":"directions"}`},

	{"POST", "/v1/workspaces", `{"dataset":"directions","seed_rules":["best way to get to"],"budget":2,"seed":3}`},
	{"POST", "/v1/workspaces/{workspace}/annotators", `{"annotator":"alice"}`},
	{"POST", "/v1/workspaces/{workspace}/annotators", `{"annotator":"bob"}`},
	{"POST", "/v1/workspaces/{workspace}/annotators", `{"annotator":"alice"}`},
	{"POST", "/v1/workspaces/{workspace}/annotators", `{"annotator":""}`},
	{"POST", "/v1/workspaces/{workspace}/annotators", `{`},
	{"GET", "/v1/workspaces/{workspace}/suggest", ``},
	{"GET", "/v1/workspaces/{workspace}/suggest?annotator=ghost", ``},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":"alice","key":"tokensregex:nope","accept":true}`},
	{"GET", "/v1/workspaces/{workspace}/suggest?annotator=alice", ``},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":"alice","key":"tokensregex:wrong","accept":true}`},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":"alice","key":"","accept":true}`},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":"","key":"{key}","accept":true}`},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":`},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":"alice","key":"{key}","accept":true}`},
	{"GET", "/v1/workspaces/{workspace}/suggest?annotator=bob", ``},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":"bob","key":"{key}","accept":false}`},
	{"GET", "/v1/workspaces/{workspace}/suggest?annotator=alice", ``},
	{"GET", "/v1/workspaces/{workspace}/report", ``},
	{"GET", "/v1/workspaces/{workspace}/export", ``},
	{"DELETE", "/v1/workspaces/{workspace}/annotators/bob", ``},
	{"DELETE", "/v1/workspaces/{workspace}/annotators/bob", ``},
	{"GET", "/v1/workspaces/{workspace}/suggest?annotator=bob", ``},
	{"DELETE", "/v1/workspaces/{workspace}", ``},
	{"GET", "/v1/workspaces/{workspace}/suggest?annotator=alice", ``},
	{"POST", "/v1/workspaces/{workspace}/answer", `{"annotator":"alice","key":"k","accept":true}`},
	{"GET", "/v1/workspaces/{workspace}/report", ``},
	{"GET", "/v1/workspaces/{workspace}/export", ``},
	{"POST", "/v1/workspaces/{workspace}/annotators", `{"annotator":"carol"}`},
	{"DELETE", "/v1/workspaces/{workspace}/annotators/alice", ``},
	{"DELETE", "/v1/workspaces/{workspace}", ``},
	{"POST", "/v1/workspaces", `{"dataset":`},
	{"POST", "/v1/workspaces", `{"dataset":"nope","seed_rules":["best way to get to"]}`},
	{"POST", "/v1/workspaces", `{"dataset":"directions"}`},
}

// stepMillis matches the wall-clock fields of a session report, the only
// v1 body bytes that differ from run to run.
var stepMillis = regexp.MustCompile(`"(last_step_ms|avg_step_ms)":[^,}]*`)

// TestV1GoldenTranscript pins every /v1 response of v1Script byte for byte:
// status, Content-Type and body, with random ids and step timings masked and
// JSONL exports recorded as their length, digest and labeled lines. The
// server runs once without and once with a journal, and both must produce
// the same transcript.
func TestV1GoldenTranscript(t *testing.T) {
	golden := filepath.Join("testdata", "v1_golden.txt")
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"volatile", Config{}},
		{"journaled", Config{JournalPath: filepath.Join(t.TempDir(), "journal.jsonl")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServer(t, tc.cfg)
			ts := httptest.NewServer(srv)
			defer ts.Close()
			defer srv.Close()
			got := runV1Script(t, ts)
			if *updateV1Golden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-v1-golden to record it)", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
					}
				}
			}
		})
	}
}

// runV1Script plays v1Script against ts and renders the transcript.
func runV1Script(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	var out bytes.Buffer
	vars := map[string]string{}
	subst := func(s string) string {
		for name, val := range vars {
			s = strings.ReplaceAll(s, "{"+name+"}", val)
		}
		return s
	}
	for _, step := range v1Script {
		path, body := subst(step.path), subst(step.body)
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(step.method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var fields struct {
			ID  string `json:"id"`
			Key string `json:"key"`
		}
		if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			_ = json.Unmarshal(raw, &fields)
		}
		switch {
		case resp.StatusCode == http.StatusCreated && step.path == "/v1/sessions":
			vars["session"] = fields.ID
		case resp.StatusCode == http.StatusCreated && step.path == "/v1/workspaces":
			vars["workspace"] = fields.ID
		case fields.Key != "":
			vars["key"] = fields.Key
		}
		fmt.Fprintf(&out, "> %s %s\n", step.method, step.path)
		if step.body != "" {
			fmt.Fprintf(&out, "> %s\n", step.body)
		}
		fmt.Fprintf(&out, "< %d %s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
		out.WriteString(maskV1Body(raw, vars, resp.Header.Get("Content-Type") == "application/x-ndjson"))
		out.WriteString("\n")
	}
	return out.Bytes()
}

// maskV1Body replaces the run's random ids with their placeholder names and
// zeroes the step timings. A JSONL export is summarized by its length and
// SHA-256 (which pin every byte) followed by its positively labeled lines.
func maskV1Body(raw []byte, vars map[string]string, jsonl bool) string {
	if jsonl {
		var b strings.Builder
		fmt.Fprintf(&b, "%d bytes, sha256 %x\n", len(raw), sha256.Sum256(raw))
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if strings.Contains(line, `"label":1`) {
				b.WriteString(line)
			}
		}
		return b.String()
	}
	s := string(raw)
	for _, name := range []string{"session", "workspace"} {
		if id := vars[name]; id != "" {
			s = strings.ReplaceAll(s, id, "{"+name+"}")
		}
	}
	return stepMillis.ReplaceAllString(s, `"$1":0`)
}
