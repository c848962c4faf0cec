package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
)

// newTestServer builds a server over one small synthetic "directions"
// dataset with a fast engine configuration. The corpus is returned so tests
// can consult gold labels when playing annotator.
func newTestServer(t *testing.T, cfg Config) (*Server, *corpus.Corpus) {
	t.Helper()
	c, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.Config{
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
	}
	engine, err := core.New(c, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, &Dataset{Name: "directions", Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// doJSON performs a request against the test server and decodes the JSON
// response into out (which may be nil).
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// playSession drives one full interactive session over HTTP, answering each
// suggestion by inspecting the shown samples against the corpus gold labels
// (the way a human annotator judges precision from the examples). It returns
// the session's final report.
func playSession(t *testing.T, ts *httptest.Server, c *corpus.Corpus, seedRule string, budget int, seed int64) reportResponse {
	t.Helper()
	var created createResponse
	status := doJSON(t, ts, http.MethodPost, "/v1/sessions", createRequest{
		Dataset:   "directions",
		SeedRules: []string{seedRule},
		Budget:    budget,
		Seed:      seed,
	}, &created)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if created.ID == "" || created.Positives == 0 || created.Budget != budget {
		t.Fatalf("bad create response: %+v", created)
	}

	base := "/v1/sessions/" + created.ID
	for {
		var sug suggestResponse
		if status := doJSON(t, ts, http.MethodGet, base+"/suggest", nil, &sug); status != http.StatusOK {
			t.Fatalf("suggest: status %d", status)
		}
		if sug.Done {
			break
		}
		if sug.Key == "" || sug.Rule == "" || len(sug.Samples) == 0 {
			t.Fatalf("incomplete suggestion: %+v", sug)
		}
		// Judge the rule from its sample sentences, like the annotator of
		// Figure 2: accept when at least 80% of the samples are positive.
		pos := 0
		for _, sm := range sug.Samples {
			if s := c.Sentence(sm.ID); s != nil && s.Gold == corpus.Positive {
				pos++
			}
			if got := c.Sentence(sm.ID); got == nil || got.Text != sm.Text {
				t.Fatalf("sample %d text does not match the corpus", sm.ID)
			}
		}
		accept := float64(pos)/float64(len(sug.Samples)) >= 0.8
		var ans answerResponse
		if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{Key: sug.Key, Accept: accept}, &ans); status != http.StatusOK {
			t.Fatalf("answer: status %d", status)
		}
		if ans.Record.Key != sug.Key || ans.Record.Accepted != accept {
			t.Fatalf("answer echoed wrong record: %+v", ans.Record)
		}
		if ans.Done {
			break
		}
	}

	var rep reportResponse
	if status := doJSON(t, ts, http.MethodGet, base+"/report", nil, &rep); status != http.StatusOK {
		t.Fatalf("report: status %d", status)
	}
	return rep
}

// TestEndToEndInteractiveSession walks the full HTTP lifecycle: create ->
// suggest -> answer (repeat) -> report -> export.
func TestEndToEndInteractiveSession(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Liveness first.
	var health healthJSON
	if status := doJSON(t, ts, http.MethodGet, "/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if health.Status != "ok" || len(health.Datasets) != 1 || health.Datasets[0] != "directions" {
		t.Fatalf("bad health: %+v", health)
	}

	rep := playSession(t, ts, c, "best way to get to", 15, 3)
	if rep.Questions == 0 || rep.Questions > 15 {
		t.Fatalf("questions = %d", rep.Questions)
	}
	if len(rep.History) != rep.Questions {
		t.Fatalf("history has %d records for %d questions", len(rep.History), rep.Questions)
	}
	if len(rep.Accepted) == 0 || rep.Accepted[0].Question != 0 {
		t.Fatalf("seed rule missing from accepted: %+v", rep.Accepted)
	}
	if rep.Positives == 0 {
		t.Fatal("no positives discovered")
	}

	// The report carries the session's step latency, and healthz aggregates
	// the latency of every suggest call served so far.
	if rep.LastStepMillis <= 0 || rep.AvgStepMillis <= 0 {
		t.Errorf("report step latency missing: last=%v avg=%v", rep.LastStepMillis, rep.AvgStepMillis)
	}
	if status := doJSON(t, ts, http.MethodGet, "/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if health.Steps < int64(rep.Questions) {
		t.Errorf("healthz steps = %d, want >= %d", health.Steps, rep.Questions)
	}
	if health.AvgStepMillis <= 0 || health.LastStepMillis <= 0 {
		t.Errorf("healthz step latency missing: %+v", health)
	}

	// Export the labeled corpus and check it against the report.
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + rep.ID + "/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("export content type = %q", ct)
	}
	labeled := 0
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var rec struct {
			ID    int    `json:"id"`
			Text  string `json:"text"`
			Label int    `json:"label"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("export line %d: %v", lines, err)
		}
		if rec.ID != lines {
			t.Fatalf("export line %d has id %d", lines, rec.ID)
		}
		if rec.Label == 1 {
			labeled++
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != c.Len() {
		t.Fatalf("export has %d lines, corpus has %d sentences", lines, c.Len())
	}
	if labeled != rep.Positives {
		t.Fatalf("export labeled %d sentences, report says %d", labeled, rep.Positives)
	}

	// Deleting the session makes it unreachable.
	if status := doJSON(t, ts, http.MethodDelete, "/v1/sessions/"+rep.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	if status := doJSON(t, ts, http.MethodGet, "/v1/sessions/"+rep.ID+"/report", nil, nil); status != http.StatusNotFound {
		t.Fatalf("report after delete: status %d", status)
	}
}

// TestConcurrentHTTPSessions runs >= 8 interactive sessions concurrently
// against one shared engine; with -race this exercises the whole stack's lock
// discipline end to end.
func TestConcurrentHTTPSessions(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const workers = 8
	reports := make([]reportResponse, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seedRule := "best way to get to"
			if w%2 == 1 {
				seedRule = "shuttle to"
			}
			reports[w] = playSession(t, ts, c, seedRule, 6, int64(w+1))
		}(w)
	}
	wg.Wait()

	for w, rep := range reports {
		if rep.Positives == 0 {
			t.Errorf("worker %d discovered no positives", w)
		}
		if rep.Questions == 0 {
			t.Errorf("worker %d asked no questions", w)
		}
	}
	if got := srv.Store().Len(); got != workers {
		t.Errorf("store has %d sessions, want %d", got, workers)
	}
}

func TestSessionTTLExpiry(t *testing.T) {
	srv, _ := newTestServer(t, Config{SessionTTL: time.Minute})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var created createResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/sessions", createRequest{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    5,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}

	// Advance the store's clock past the TTL; the session must be gone both
	// via lazy Get eviction and via an explicit sweep.
	srv.Store().now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	if status := doJSON(t, ts, http.MethodGet, "/v1/sessions/"+created.ID+"/suggest", nil, nil); status != http.StatusNotFound {
		t.Fatalf("expired session answered with status %d", status)
	}
	srv.Store().Sweep()
	if got := srv.Store().Len(); got != 0 {
		t.Errorf("store still holds %d sessions after sweep", got)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown dataset", http.MethodPost, "/v1/sessions", createRequest{Dataset: "nope"}, http.StatusNotFound},
		{"bad create body", http.MethodPost, "/v1/sessions", "not-json", http.StatusBadRequest},
		{"bad seed rule", http.MethodPost, "/v1/sessions", createRequest{Dataset: "directions", SeedRules: []string{"@@@ ???"}}, http.StatusBadRequest},
		{"empty seeds", http.MethodPost, "/v1/sessions", createRequest{Dataset: "directions"}, http.StatusBadRequest},
		{"too many seed rules", http.MethodPost, "/v1/sessions", createRequest{Dataset: "directions", SeedRules: make([]string, 17)}, http.StatusBadRequest},
		{"unknown session suggest", http.MethodGet, "/v1/sessions/deadbeef/suggest", nil, http.StatusNotFound},
		{"unknown session answer", http.MethodPost, "/v1/sessions/deadbeef/answer", answerRequest{Key: "k"}, http.StatusNotFound},
		{"unknown session report", http.MethodGet, "/v1/sessions/deadbeef/report", nil, http.StatusNotFound},
		{"unknown session export", http.MethodGet, "/v1/sessions/deadbeef/export", nil, http.StatusNotFound},
		{"unknown session delete", http.MethodDelete, "/v1/sessions/deadbeef", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		var errResp errorJSON
		if status := doJSON(t, ts, tc.method, tc.path, tc.body, &errResp); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		} else if errResp.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	// Answering without a pending suggestion, and with a mismatched key, are
	// conflicts that leave the session usable.
	var created createResponse
	if status := doJSON(t, ts, http.MethodPost, "/v1/sessions", createRequest{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    5,
	}, &created); status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	base := "/v1/sessions/" + created.ID
	if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{Key: "k", Accept: true}, nil); status != http.StatusConflict {
		t.Fatalf("answer with no pending suggestion: status %d", status)
	}
	var sug suggestResponse
	if status := doJSON(t, ts, http.MethodGet, base+"/suggest", nil, &sug); status != http.StatusOK || sug.Done {
		t.Fatalf("suggest: status %d done=%v", status, sug.Done)
	}
	if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{Key: "wrong", Accept: true}, nil); status != http.StatusConflict {
		t.Fatalf("mismatched answer key: status %d", status)
	}
	var ans answerResponse
	if status := doJSON(t, ts, http.MethodPost, base+"/answer", answerRequest{Key: sug.Key, Accept: true}, &ans); status != http.StatusOK {
		t.Fatalf("valid answer after conflicts: status %d", status)
	}
}

func TestStoreCapacity(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxSessions: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	make1 := func() int {
		return doJSON(t, ts, http.MethodPost, "/v1/sessions", createRequest{
			Dataset:   "directions",
			SeedRules: []string{"best way to get to"},
			Budget:    5,
		}, nil)
	}
	for i := 0; i < 2; i++ {
		if status := make1(); status != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, status)
		}
	}
	if status := make1(); status != http.StatusServiceUnavailable {
		t.Fatalf("create beyond capacity: status %d", status)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no datasets should error")
	}
	if _, err := New(Config{}, &Dataset{Name: "", Engine: nil}); err == nil {
		t.Error("nameless/engineless dataset should error")
	}
	srv, c := newTestServer(t, Config{})
	_ = c
	d := srv.datasets["directions"]
	if _, err := New(Config{}, d, d); err == nil {
		t.Error("duplicate dataset should error")
	}
}

func TestStoreSweepAndJanitor(t *testing.T) {
	st := NewStore(time.Millisecond, 10)
	if _, err := st.Create("d", nil); err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	st.now = func() time.Time { return base.Add(time.Second) }
	if n := st.Sweep(); n != 1 {
		t.Errorf("sweep evicted %d, want 1", n)
	}
	if st.Len() != 0 {
		t.Errorf("store not empty after sweep")
	}

	// The janitor sweeps periodically until stopped.
	if _, err := st.Create("d", nil); err != nil {
		t.Fatal(err)
	}
	st.now = func() time.Time { return base.Add(2 * time.Second) }
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { st.Janitor(5*time.Millisecond, stop); close(done) }()
	deadline := time.After(2 * time.Second)
	for st.Len() != 0 {
		select {
		case <-deadline:
			t.Fatal("janitor never swept the expired session")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
}

func TestStoreIDsAreUnique(t *testing.T) {
	st := NewStore(time.Minute, 100)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		en, err := st.Create(fmt.Sprintf("d%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(en.id) != 32 {
			t.Fatalf("id %q is not 32 hex chars", en.id)
		}
		if seen[en.id] {
			t.Fatalf("duplicate id %q", en.id)
		}
		seen[en.id] = true
	}
}
