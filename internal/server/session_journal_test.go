package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/pkg/darwin"
)

// TestSessionJournalRecovery pins session journaling: plain solo
// sessions journaled to "<journal>.sessions" survive a server restart with
// the same id, the same accepted rules, and the same remaining budget, while
// deleted sessions stay deleted. It runs once with one seed rule and once
// with two.
func TestSessionJournalRecovery(t *testing.T) {
	for _, seeds := range [][]string{
		{"best way to get to"},
		{"best way to get to", "way to get to"},
	} {
		t.Run(fmt.Sprintf("seeds=%d", len(seeds)), func(t *testing.T) { checkSessionJournalRecovery(t, seeds) })
	}
}

func checkSessionJournalRecovery(t *testing.T, seeds []string) {
	jp := filepath.Join(t.TempDir(), "ws.jsonl")
	cfg := Config{JournalPath: jp}
	srv, _ := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: seeds, Budget: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sug, err := lab.Suggest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// A second session deleted before the restart must not come back.
	gone, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gone.Close(ctx); err != nil {
		t.Fatal(err)
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same journal: the engine is rebuilt identically, so
	// replaying create + answers reproduces the exact labeler.
	srv2, _ := newTestServer(t, cfg)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := darwin.NewClient(ts2.URL, "")

	got, err := client2.OpenLabeler(lab.ID()).Report(ctx)
	if err != nil {
		t.Fatalf("recovered session report: %v", err)
	}
	if got.Questions != want.Questions || got.Budget != want.Budget || got.Positives != want.Positives {
		t.Errorf("recovered report %+v != pre-restart %+v", got, want)
	}
	if !reflect.DeepEqual(got.Accepted, want.Accepted) {
		t.Errorf("recovered accepted rules %v != pre-restart %v", got.Accepted, want.Accepted)
	}
	if len(got.Accepted) < len(seeds) {
		t.Errorf("recovered accepted rules %v lack the %d seed rules", got.Accepted, len(seeds))
	}
	// The recovered session keeps working: the suggestion stream continues.
	if _, err := client2.OpenLabeler(lab.ID()).Suggest(ctx); err != nil {
		t.Errorf("recovered session cannot suggest: %v", err)
	}

	if _, err := client2.OpenLabeler(gone.ID()).Report(ctx); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("deleted session resurrected: %v", err)
	}
}

// TestServedSessionAnswerIsJournaled pins that every answer verb of the
// labeler a session is served as journals: a verdict given through
// Labeler.Answer survives a restart like one given in a batch.
func TestServedSessionAnswerIsJournaled(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "ws.jsonl")}
	srv, _ := newTestServer(t, cfg)
	ctx := t.Context()
	st, err := srv.CreateLabeler(ctx, darwin.CreateOptions{Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := srv.Labeler(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, cfg)
	defer srv2.Close()
	got, err := srv2.LabelerStatus(ctx, st.ID)
	if err != nil {
		t.Fatalf("recovered session status: %v", err)
	}
	if got.Questions != 1 {
		t.Errorf("recovered session answered %d questions, want 1", got.Questions)
	}
}

// TestSessionJournalAnswersAfterRecovery makes sure a recovered session's
// post-restart answers are journaled too: a second restart replays both
// generations of answers.
func TestSessionJournalTwoRestarts(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "ws.jsonl")
	cfg := Config{JournalPath: jp}
	srv, _ := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2)
	client2 := darwin.NewClient(ts2.URL, "")
	lab2 := client2.OpenLabeler(lab.ID())
	sug2, err := lab2.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab2.Answer(ctx, darwin.Answer{Key: sug2.Key, Accept: false}); err != nil {
		t.Fatal(err)
	}
	want, err := lab2.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	srv3, _ := newTestServer(t, cfg)
	defer srv3.Close()
	ts3 := httptest.NewServer(srv3)
	defer ts3.Close()
	got, err := darwin.NewClient(ts3.URL, "").OpenLabeler(lab.ID()).Report(ctx)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if got.Questions != want.Questions || !reflect.DeepEqual(got.Accepted, want.Accepted) {
		t.Errorf("second recovery report %+v != %+v", got, want)
	}
}

// TestSessionJournalFailureIsNotAcknowledged pins the durability contract of
// solo sessions: once a session-journal append fails, answers, creates and
// deletes over /v1 and /v2 fail with 503 instead of acknowledging changes
// the log does not hold, and a failed create leaves no session behind.
func TestSessionJournalFailureIsNotAcknowledged(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "ws.jsonl")
	srv, _ := newTestServer(t, Config{JournalPath: jp})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatal(err)
	}

	// Break the log: every later append fails. The first create to notice
	// is the one whose own append fails; it must not leave its session in
	// the store.
	if err := srv.sessions.w.Close(); err != nil {
		t.Fatal(err)
	}
	sessions := srv.sessions.len()
	if _, err := client.NewLabeler(ctx, darwin.CreateOptions{Dataset: "directions", SeedRules: []string{"best way to get to"}}); !errors.Is(err, darwin.ErrUnavailable) {
		t.Errorf("/v2 create on a broken session journal: %v, want ErrUnavailable", err)
	}
	sug, err = lab.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: false}); !errors.Is(err, darwin.ErrUnavailable) {
		t.Errorf("/v2 answer on a broken session journal: %v, want ErrUnavailable", err)
	}
	v1Answer, err := http.Post(ts.URL+"/v1/sessions/"+lab.ID()+"/answer", "application/json",
		strings.NewReader(fmt.Sprintf(`{"key":%q,"accept":false}`, sug.Key)))
	if err != nil {
		t.Fatal(err)
	}
	v1Answer.Body.Close()
	if v1Answer.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/v1 answer on a broken session journal: HTTP %d, want 503", v1Answer.StatusCode)
	}
	v1Create, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"dataset":"directions","seed_rules":["best way to get to"]}`))
	if err != nil {
		t.Fatal(err)
	}
	v1Create.Body.Close()
	if v1Create.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/v1 create on a broken session journal: HTTP %d, want 503", v1Create.StatusCode)
	}
	if got := srv.sessions.len(); got != sessions {
		t.Errorf("failed creates left sessions behind: %d live, want %d", got, sessions)
	}
	if err := lab.Close(ctx); !errors.Is(err, darwin.ErrUnavailable) {
		t.Errorf("/v2 delete on a broken session journal: %v, want ErrUnavailable", err)
	}
	if _, ok := srv.sessions.peek(lab.ID()); !ok {
		t.Error("an unjournaled delete removed the session")
	}
}

// recordAnswers journals recs as one answer call of the live session id,
// the way the served labeler does once it has applied them, without
// applying them.
func recordAnswers(srv *Server, id string, recs []darwin.RuleRecord) error {
	r := srv.sessions
	en, ok := r.peek(id)
	if !ok {
		return fmt.Errorf("no live session %s", id)
	}
	defer r.maybeCompact()
	r.gate.RLock()
	defer r.gate.RUnlock()
	en.mu.Lock()
	defer en.mu.Unlock()
	return r.recordLocked(en, recs)
}

// sessionAnswerCounts counts the answer events per session in a session log.
func sessionAnswerCounts(t *testing.T, path string) map[string]int {
	t.Helper()
	events, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, ev := range events {
		if ev.Type == sessEventAnswer {
			counts[ev.WS]++
		}
	}
	return counts
}

// TestSessionJournalCompactionKeepsConcurrentAppends records answers from
// eight goroutines across the compaction threshold (twice): every
// acknowledged answer must be in the log afterwards. A compaction that
// captured the shadow, released the lock and then rewrote the log lost the
// answers appended in between, to the file the rewrite replaced.
func TestSessionJournalCompactionKeepsConcurrentAppends(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "ws.jsonl")
	srv, _ := newTestServer(t, Config{JournalPath: jp})
	const workers, perWorker = 8, 1200
	ids := make([]string, workers)
	for i := range ids {
		st, err := srv.CreateLabeler(t.Context(), darwin.CreateOptions{
			Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				rec := darwin.RuleRecord{Key: fmt.Sprintf("k%d", j), Accepted: j%2 == 0}
				if err := recordAnswers(srv, id, []darwin.RuleRecord{rec}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	counts := sessionAnswerCounts(t, jp+".sessions")
	for _, id := range ids {
		if counts[id] != perWorker {
			t.Errorf("session %s: %d answers in the log, %d acknowledged", id, counts[id], perWorker)
		}
	}
}

// TestSessionJournalCompactionForgetsExpiredSessions pins that compaction
// drops a TTL-expired session from the log, so the log does not grow with
// every session ever created.
func TestSessionJournalCompactionForgetsExpiredSessions(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "ws.jsonl")
	srv, _ := newTestServer(t, Config{JournalPath: jp, SessionTTL: time.Minute})
	defer srv.Close()
	create := func() string {
		st, err := srv.CreateLabeler(t.Context(), darwin.CreateOptions{
			Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	expired := create()
	later := time.Now().Add(time.Hour)
	srv.sessions.now = func() time.Time { return later }
	live := create()
	for j := 0; j < sessCompactEvery; j++ {
		if err := recordAnswers(srv, live, []darwin.RuleRecord{{Key: fmt.Sprintf("k%d", j)}}); err != nil {
			t.Fatal(err)
		}
	}
	events, err := journal.ReadAll(jp + ".sessions")
	if err != nil {
		t.Fatal(err)
	}
	keptExpired := false
	creates := make(map[string]int)
	for _, ev := range events {
		keptExpired = keptExpired || ev.WS == expired
		if ev.Type == sessEventCreate {
			creates[ev.WS]++
		}
	}
	if keptExpired || creates[live] != 1 || len(creates) != 1 {
		t.Errorf("after compaction the log holds the expired session: %v, the live one's create %d times, %d sessions (want false, 1, 1)",
			keptExpired, creates[live], len(creates))
	}
	if counts := sessionAnswerCounts(t, jp+".sessions"); counts[live] != sessCompactEvery {
		t.Errorf("live session: %d answers in the log, want %d", counts[live], sessCompactEvery)
	}
}

// TestSessionJournalRecordsTTLEviction pins that a TTL eviction is journaled
// like a delete, whether a sweep or a lookup drops the expired session: both
// stay gone after a restart over the same journal.
func TestSessionJournalRecordsTTLEviction(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "ws.jsonl"), SessionTTL: time.Minute}
	srv, _ := newTestServer(t, cfg)
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := srv.CreateLabeler(t.Context(), darwin.CreateOptions{
			Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	srv.sessions.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	if _, err := srv.Labeler(ids[0]); !errors.Is(err, darwin.ErrNotFound) {
		t.Fatalf("lookup of an expired session: %v, want ErrNotFound", err)
	}
	if n := srv.sessions.sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, cfg)
	defer srv2.Close()
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v2/labelers/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("TTL-expired session %s is live again after restart: HTTP %d", id, resp.StatusCode)
		}
	}
}

// TestSessionJournalKeepsAnswerOrder fires concurrent blind answers at one
// journaled session. Each answer is logged in the critical section that
// applies it, so replay after a restart rebuilds the same session; a log
// out of apply order diverges on replay, and the session is dropped.
func TestSessionJournalKeepsAnswerOrder(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "ws.jsonl")}
	srv, _ := newTestServer(t, cfg)
	ctx := t.Context()
	st, err := srv.CreateLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := srv.Labeler(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := darwin.AnswerBatch(ctx, lab, []darwin.Answer{{Accept: (g+i)%2 == 0}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	want, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want.Questions != workers*perWorker {
		t.Fatalf("session answered %d questions, want %d", want.Questions, workers*perWorker)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, _ := newTestServer(t, cfg)
	defer srv2.Close()
	lab2, err := srv2.Labeler(st.ID)
	if err != nil {
		t.Fatalf("session lost across restart: %v", err)
	}
	got, err := lab2.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report after restart differs:\n got %+v\nwant %+v", got, want)
	}
}

// sessionLogFixture is testdata/sessions_log/reports.json: the reports an
// earlier build of the server served, just before shutdown, for the
// sessions in the logs beside it, and the ids of the sessions it deleted.
type sessionLogFixture struct {
	Reports map[string]darwin.Report `json:"reports"`
	Deleted []string                 `json:"deleted"`
}

// TestSessionJournalRecoversRecordedLog recovers journals written by an
// earlier build of the server: two sessions with keyed and blind answers,
// and one deleted. Each survivor must serve the report that build served,
// byte for byte, so the session log format is pinned by a test.
func TestSessionJournalRecoversRecordedLog(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ws.jsonl", "ws.jsonl.sessions"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "sessions_log", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantRaw, err := os.ReadFile(filepath.Join("testdata", "sessions_log", "reports.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want sessionLogFixture
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}

	srv, _ := newTestServer(t, Config{JournalPath: filepath.Join(dir, "ws.jsonl")})
	defer srv.Close()
	ctx := t.Context()
	got := sessionLogFixture{Reports: make(map[string]darwin.Report), Deleted: want.Deleted}
	for id := range want.Reports {
		lab, err := srv.Labeler(id)
		if err != nil {
			t.Fatalf("recorded session %s not recovered: %v", id, err)
		}
		if got.Reports[id], err = lab.Report(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range want.Deleted {
		if _, err := srv.Labeler(id); !errors.Is(err, darwin.ErrNotFound) {
			t.Errorf("deleted session %s recovered: %v", id, err)
		}
	}
	gotRaw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if gotRaw = append(gotRaw, '\n'); !bytes.Equal(gotRaw, wantRaw) {
		t.Errorf("recovered reports differ from the recorded ones:\n got %s\nwant %s", gotRaw, wantRaw)
	}
}
