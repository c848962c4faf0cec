package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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
	if err := srv.sessJournal.w.Close(); err != nil {
		t.Fatal(err)
	}
	sessions := srv.store.Len()
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
	if got := srv.store.Len(); got != sessions {
		t.Errorf("failed creates left sessions behind: %d live, want %d", got, sessions)
	}
	if err := lab.Close(ctx); !errors.Is(err, darwin.ErrUnavailable) {
		t.Errorf("/v2 delete on a broken session journal: %v, want ErrUnavailable", err)
	}
	if _, ok := srv.store.Peek(lab.ID()); !ok {
		t.Error("an unjournaled delete removed the session")
	}
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
				if err := srv.sessJournal.recordAnswers(id, []darwin.RuleRecord{rec}); err != nil {
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
// drops a TTL-expired session from the in-memory shadow as well as from the
// log, so the shadow does not grow with every session ever created.
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
	srv.store.now = func() time.Time { return later }
	live := create()
	for j := 0; j < sessCompactEvery; j++ {
		if err := srv.sessJournal.recordAnswers(live, []darwin.RuleRecord{{Key: fmt.Sprintf("k%d", j)}}); err != nil {
			t.Fatal(err)
		}
	}
	sj := srv.sessJournal
	sj.mu.Lock()
	_, keptExpired := sj.creates[expired]
	_, keptLive := sj.creates[live]
	shadow := len(sj.creates) + len(sj.answers) + len(sj.dataset)
	sj.mu.Unlock()
	if keptExpired || !keptLive || shadow != 3 {
		t.Errorf("after compaction the shadow holds the expired session: %v, the live one: %v, %d entries (want false, true, 3)",
			keptExpired, keptLive, shadow)
	}
	if counts := sessionAnswerCounts(t, jp+".sessions"); counts[live] != sessCompactEvery {
		t.Errorf("live session: %d answers in the log, want %d", counts[live], sessCompactEvery)
	}
}
