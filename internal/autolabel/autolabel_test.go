package autolabel

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
)

// testEngine builds a small directions engine with the fast configuration the
// server tests use.
func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	c, err := datagen.ByName("directions", 0.05, 7)
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
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testSpec() Spec {
	return Spec{
		Rules:       []string{"best way to get to", "how do i get"},
		Aggregator:  AggregatorGenerative,
		IncludeProb: true,
		ChunkSize:   64,
	}
}

func runOnce(t *testing.T, eng *core.Engine, spec Spec) ([]byte, Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := Run(context.Background(), eng, spec, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestRunDeterministic(t *testing.T) {
	eng := testEngine(t)
	for _, agg := range []string{AggregatorMajority, AggregatorGenerative} {
		spec := testSpec()
		spec.Aggregator = agg
		a, resA := runOnce(t, eng, spec)
		b, resB := runOnce(t, eng, spec)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs differ", agg)
		}
		if resA != resB {
			t.Fatalf("%s: results differ: %+v vs %+v", agg, resA, resB)
		}
		if resA.Sentences != eng.Corpus().Len() {
			t.Errorf("%s: labeled %d of %d sentences", agg, resA.Sentences, eng.Corpus().Len())
		}
		if resA.Covered == 0 || resA.Positives == 0 {
			t.Errorf("%s: committee covered nothing: %+v", agg, resA)
		}
		if resA.OutputBytes != int64(len(a)) {
			t.Errorf("%s: OutputBytes %d != written %d", agg, resA.OutputBytes, len(a))
		}
		lines := bytes.Split(bytes.TrimSuffix(a, []byte("\n")), []byte("\n"))
		if len(lines) != resA.Sentences {
			t.Fatalf("%s: %d output lines for %d sentences", agg, len(lines), resA.Sentences)
		}
		var rec struct {
			ID    int      `json:"id"`
			Text  string   `json:"text"`
			Label int      `json:"label"`
			Prob  *float64 `json:"prob"`
		}
		if err := json.Unmarshal(lines[0], &rec); err != nil {
			t.Fatalf("%s: first line is not JSON: %v", agg, err)
		}
		if rec.Text == "" || rec.Prob == nil {
			t.Errorf("%s: first record incomplete: %s", agg, lines[0])
		}
	}
}

func TestRunProgressAndCancel(t *testing.T) {
	eng := testEngine(t)
	stages := map[string]bool{}
	var buf bytes.Buffer
	if _, err := Run(context.Background(), eng, testSpec(), &buf, func(stage string, done, total int) {
		stages[stage] = true
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{StageResolve, StageVotes, StageAggregate, StageWrite} {
		if !stages[want] {
			t.Errorf("progress never reported stage %q", want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, eng, testSpec(), io.Discard, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	eng := testEngine(t)
	cases := []struct {
		name string
		spec Spec
	}{
		{"no rules", Spec{}},
		{"unknown aggregator", Spec{Rules: []string{"best way"}, Aggregator: "quorum"}},
		{"unresolved labeler", Spec{Rules: []string{"best way"}, Labeler: "sess-1"}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(eng); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate = %v, want ErrInvalidSpec", tc.name, err)
		}
		if _, err := Run(context.Background(), eng, tc.spec, io.Discard, nil); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Run = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

func newTestManager(t *testing.T, dir string, eng *core.Engine) *Manager {
	t.Helper()
	m, err := NewManager(ManagerConfig{Dir: dir, Workers: 1, Logf: t.Logf},
		func(name string) (*core.Engine, bool) {
			if name == "directions" {
				return eng, true
			}
			return nil, false
		})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitDone(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func readOutput(t *testing.T, m *Manager, id string, offset int64) []byte {
	t.Helper()
	rc, err := m.OpenOutput(id, offset)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	out, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestManagerLifecycle(t *testing.T) {
	eng := testEngine(t)
	direct, directRes := runOnce(t, eng, testSpec())
	m := newTestManager(t, t.TempDir(), eng)
	defer m.Close()

	if _, err := m.Submit("nope", testSpec()); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("unknown dataset: %v", err)
	}
	if _, err := m.Submit("directions", Spec{}); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("invalid spec: %v", err)
	}
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Dataset != "directions" {
		t.Fatalf("queued status %+v", st)
	}
	st = waitDone(t, m, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Covered != directRes.Covered || st.Positives != directRes.Positives ||
		st.OutputBytes != directRes.OutputBytes || st.SentencesLabeled != directRes.Sentences {
		t.Errorf("done status %+v does not match direct result %+v", st, directRes)
	}
	if got := readOutput(t, m, st.ID, 0); !bytes.Equal(got, direct) {
		t.Error("job output differs from direct Run output")
	}
	// Resumable download: offset skips exactly the prefix.
	if got := readOutput(t, m, st.ID, 100); !bytes.Equal(got, direct[100:]) {
		t.Error("offset read differs from output suffix")
	}
	if _, err := m.Status("jmissing"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: %v", err)
	}
}

func TestManagerReplayInterruptedJob(t *testing.T) {
	eng := testEngine(t)
	direct, _ := runOnce(t, eng, testSpec())
	dir := t.TempDir()

	// A create record with no terminal record is exactly what a SIGKILL
	// mid-job leaves behind; a torn trailing line is a crash mid-append.
	spec := testSpec()
	rec, err := json.Marshal(jobRecord{Type: "create", ID: "jdeadbeef00000000", Dataset: "directions", Spec: &spec, Unix: 1})
	if err != nil {
		t.Fatal(err)
	}
	journal := append(rec, '\n')
	journal = append(journal, []byte(`{"type":"done","id":"jdeadbe`)...) // torn tail
	if err := os.WriteFile(filepath.Join(dir, "jobs.log"), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, dir, eng)
	defer m.Close()
	st := waitDone(t, m, "jdeadbeef00000000")
	if st.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", st.State, st.Error)
	}
	if got := readOutput(t, m, st.ID, 0); !bytes.Equal(got, direct) {
		t.Error("recovered job output differs from direct Run output")
	}
}

func TestManagerReopenRestoresAndRebuilds(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	want := readOutput(t, m, st.ID, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the done record restores the status without re-running.
	m2 := newTestManager(t, dir, eng)
	st2, err := m2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || st2.OutputBytes != st.OutputBytes {
		t.Fatalf("reopened status %+v, want done with %d bytes", st2, st.OutputBytes)
	}
	if got := readOutput(t, m2, st.ID, 0); !bytes.Equal(got, want) {
		t.Error("output changed across reopen")
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Delete the output: reopen must notice and rebuild identical bytes.
	if err := os.Remove(m2.OutputPath(st.ID)); err != nil {
		t.Fatal(err)
	}
	m3 := newTestManager(t, dir, eng)
	defer m3.Close()
	st3 := waitDone(t, m3, st.ID)
	if st3.State != StateDone {
		t.Fatalf("rebuilt job ended %s: %s", st3.State, st3.Error)
	}
	if got := readOutput(t, m3, st.ID, 0); !bytes.Equal(got, want) {
		t.Error("rebuilt output differs from original")
	}
}

func TestPosThresholdExplicitZero(t *testing.T) {
	eng := testEngine(t)
	if sp := (Spec{}).withDefaults(); *sp.PosThreshold != 0.5 {
		t.Errorf("unset threshold resolved to %v, want 0.5", *sp.PosThreshold)
	}
	zero := 0.0
	if sp := (Spec{PosThreshold: &zero}).withDefaults(); *sp.PosThreshold != 0 {
		t.Errorf("explicit zero threshold resolved to %v, want 0", *sp.PosThreshold)
	}
	// Generative aggregation gives every uncovered sentence the class prior
	// (> 0 with a positive committee), so threshold 0 labels the whole corpus
	// while the default 0.5 leaves the prior-sitting sentences negative.
	specDefault := testSpec()
	_, resDefault := runOnce(t, eng, specDefault)
	specZero := testSpec()
	specZero.PosThreshold = &zero
	_, resZero := runOnce(t, eng, specZero)
	if resZero.Positives != resZero.Sentences {
		t.Errorf("threshold 0 labeled %d of %d sentences positive", resZero.Positives, resZero.Sentences)
	}
	if resDefault.Positives >= resDefault.Sentences {
		t.Errorf("default threshold labeled the whole corpus positive (%d)", resDefault.Positives)
	}
}

// TestManagerReplayRejectsMidJournalCorruption pins that only a torn final
// line is dropped: a garbage line followed by valid records fails
// NewManager with the file and line, and leaves the journal untouched
// instead of compacting the later, acknowledged jobs away.
func TestManagerReplayRejectsMidJournalCorruption(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	spec := testSpec()
	res := Result{Sentences: 5, Rules: 2, Covered: 3, Positives: 2, OutputBytes: 11}
	record := func(rec jobRecord) []byte {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	var journal []byte
	journal = append(journal, record(jobRecord{Type: "create", ID: "j1", Dataset: "directions", Spec: &spec, Unix: 1})...)
	journal = append(journal, "not a job record\n"...)
	journal = append(journal, record(jobRecord{Type: "create", ID: "j2", Dataset: "directions", Spec: &spec, Unix: 1})...)
	journal = append(journal, record(jobRecord{Type: "done", ID: "j2", Result: &res, Unix: time.Now().Unix()})...)
	path := filepath.Join(dir, "jobs.log")
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(ManagerConfig{Dir: dir, Workers: 1, Logf: t.Logf},
		func(string) (*core.Engine, bool) { return eng, true })
	if err == nil {
		m.Close()
		t.Fatal("NewManager accepted a journal with a corrupt line before valid records")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name %s line 2", err, path)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, journal) {
		t.Errorf("journal changed after the failed open (err %v)", err)
	}
}

// TestManagerReplayDuplicateTerminalRecords pins that replay tolerates a
// journal holding several terminal records for one id (the shape a rebuilt
// output leaves behind) instead of panicking on a double close of j.done.
func TestManagerReplayDuplicateTerminalRecords(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	spec := testSpec()
	res := Result{Sentences: 5, Rules: 2, Covered: 3, Positives: 2, OutputBytes: 11}
	var journal []byte
	for _, rec := range []jobRecord{
		{Type: "create", ID: "jdup0000000000000", Dataset: "directions", Spec: &spec, Unix: 1},
		{Type: "done", ID: "jdup0000000000000", Result: &res, Unix: time.Now().Unix()},
		{Type: "done", ID: "jdup0000000000000", Result: &res, Unix: time.Now().Unix()},
		{Type: "failed", ID: "jdup0000000000000", Error: "boom", Unix: time.Now().Unix()},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs.log"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jdup0000000000000.jsonl"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, dir, eng)
	defer m.Close()
	st, err := m.Status("jdup0000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Error != "" || st.Covered != res.Covered {
		t.Errorf("replayed status %+v, want done matching the first terminal record", st)
	}
}

// TestManagerJournalCompaction drives the rebuild lifecycle through real
// manager opens: losing a done job's output makes the reopen re-enqueue it,
// compact the stale "done" record away, and journal a fresh one when the
// rebuild finishes — so the journal stays at one create + at most one
// terminal record per job across any number of reopens.
func TestManagerJournalCompaction(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	journalLines := func() int {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(data, []byte("\n"))
	}
	m := newTestManager(t, dir, eng)
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	want := readOutput(t, m, st.ID, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(m.OutputPath(st.ID)); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir, eng)
	waitDone(t, m2, st.ID)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journalLines(); got != 2 {
		t.Fatalf("journal after rebuild has %d records, want 2 (create + fresh done)", got)
	}

	m3 := newTestManager(t, dir, eng)
	defer m3.Close()
	st3, err := m3.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != StateDone {
		t.Fatalf("job is %s after compacting reopen: %s", st3.State, st3.Error)
	}
	if got := readOutput(t, m3, st.ID, 0); !bytes.Equal(got, want) {
		t.Error("output changed across compacting reopen")
	}
	if got := journalLines(); got != 2 {
		t.Errorf("compacted journal has %d records, want 2 (create + done)", got)
	}
}

// TestManagerExpiredJobsStayDeadAcrossReopen pins that a TTL sweep is
// journaled: reopening after an expiry must not resurrect (and re-run) the
// expired job from its create + done records.
func TestManagerExpiredJobsStayDeadAcrossReopen(t *testing.T) {
	eng := testEngine(t)
	dir := t.TempDir()
	m := newTestManager(t, dir, eng)
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	m.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if _, err := m.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired job status: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir, eng)
	defer m2.Close()
	if _, err := m2.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("expired job resurrected across reopen: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(data)) != 0 {
		t.Errorf("journal not compacted after expiry:\n%s", data)
	}
}

// TestWaitUnblocksOnClose pins that Close leaves no Wait caller hanging:
// neither the job interrupted mid-run nor the one still sitting in the queue.
func TestWaitUnblocksOnClose(t *testing.T) {
	eng := testEngine(t)
	m := newTestManager(t, t.TempDir(), eng)
	slowSpec := testSpec()
	slowSpec.EMIterations = 300000 // keeps the job mid-aggregate until Close
	running, err := m.Submit("directions", slowSpec)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("directions", slowSpec) // Workers: 1, so this one waits
	if err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan struct{})
	go func() {
		defer close(unblocked)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, id := range []string{running.ID, queued.ID} {
			if _, err := m.Wait(ctx, id); err != nil {
				t.Errorf("Wait(%s) after Close: %v", id, err)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-unblocked:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait callers still blocked after Close")
	}
}

func TestManagerTTLSweep(t *testing.T) {
	eng := testEngine(t)
	m := newTestManager(t, t.TempDir(), eng)
	defer m.Close()
	st, err := m.Submit("directions", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, st.ID)
	outPath := m.OutputPath(st.ID)
	if _, err := os.Stat(outPath); err != nil {
		t.Fatal(err)
	}
	m.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if _, err := m.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("expired job status: %v", err)
	}
	if _, err := os.Stat(outPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("expired output still on disk: %v", err)
	}
}

func TestSnubaBaselineDeterministic(t *testing.T) {
	eng := testEngine(t)
	req := SnubaRequest{SeedSize: 200, Seed: 3, MinPrecision: 0.5, CompareRules: []string{"best way to get to"}}
	a, err := RunSnuba(eng, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSnuba(eng, req)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("snuba baseline not deterministic:\n%s\n%s", aj, bj)
	}
	if len(a.Rules) == 0 {
		t.Fatal("snuba mined no rules")
	}
	for _, r := range a.Rules {
		if strings.TrimSpace(r.Rule) == "" {
			t.Fatalf("empty rule display form in %+v", r)
		}
	}
	if a.Compare == nil || a.Compare.Rules != 1 {
		t.Errorf("compare committee missing: %+v", a.Compare)
	}
	if a.Snuba.Covered == 0 {
		t.Errorf("snuba committee covered nothing: %+v", a.Snuba)
	}
	// The mined rule strings must round-trip through a labeling job.
	rules := make([]string, 0, len(a.Rules))
	for _, r := range a.Rules {
		rules = append(rules, r.Rule)
	}
	if _, err := Run(context.Background(), eng, Spec{Rules: rules}, io.Discard, nil); err != nil {
		t.Errorf("mined rules do not run as a labeling spec: %v", err)
	}
}
