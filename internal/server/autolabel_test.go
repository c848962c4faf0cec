package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/autolabel"
	"repro/internal/obs"
	"repro/pkg/darwin"
)

func jobTestSpec() autolabel.Spec {
	return autolabel.Spec{
		Rules:       []string{"best way to get to", "how do i get"},
		Aggregator:  autolabel.AggregatorGenerative,
		IncludeProb: true,
	}
}

// TestLabelingJobE2E drives a labeling job through the full HTTP surface with
// the SDK client and holds the output to the determinism contract: the bytes
// streamed over /v2 must equal a direct in-process autolabel.Run of the same
// spec.
func TestLabelingJobE2E(t *testing.T) {
	srv, _ := newTestServer(t, Config{JobsDir: t.TempDir(), JobWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	var direct bytes.Buffer
	directRes, err := autolabel.Run(context.Background(), srv.datasets["directions"].Engine, jobTestSpec(), &direct, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := client.CreateLabelingJob(ctx, "directions", jobTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Dataset != "directions" {
		t.Fatalf("create returned %+v", st)
	}
	// Output of a not-yet-done job is a 409 conflict (unless the worker
	// already finished it).
	if err := client.LabelingJobOutput(ctx, "directions", st.ID, 0, io.Discard); err != nil &&
		!errors.Is(err, darwin.ErrConflict) {
		t.Errorf("early output request: %v", err)
	}
	st, err = client.WaitLabelingJob(ctx, "directions", st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != autolabel.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Covered != directRes.Covered || st.Positives != directRes.Positives || st.OutputBytes != directRes.OutputBytes {
		t.Errorf("job status %+v does not match direct result %+v", st, directRes)
	}

	var got bytes.Buffer
	if err := client.LabelingJobOutput(ctx, "directions", st.ID, 0, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), direct.Bytes()) {
		t.Error("HTTP job output differs from direct Run output")
	}
	var tail bytes.Buffer
	if err := client.LabelingJobOutput(ctx, "directions", st.ID, 200, &tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail.Bytes(), direct.Bytes()[200:]) {
		t.Error("offset download differs from output suffix")
	}

	// Wrong dataset and unknown id are 404s.
	if _, err := client.LabelingJob(ctx, "musicians", st.ID); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("cross-dataset status: %v", err)
	}
	if _, err := client.LabelingJob(ctx, "directions", "jmissing"); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("unknown job: %v", err)
	}
	if _, err := client.CreateLabelingJob(ctx, "nope", jobTestSpec()); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("unknown dataset: %v", err)
	}
	if _, err := client.CreateLabelingJob(ctx, "directions", autolabel.Spec{Aggregator: "quorum"}); !errors.Is(err, darwin.ErrInvalid) {
		t.Errorf("invalid spec: %v", err)
	}
	for _, p := range []float64{5, -1} {
		bad := jobTestSpec()
		bad.DefaultProb = p
		if _, err := client.CreateLabelingJob(ctx, "directions", bad); !errors.Is(err, darwin.ErrInvalid) {
			t.Errorf("default_prob %v: %v, want ErrInvalid", p, err)
		}
	}

	// The job metrics must appear in a valid /metrics exposition now that
	// jobs have run.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.CheckExposition(string(body)); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	for _, series := range []string{
		"darwin_autolabel_jobs{",
		"darwin_autolabel_jobs_completed_total{",
		"darwin_autolabel_sentences_labeled_total",
		"darwin_autolabel_stage_duration_seconds",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
}

// TestLabelingJobLabelerReference submits a job referencing a live labeler
// and checks the spec is expanded to the labeler's accepted rules (seeds
// included) before it is journaled.
func TestLabelingJobLabelerReference(t *testing.T) {
	srv, _ := newTestServer(t, Config{JobsDir: t.TempDir()})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset: "directions", SeedRules: []string{"best way to get to"}, Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.CreateLabelingJob(ctx, "directions", autolabel.Spec{Labeler: lab.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Labeler != "" {
		t.Errorf("labeler reference survived resolution: %+v", st.Spec)
	}
	found := false
	for _, r := range st.Spec.Rules {
		if strings.Contains(r, "best way to get to") {
			found = true
		}
	}
	if !found {
		t.Errorf("resolved rules %v do not include the accepted seed", st.Spec.Rules)
	}
	if st, err = client.WaitLabelingJob(ctx, "directions", st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st.State != autolabel.StateDone || st.Covered == 0 {
		t.Fatalf("labeler-reference job: %+v", st)
	}

	// A labeler on another dataset must be rejected.
	if _, err := client.CreateLabelingJob(ctx, "directions", autolabel.Spec{Labeler: "lab-missing"}); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("missing labeler: %v", err)
	}
}

// TestLabelingJobsDisabled pins the degraded mode: without a jobs dir the job
// endpoints answer 503, while the synchronous Snuba baseline stays live.
func TestLabelingJobsDisabled(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := darwin.NewClient(ts.URL, "")
	ctx := t.Context()

	if _, err := client.CreateLabelingJob(ctx, "directions", jobTestSpec()); !errors.Is(err, darwin.ErrUnavailable) {
		t.Errorf("create with jobs disabled: %v", err)
	}
	if _, err := client.LabelingJob(ctx, "directions", "j1"); !errors.Is(err, darwin.ErrUnavailable) {
		t.Errorf("status with jobs disabled: %v", err)
	}

	res, err := client.SnubaBaseline(ctx, "directions", autolabel.SnubaRequest{
		SeedSize: 200, Seed: 3, MinPrecision: 0.5, CompareRules: []string{"best way to get to"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "directions" || len(res.Rules) == 0 || res.Snuba.Covered == 0 {
		t.Errorf("snuba baseline %+v", res)
	}
	if res.Compare == nil || res.Compare.Rules != 1 {
		t.Errorf("compare stats %+v", res.Compare)
	}
	if _, err := client.SnubaBaseline(ctx, "nope", autolabel.SnubaRequest{}); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("snuba unknown dataset: %v", err)
	}
}
