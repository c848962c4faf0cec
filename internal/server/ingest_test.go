package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/pkg/darwin"
)

func ingestBatch(n int, prefix string) []ingest.Sentence {
	batch := make([]ingest.Sentence, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, ingest.Sentence{
			Text:  prefix + " best way to get to station " + string(rune('a'+i%26)),
			Label: 1,
		})
	}
	return batch
}

// TestIngestE2E drives POST /v2/datasets/{ds}/sentences through the SDK:
// the corpus grows by exactly the acknowledged range, a second batch stacks
// on the first, and live discovery keeps working over the grown corpus.
func TestIngestE2E(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := darwin.NewClient(ts.URL, "")
	ctx := context.Background()
	boot := c.Len()

	res, err := client.IngestSentences(ctx, "directions", ingestBatch(40, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "directions" || res.From != boot || res.Ingested != 40 || res.CorpusLen != boot+40 {
		t.Fatalf("first batch acknowledged %+v, want from=%d ingested=40", res, boot)
	}
	res, err = client.IngestSentences(ctx, "directions", ingestBatch(25, "beta"))
	if err != nil {
		t.Fatal(err)
	}
	if res.From != boot+40 || res.CorpusLen != boot+65 {
		t.Fatalf("second batch acknowledged %+v, want from=%d", res, boot+40)
	}
	if got := srv.datasets["directions"].Engine.CorpusLen(); got != boot+65 {
		t.Fatalf("engine corpus is %d sentences, want %d", got, boot+65)
	}

	// A labeler created after the growth discovers over the full corpus: a
	// seed rule covering only ingested sentences must resolve coverage.
	lb, err := client.CreateLabeler(ctx, darwin.CreateOptions{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to station"},
		Budget:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lb.Positives < 65 {
		t.Errorf("seed rule over ingested sentences found %d positives, want >= 65", lb.Positives)
	}

	// Error taxonomy: unknown dataset 404, invalid batch 400, empty 400.
	if _, err := client.IngestSentences(ctx, "nope", ingestBatch(1, "x")); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("unknown dataset: %v", err)
	}
	if _, err := client.IngestSentences(ctx, "directions", []ingest.Sentence{{Text: "", Label: 0}}); !errors.Is(err, darwin.ErrInvalid) {
		t.Errorf("empty text: %v", err)
	}
	if _, err := client.IngestSentences(ctx, "directions", nil); !errors.Is(err, darwin.ErrInvalid) {
		t.Errorf("empty batch: %v", err)
	}
	// Malformed JSONL straight at the wire (the SDK cannot produce it).
	resp, err := http.Post(ts.URL+"/v2/datasets/directions/sentences", "application/x-ndjson",
		strings.NewReader("{not json}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSONL returned %d, want 400", resp.StatusCode)
	}

	// The ingest metric families must appear in a valid exposition now that
	// batches have landed — this is what fleet dashboards scrape.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := obs.CheckExposition(string(body)); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	for _, series := range []string{
		"darwin_ingest_batches_total",
		"darwin_ingest_sentences_total",
		"darwin_ingest_duration_seconds_bucket",
		`darwin_engine_corpus_sentences{dataset="directions"}`,
		`darwin_bitset_containers{kind="array"}`,
		`darwin_bitset_containers{kind="bitmap"}`,
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
	if strings.Contains(string(body), `darwin_bitset_containers{kind="dense"}`) {
		t.Error(`/metrics still exports darwin_bitset_containers{kind="dense"}`)
	}
}
