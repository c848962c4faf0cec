package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/ingest"
	"repro/internal/tokensregex"
	"repro/pkg/darwin"
)

// equivalenceConfig disables the two boot-time artifacts that deliberately
// do not grow under ingest: the coverage prune (MinRuleCoverage 1 makes
// Prune a no-op) and the embedding model (Dim 0 keeps features bag-of-words
// only, identical however the corpus arrived). With both off, ingesting N
// batches must be indistinguishable from booting with the full corpus.
func equivalenceConfig() core.Config {
	return core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    6,
		NumCandidates:   400,
		MinRuleCoverage: 1,
		Budget:          30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		Seed:            1,
	}
}

// TestIngestEquivalentToRebuild is the acceptance bar of the ingest
// subsystem: boot an engine with 60% of a corpus and POST the remaining 40%
// through /v2 in three batches, boot a twin with the full corpus up front,
// then drive both through the identical labeler session. Every suggestion,
// the final report bytes, and the export bytes must match exactly.
func TestIngestEquivalentToRebuild(t *testing.T) {
	full, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Len() * 60 / 100

	// The full-boot twin gets its own corpus object (engines preprocess and
	// mutate sentences in place).
	fullTwin, err := datagen.ByName("directions", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	fullEng, err := core.New(fullTwin, equivalenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	prefix := corpus.New(full.Name, full.Task)
	for _, s := range full.Sentences[:cut] {
		prefix.Add(s.Text, s.Gold)
	}
	grownEng, err := core.New(prefix, equivalenceConfig())
	if err != nil {
		t.Fatal(err)
	}

	newSrv := func(eng *core.Engine) (*Server, *httptest.Server) {
		srv, err := New(Config{}, &Dataset{Name: "directions", Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return srv, ts
	}
	_, fullTS := newSrv(fullEng)
	_, grownTS := newSrv(grownEng)
	ctx := context.Background()

	// Ship the remaining 40% in three batches over HTTP.
	grownClient := darwin.NewClient(grownTS.URL, "")
	rest := full.Sentences[cut:]
	for len(rest) > 0 {
		n := (len(full.Sentences)-cut)/3 + 1
		if n > len(rest) {
			n = len(rest)
		}
		batch := make([]ingest.Sentence, 0, n)
		for _, s := range rest[:n] {
			batch = append(batch, ingest.Sentence{Text: s.Text, Label: int(s.Gold)})
		}
		if _, err := grownClient.IngestSentences(ctx, "directions", batch); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if got := grownEng.CorpusLen(); got != full.Len() {
		t.Fatalf("grown corpus has %d sentences, want %d", got, full.Len())
	}

	// Drive the identical session on both servers.
	opts := darwin.CreateOptions{
		Dataset:   "directions",
		SeedRules: []string{"best way to get to"},
		Budget:    15,
		Seed:      3,
	}
	fullLab, err := darwin.NewClient(fullTS.URL, "").NewLabeler(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	grownLab, err := grownClient.NewLabeler(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 12; q++ {
		fs, err := fullLab.Suggest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := grownLab.Suggest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fs, gs) {
			t.Fatalf("question %d: suggestions diverge:\nfull:  %+v\ngrown: %+v", q, fs, gs)
		}
		accept := q%3 == 0
		if err := fullLab.Answer(ctx, darwin.Answer{Key: fs.Key, Accept: accept}); err != nil {
			t.Fatal(err)
		}
		if err := grownLab.Answer(ctx, darwin.Answer{Key: gs.Key, Accept: accept}); err != nil {
			t.Fatal(err)
		}
	}

	// Byte-identical report and export across boot-vs-ingest.
	get := func(ts *httptest.Server, path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}
	fullReport := get(fullTS, "/v2/labelers/"+fullLab.ID()+"/report")
	grownReport := get(grownTS, "/v2/labelers/"+grownLab.ID()+"/report")
	if !bytes.Equal(fullReport, grownReport) {
		t.Errorf("reports differ:\nfull:  %s\ngrown: %s", fullReport, grownReport)
	}
	fullExport := get(fullTS, "/v2/labelers/"+fullLab.ID()+"/export")
	grownExport := get(grownTS, "/v2/labelers/"+grownLab.ID()+"/export")
	if !bytes.Equal(fullExport, grownExport) {
		t.Errorf("exports differ (%d vs %d bytes)", len(fullExport), len(grownExport))
	}
}
