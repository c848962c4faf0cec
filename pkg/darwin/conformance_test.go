package darwin_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tokensregex"
	"repro/internal/workspace"
	"repro/pkg/darwin"
)

// Compile-time checks: every implementation satisfies the full API.
var (
	_ darwin.Labeler       = (*darwin.SessionLabeler)(nil)
	_ darwin.Labeler       = (*darwin.WorkspaceLabeler)(nil)
	_ darwin.Labeler       = (*darwin.RemoteLabeler)(nil)
	_ darwin.BatchAnswerer = (*darwin.SessionLabeler)(nil)
	_ darwin.BatchAnswerer = (*darwin.WorkspaceLabeler)(nil)
	_ darwin.BatchAnswerer = (*darwin.RemoteLabeler)(nil)
	_ darwin.Statuser      = (*darwin.SessionLabeler)(nil)
	_ darwin.Statuser      = (*darwin.WorkspaceLabeler)(nil)
	_ darwin.Statuser      = (*darwin.RemoteLabeler)(nil)
)

const (
	testDataset  = "directions"
	testSeedRule = "best way to get to"
	testBudget   = 8
)

// newTestEngine builds a small deterministic engine over the synthetic
// directions corpus (the same configuration the core golden-replay test
// pins).
func newTestEngine(t testing.TB) *core.Engine {
	t.Helper()
	c, err := datagen.ByName(testDataset, 0.05, 7)
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
		Embedding:       embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{}, &server.Dataset{Name: testDataset, Engine: newTestEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// newRouterTestServer serves the /v2 surface over a sharding router in
// front of two darwind-equivalent shards, so the conformance suite and the
// golden replay drive client → router → shard → core.
func newRouterTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	shardA, shardB := newTestServer(t), newTestServer(t)
	rt, err := shard.New([]shard.Spec{
		{Name: "alpha", URL: shardA.URL},
		{Name: "beta", URL: shardB.URL},
	}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.V2Handler(rt))
	t.Cleanup(ts.Close)
	return ts
}

// factory builds a fresh labeler with the standard test seeds and budget.
type factory func(t *testing.T) darwin.Labeler

// factories enumerates every implementation of the Labeler interface; the
// whole conformance suite runs against each.
func factories() map[string]factory {
	return map[string]factory{
		"session": func(t *testing.T) darwin.Labeler {
			lab, err := darwin.NewSession(newTestEngine(t), testDataset, darwin.Options{
				SeedRules: []string{testSeedRule},
				Budget:    testBudget,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			return lab
		},
		"workspace": func(t *testing.T) darwin.Labeler {
			eng := newTestEngine(t)
			mgr := workspace.NewManager(map[string]*core.Engine{testDataset: eng}, nil, workspace.ManagerConfig{})
			ws, err := mgr.Create(testDataset, workspace.Options{
				SeedRules: []string{testSeedRule},
				Budget:    testBudget,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			lab, err := darwin.AttachWorkspace(mgr, ws.ID(), "alice")
			if err != nil {
				t.Fatal(err)
			}
			return lab
		},
		"http-session": func(t *testing.T) darwin.Labeler {
			ts := newTestServer(t)
			lab, err := darwin.NewClient(ts.URL, "").NewLabeler(context.Background(), darwin.CreateOptions{
				Dataset:   testDataset,
				SeedRules: []string{testSeedRule},
				Budget:    testBudget,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			return lab
		},
		"http-workspace": func(t *testing.T) darwin.Labeler {
			ts := newTestServer(t)
			lab, err := darwin.NewClient(ts.URL, "").NewLabeler(context.Background(), darwin.CreateOptions{
				Dataset:   testDataset,
				Mode:      darwin.ModeWorkspace,
				Annotator: "alice",
				SeedRules: []string{testSeedRule},
				Budget:    testBudget,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			return lab
		},
		"router-session": func(t *testing.T) darwin.Labeler {
			ts := newRouterTestServer(t)
			lab, err := darwin.NewClient(ts.URL, "").NewLabeler(context.Background(), darwin.CreateOptions{
				Dataset:   testDataset,
				SeedRules: []string{testSeedRule},
				Budget:    testBudget,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			return lab
		},
		"router-workspace": func(t *testing.T) darwin.Labeler {
			ts := newRouterTestServer(t)
			lab, err := darwin.NewClient(ts.URL, "").NewLabeler(context.Background(), darwin.CreateOptions{
				Dataset:   testDataset,
				Mode:      darwin.ModeWorkspace,
				Annotator: "alice",
				SeedRules: []string{testSeedRule},
				Budget:    testBudget,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			return lab
		},
	}
}

// TestLabelerConformance runs one shared behavioral suite against every
// implementation of the Labeler interface: the acceptance bar for "one API,
// three interchangeable transports".
func TestLabelerConformance(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			t.Run("SuggestAnswerLoop", func(t *testing.T) { testSuggestAnswerLoop(t, mk(t)) })
			t.Run("AnswerConflicts", func(t *testing.T) { testAnswerConflicts(t, mk(t)) })
			t.Run("BatchAnswers", func(t *testing.T) { testBatchAnswers(t, mk(t)) })
			t.Run("BudgetExhaustion", func(t *testing.T) { testBudgetExhaustion(t, mk(t)) })
			t.Run("Export", func(t *testing.T) { testExport(t, mk(t)) })
			t.Run("Close", func(t *testing.T) { testClose(t, mk(t)) })
		})
	}
}

func testSuggestAnswerLoop(t *testing.T, lab darwin.Labeler) {
	ctx := context.Background()
	defer lab.Close(ctx)

	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatalf("first suggest: %v", err)
	}
	if sug.Key == "" || sug.Rule == "" {
		t.Fatalf("suggestion missing key/rule: %+v", sug)
	}
	if sug.Question != 1 {
		t.Errorf("first question number %d, want 1", sug.Question)
	}
	if sug.Coverage <= 0 {
		t.Errorf("coverage %d, want > 0", sug.Coverage)
	}
	if len(sug.Samples) == 0 {
		t.Error("suggestion carries no samples")
	}
	// Suggest is idempotent while the suggestion is pending.
	again, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatalf("repeated suggest: %v", err)
	}
	if again.Key != sug.Key {
		t.Errorf("repeated suggest changed the pending key: %q -> %q", sug.Key, again.Key)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: true}); err != nil {
		t.Fatalf("answer: %v", err)
	}

	rep, err := lab.Report(ctx)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.Dataset != testDataset {
		t.Errorf("report dataset %q, want %q", rep.Dataset, testDataset)
	}
	if rep.Questions != 1 {
		t.Errorf("report questions %d, want 1", rep.Questions)
	}
	if rep.Budget != testBudget {
		t.Errorf("report budget %d, want %d", rep.Budget, testBudget)
	}
	if len(rep.History) != 1 || rep.History[0].Key != sug.Key || !rep.History[0].Accepted {
		t.Errorf("history does not reflect the accepted answer: %+v", rep.History)
	}
	// The accepted rule (after the seed) carries its coverage IDs.
	if len(rep.Accepted) < 2 {
		t.Fatalf("accepted %d rules, want seed + 1", len(rep.Accepted))
	}
	last := rep.Accepted[len(rep.Accepted)-1]
	if len(last.CoverageIDs) == 0 {
		t.Error("accepted rule carries no coverage IDs")
	}
	if rep.Positives == 0 || len(rep.PositiveIDs) != rep.Positives {
		t.Errorf("positives %d with %d ids", rep.Positives, len(rep.PositiveIDs))
	}

	st, err := lab.(darwin.Statuser).Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Questions != 1 || st.Budget != testBudget || st.Dataset != testDataset {
		t.Errorf("status %+v does not match the run", st)
	}
}

func testAnswerConflicts(t *testing.T, lab darwin.Labeler) {
	ctx := context.Background()
	defer lab.Close(ctx)

	// A keyed answer with nothing pending is a conflict.
	if err := lab.Answer(ctx, darwin.Answer{Key: "tokensregex:nope", Accept: true}); !errors.Is(err, darwin.ErrConflict) {
		t.Errorf("keyed answer without pending: %v, want ErrConflict", err)
	}
	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A mismatched key is a conflict and leaves the pending suggestion.
	if err := lab.Answer(ctx, darwin.Answer{Key: "tokensregex:wrong key", Accept: true}); !errors.Is(err, darwin.ErrConflict) {
		t.Errorf("mismatched answer: %v, want ErrConflict", err)
	}
	again, err := lab.Suggest(ctx)
	if err != nil || again.Key != sug.Key {
		t.Errorf("pending suggestion lost after conflict: %q vs %q (err %v)", again.Key, sug.Key, err)
	}
	if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: false}); err != nil {
		t.Errorf("matching answer after conflicts: %v", err)
	}
}

func testBatchAnswers(t *testing.T, lab darwin.Labeler) {
	ctx := context.Background()
	defer lab.Close(ctx)

	// Blind batch: each verdict answers the then-pending suggestion.
	recs, err := darwin.AnswerBatch(ctx, lab, []darwin.Answer{
		{Accept: true}, {Accept: false}, {Accept: false},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("batch applied %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Question != i+1 {
			t.Errorf("record %d has question %d, want %d", i, rec.Question, i+1)
		}
	}
	if !recs[0].Accepted || recs[1].Accepted || recs[2].Accepted {
		t.Errorf("batch verdicts not applied in order: %+v", recs)
	}
	rep, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Questions != 3 {
		t.Errorf("questions after batch %d, want 3", rep.Questions)
	}
	// A keyed batch entry must match: suggest, then send a wrong key mid-batch.
	sug, err := lab.Suggest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recs, err = darwin.AnswerBatch(ctx, lab, []darwin.Answer{
		{Key: sug.Key, Accept: false}, {Key: "tokensregex:bogus", Accept: false},
	})
	if !errors.Is(err, darwin.ErrConflict) {
		t.Errorf("mid-batch mismatch: %v, want ErrConflict", err)
	}
	if len(recs) != 1 {
		t.Errorf("fail-fast batch applied %d records, want 1", len(recs))
	}
}

func testBudgetExhaustion(t *testing.T, lab darwin.Labeler) {
	ctx := context.Background()
	defer lab.Close(ctx)

	for i := 0; i < testBudget; i++ {
		sug, err := lab.Suggest(ctx)
		if err != nil {
			t.Fatalf("suggest %d: %v", i, err)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: i%2 == 0}); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	if _, err := lab.Suggest(ctx); !errors.Is(err, darwin.ErrBudgetExhausted) {
		t.Errorf("suggest past budget: %v, want ErrBudgetExhausted", err)
	}
	rep, err := lab.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done || rep.Questions != testBudget {
		t.Errorf("report after exhaustion: done=%v questions=%d", rep.Done, rep.Questions)
	}
}

func testExport(t *testing.T, lab darwin.Labeler) {
	ctx := context.Background()
	defer lab.Close(ctx)

	var buf bytes.Buffer
	if err := lab.Export(ctx, &buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("export is empty")
	}
	positives := 0
	for _, line := range lines {
		var rec struct {
			ID    int    `json:"id"`
			Text  string `json:"text"`
			Label int    `json:"label"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("export line %q: %v", line, err)
		}
		positives += rec.Label
	}
	if positives == 0 {
		t.Error("export labels no sentence positive despite the seed rule")
	}
}

func testClose(t *testing.T, lab darwin.Labeler) {
	ctx := context.Background()
	if _, err := lab.Suggest(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lab.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := lab.Suggest(ctx); !errors.Is(err, darwin.ErrNotFound) {
		t.Errorf("suggest after close: %v, want ErrNotFound", err)
	}
}
