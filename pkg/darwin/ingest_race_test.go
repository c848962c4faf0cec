package darwin_test

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/workspace"
	"repro/pkg/darwin"
)

// TestLabelersReadCorpusDuringIngest runs session and workspace labelers'
// suggest, answer and export while the engine ingests sentences. Under
// -race it pins that labelers read the corpus through the published view,
// never the slice Ingest appends to.
func TestLabelersReadCorpusDuringIngest(t *testing.T) {
	eng := newTestEngine(t)
	ctx := context.Background()
	sess, err := darwin.NewSession(eng, testDataset, darwin.Options{SeedRules: []string{testSeedRule}, Budget: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mgr := workspace.NewManager(map[string]*core.Engine{testDataset: eng}, nil, workspace.ManagerConfig{})
	ws, err := mgr.Create(testDataset, workspace.Options{SeedRules: []string{testSeedRule}, Budget: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := darwin.AttachWorkspace(mgr, ws.ID(), "alice")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			batch := make([]ingest.Sentence, 8)
			for j := range batch {
				batch[j] = ingest.Sentence{Text: fmt.Sprintf("what is the best way to get to pier %d from stop %d", i, j), Label: 1}
			}
			if _, _, err := eng.Ingest(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, lab := range []darwin.Labeler{sess, wl} {
		for q := 0; q < 6; q++ {
			sug, err := lab.Suggest(ctx)
			if err != nil {
				break
			}
			if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: q%2 == 0}); err != nil {
				t.Fatal(err)
			}
			if err := lab.Export(ctx, io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
}
