package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ingest"
)

// checkHeads holds the heads RecordHeads returns for view to the encoder:
// exactly one head per sentence of the view, nothing beyond it, each equal
// to corpus.AppendRecordHead of its sentence.
func checkHeads(t *testing.T, eng *Engine, view *corpus.Corpus) {
	t.Helper()
	buf, ends := eng.RecordHeads(view)
	n := view.Len()
	if len(ends) != n || (n > 0 && len(buf) != ends[n-1]) {
		t.Errorf("view of %d sentences got %d heads over %d bytes", n, len(ends), len(buf))
		return
	}
	start := 0
	for i, s := range view.Sentences {
		if want := corpus.AppendRecordHead(nil, s.ID, s.Text); !bytes.Equal(buf[start:ends[i]], want) {
			t.Errorf("head %d is %q, want %q", i, buf[start:ends[i]], want)
			return
		}
		start = ends[i]
	}
}

// TestRecordHeadsExtendOnIngest covers the arena's life: empty until the
// first call, built for the view it is asked for, extended when a later
// view is longer, and never handing a shorter, older view more than its own
// prefix.
func TestRecordHeadsExtendOnIngest(t *testing.T) {
	eng, err := New(testCorpus(t, 0.05), fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.heads.ends) != 0 {
		t.Fatalf("arena built at boot: %d heads", len(eng.heads.ends))
	}
	boot := eng.CorpusView()
	checkHeads(t, eng, boot)
	if _, _, err := eng.Ingest([]ingest.Sentence{
		{Text: `the best way to get to "the <pier>" & back`, Label: 1},
		{Text: "tab\tand a raw \x01 byte", Label: 0},
	}); err != nil {
		t.Fatal(err)
	}
	grown := eng.CorpusView()
	checkHeads(t, eng, grown)
	checkHeads(t, eng, boot)
	if got := len(eng.heads.ends); got != grown.Len() {
		t.Errorf("arena holds %d heads after the grown view, want %d", got, grown.Len())
	}
}

// TestRecordHeadsConcurrentWithIngest reads heads from two goroutines while
// a third ingests; under -race it is the proof that readers of an arena
// prefix never race its extension.
func TestRecordHeadsConcurrentWithIngest(t *testing.T) {
	eng, err := New(testCorpus(t, 0.05), fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				checkHeads(t, eng, eng.CorpusView())
			}
		}()
	}
	for b := 0; b < 10; b++ {
		batch := make([]ingest.Sentence, 20)
		for i := range batch {
			batch[i] = ingest.Sentence{Text: fmt.Sprintf("what is the best way to get to stop %d-%d", b, i), Label: i % 2}
		}
		if _, _, err := eng.Ingest(batch); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	checkHeads(t, eng, eng.CorpusView())
}
