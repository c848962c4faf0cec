package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openT(t *testing.T, path string) (*Writer, []Event) {
	t.Helper()
	w, events, err := Open(path, Options{SyncEvery: 1, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, events
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, events := openT(t, path)
	if len(events) != 0 {
		t.Fatalf("fresh journal has %d events", len(events))
	}
	type payload struct {
		N int `json:"n"`
	}
	for i := 1; i <= 5; i++ {
		ev, err := w.Append("answer", "ws1", "", payload{N: i})
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, ev.Seq)
		}
	}
	if _, err := w.Append("materialize", "", "directions", payload{N: 6}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("read %d events, want 6", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if got[0].WS != "ws1" || got[0].Type != "answer" {
		t.Fatalf("bad event: %+v", got[0])
	}
	if got[5].Dataset != "directions" {
		t.Fatalf("bad dataset event: %+v", got[5])
	}
	var p payload
	if err := json.Unmarshal(got[2].Data, &p); err != nil || p.N != 3 {
		t.Fatalf("payload round trip: %+v err=%v", p, err)
	}

	// Reopening continues the sequence after the existing events.
	w2, events2 := openT(t, path)
	if len(events2) != 6 {
		t.Fatalf("reopen read %d events", len(events2))
	}
	ev, err := w2.Append("evict", "ws1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 7 {
		t.Fatalf("continued seq = %d, want 7", ev.Seq)
	}
}

func TestReadAllMissingFile(t *testing.T) {
	events, err := ReadAll(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || events != nil {
		t.Fatalf("missing file: events=%v err=%v", events, err)
	}
}

// TestTornTailTolerated simulates a crash mid-append: a truncated final line
// must be dropped silently, and appending afterwards must keep the log
// readable.
func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := openT(t, path)
	w.Append("create", "ws1", "", nil)
	w.Append("answer", "ws1", "", nil)
	w.Close()
	// Tear the last line in half.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-15], 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != "create" {
		t.Fatalf("torn tail: got %+v", events)
	}
}

// TestMidFileCorruptionIsAnError distinguishes a torn tail (crash) from real
// corruption: a bad line followed by valid lines must fail loudly.
func TestMidFileCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"seq":1,"type":"create","ws":"a"}` + "\n" +
		`garbage not json` + "\n" +
		`{"seq":3,"type":"answer","ws":"a"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(path); err == nil {
		t.Fatal("mid-file corruption should be an error")
	}
}

func TestRewriteCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := openT(t, path)
	for i := 0; i < 10; i++ {
		if _, err := w.Append("answer", "ws1", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if w.SinceRewrite() != 10 {
		t.Fatalf("SinceRewrite = %d", w.SinceRewrite())
	}
	snap, _ := json.Marshal(map[string]int{"state": 42})
	if err := w.Rewrite([]Event{{Type: "snapshot", WS: "ws1", Data: snap}}); err != nil {
		t.Fatal(err)
	}
	if w.SinceRewrite() != 0 {
		t.Fatalf("SinceRewrite after compaction = %d", w.SinceRewrite())
	}
	// Appends continue after the rewritten events, into the new file.
	if _, err := w.Append("answer", "ws1", "", nil); err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != "snapshot" || events[1].Seq != 2 {
		t.Fatalf("compacted log: %+v", events)
	}
}

func TestCloseFlushesAndSticks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{SyncEvery: 1000, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	w.Append("create", "ws1", "", nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("answer", "ws1", "", nil); err == nil {
		t.Fatal("append after close should fail")
	}
	events, err := ReadAll(path)
	if err != nil || len(events) != 1 {
		t.Fatalf("after close: %d events, err=%v", len(events), err)
	}
}

// TestAppendBatchWritesAppendsLines appends the same records one by one to
// one journal and as one batch to another: the files must be byte-identical
// (a json.RawMessage payload, a nil one and a struct one included), the
// batch's events must carry consecutive sequence numbers, and the batch
// must cost one fsync decision however many SyncEvery windows it spans.
func TestAppendBatchWritesAppendsLines(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{
		{Type: "suggest", WS: "w1", Data: json.RawMessage(`{"annotator": "a", "key":"k<1>"}`)},
		{Type: "evict", WS: "w1", Data: json.RawMessage(nil)},
		{Type: "detach", WS: "w2"},
		{Type: "repl_mark", Dataset: "directions", Data: struct {
			Upto uint64 `json:"upto"`
		}{7}},
		{Type: "answer", WS: "w2", Data: map[string]any{"accept": true}},
	}
	one, two := filepath.Join(dir, "one.jsonl"), filepath.Join(dir, "batch.jsonl")
	w1, _ := openT(t, one)
	for _, r := range recs {
		if _, err := w1.Append(r.Type, r.WS, r.Dataset, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	w2, _, err := Open(two, Options{SyncEvery: 2, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.Append("create", "w0", "", nil); err != nil {
		t.Fatal(err)
	}
	syncs := fsyncTotal.Value()
	evs, err := w2.AppendBatch(recs...)
	if err != nil {
		t.Fatal(err)
	}
	if got := fsyncTotal.Value() - syncs; got != 1 {
		t.Errorf("batch of %d issued %d fsyncs, want 1", len(recs), got)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+2) {
			t.Fatalf("batch event %d has seq %d, want %d", i, ev.Seq, i+2)
		}
	}
	if _, err := w2.AppendBatch(Record{Type: "bad", Data: func() {}}); err == nil {
		t.Fatal("a batch with an unmarshalable record was accepted")
	}
	a, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(two)
	if err != nil {
		t.Fatal(err)
	}
	// The batch journal starts with one extra line; after it, every line
	// differs from Append's only in its seq.
	lines := func(data []byte) []string { return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") }
	la, lb := lines(a), lines(b)
	if len(lb) != len(la)+1 {
		t.Fatalf("batch journal has %d lines, want %d", len(lb), len(la)+1)
	}
	for i := range la {
		want := strings.Replace(la[i], fmt.Sprintf(`{"seq":%d,`, i+1), fmt.Sprintf(`{"seq":%d,`, i+2), 1)
		if lb[i+1] != want {
			t.Errorf("line %d:\nbatch  %s\nappend %s", i, lb[i+1], want)
		}
	}
}
