package journal

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// drain pulls events from the follower until want have arrived or the
// deadline passes.
func drain(t *testing.T, fl *Follower, want int) []Event {
	t.Helper()
	var got []Event
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < want {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		evs, reset, err := fl.Next(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Next after %d/%d events: %v", len(got), want, err)
		}
		if reset {
			got = got[:0]
			continue
		}
		got = append(got, evs...)
	}
	return got
}

func TestFollowerTailsLiveAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	fl := w.Follow()
	defer fl.Close()

	// Appends before the first Next are visible from offset 0.
	for i := 0; i < 3; i++ {
		if _, err := w.Append("create", "ws1", "", map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(t, fl, 3)
	if got[0].Seq != 1 || got[2].Seq != 3 {
		t.Fatalf("seqs %d..%d, want 1..3", got[0].Seq, got[2].Seq)
	}

	// Appends racing a blocked Next wake it.
	done := make(chan []Event, 1)
	go func() {
		done <- drain(t, fl, 2)
	}()
	time.Sleep(20 * time.Millisecond)
	w.Append("answer", "ws1", "", nil)
	w.Append("answer", "ws1", "", nil)
	select {
	case evs := <-done:
		if evs[0].Seq != 4 || evs[1].Seq != 5 {
			t.Fatalf("tail seqs %d,%d want 4,5", evs[0].Seq, evs[1].Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never woke on append")
	}

	// A deadline with no traffic surfaces as ctx.Err (the heartbeat path).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := fl.Next(ctx); err != context.DeadlineExceeded {
		t.Fatalf("idle Next: %v, want DeadlineExceeded", err)
	}
}

func TestFollowerResetsOnRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 4; i++ {
		w.Append("create", "ws", "", nil)
	}
	fl := w.Follow()
	defer fl.Close()
	if evs := drain(t, fl, 4); evs[3].Seq != 4 {
		t.Fatalf("pre-compact tail seq %d, want 4", evs[3].Seq)
	}

	// Compact down to one snapshot event: the follower must signal reset,
	// then replay the rewritten file from scratch.
	if err := w.Rewrite([]Event{{Type: "snapshot", WS: "ws"}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	evs, reset, err := fl.Next(ctx)
	if err != nil || !reset || evs != nil {
		t.Fatalf("post-compact Next = (%v, reset=%v, %v), want reset", evs, reset, err)
	}
	after := drain(t, fl, 1)
	if after[0].Seq != 1 || after[0].Type != "snapshot" {
		t.Fatalf("post-reset event %+v, want snapshot seq 1", after[0])
	}
	if g := w.Generation(); g != 2 {
		t.Fatalf("generation %d, want 2", g)
	}
}

// TestOpenRepairsTornTail pins the crash-repair contract: a torn final line
// is not just skipped on read — Open truncates it away so the next append
// cannot merge with the torn bytes and corrupt line framing for every later
// recovery.
func TestOpenRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	w.Append("create", "ws1", "", nil)
	w.Append("answer", "ws1", "", map[string]bool{"accept": true})
	w.Close()

	// Simulate a crash mid-append: half a JSON line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"type":"ans`)
	f.Close()

	w2, events, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("recovered %d events, want 2", len(events))
	}
	// The append that used to merge into the torn bytes.
	if _, err := w2.Append("answer", "ws1", "", nil); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	// Every subsequent full read must see clean framing.
	events, err = ReadAll(path)
	if err != nil {
		t.Fatalf("ReadAll after repair+append: %v", err)
	}
	if len(events) != 3 || events[2].Seq != 3 {
		t.Fatalf("post-repair log = %d events (last seq %d), want 3 ending at seq 3", len(events), events[len(events)-1].Seq)
	}
}

// TestOpenRepairsMissingNewline covers the rarer tear: the final line is
// complete, valid JSON but lost its terminating newline.
func TestOpenRepairsMissingNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte(`{"seq":1,"type":"create","ws":"a"}`+"\n"+`{"seq":2,"type":"answer","ws":"a"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, events, err := Open(path, Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("recovered %d events, want 2", len(events))
	}
	if _, err := w.Append("evict", "a", "", nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	events, err = ReadAll(path)
	if err != nil {
		t.Fatalf("ReadAll after newline repair: %v", err)
	}
	if len(events) != 3 || events[2].Type != "evict" {
		t.Fatalf("post-repair log = %+v, want 3 events ending in evict", events)
	}
}

// appendAndNext appends one small event and reads it back through fl.
func appendAndNext(tb testing.TB, w *Writer, fl *Follower, i int) {
	tb.Helper()
	if _, err := w.Append("answer", "ws1", "", map[string]int{"i": i}); err != nil {
		tb.Fatal(err)
	}
	evs, reset, err := fl.Next(context.Background())
	if err != nil || reset || len(evs) != 1 {
		tb.Fatalf("Next = (%d events, reset=%v, %v), want 1 event", len(evs), reset, err)
	}
}

// TestFollowerNextAllocatesPerAppend bounds what tailing one small append
// allocates: the follower keeps its read buffer for life, so a Next costs
// the parsed event, not a fresh buffer.
func TestFollowerNextAllocatesPerAppend(t *testing.T) {
	w, _, err := Open(filepath.Join(t.TempDir(), "j.jsonl"), Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fl := w.Follow()
	defer fl.Close()
	appendAndNext(t, w, fl, 0) // opens the file and allocates the buffer

	const rounds = 50
	var before, after runtime.MemStats
	var total uint64
	for i := 1; i <= rounds; i++ {
		if _, err := w.Append("answer", "ws1", "", map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		evs, _, err := fl.Next(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil || len(evs) != 1 || evs[0].Seq != uint64(i+1) {
			t.Fatalf("round %d: Next = (%v, %v), want seq %d", i, evs, err, i+1)
		}
		total += after.TotalAlloc - before.TotalAlloc
	}
	const bound = 4 << 10 // the old per-read buffer alone was 256 KiB
	if perNext := total / rounds; perNext > bound {
		t.Fatalf("Next of a one-event append allocated %d bytes, want <= %d", perNext, bound)
	}
}

// TestFollowerEventsOutliveBufferReuse pins that events handed out by Next
// own their bytes: the follower's buffer is overwritten by the next read.
func TestFollowerEventsOutliveBufferReuse(t *testing.T) {
	w, _, err := Open(filepath.Join(t.TempDir(), "j.jsonl"), Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fl := w.Follow()
	defer fl.Close()
	w.Append("create", "first", "", map[string]string{"v": "aaaa"})
	first := drain(t, fl, 1)
	w.Append("create", "other", "", map[string]string{"v": "bbbb"})
	drain(t, fl, 1)
	if first[0].WS != "first" || string(first[0].Data) != `{"v":"aaaa"}` {
		t.Fatalf("first event changed after the next read: %+v (data %s)", first[0], first[0].Data)
	}
}

// TestFollowerLineLongerThanBuffer covers the one case the buffer grows: a
// single event whose line exceeds it, written alongside small ones.
func TestFollowerLineLongerThanBuffer(t *testing.T) {
	w, _, err := Open(filepath.Join(t.TempDir(), "j.jsonl"), Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fl := w.Follow()
	defer fl.Close()
	big := strings.Repeat("x", 3*followBufSize)
	w.Append("create", "a", "", nil)
	w.Append("snapshot", "a", "", map[string]string{"v": big})
	w.Append("answer", "a", "", nil)
	got := drain(t, fl, 3)
	var d struct{ V string }
	if err := json.Unmarshal(got[1].Data, &d); err != nil || d.V != big || got[2].Seq != 3 {
		t.Fatalf("long line read back wrong: err %v, len %d, last seq %d", err, len(d.V), got[2].Seq)
	}
}

// BenchmarkFollowerNext is the replication tail's per-batch cost: append one
// small event and read it back.
func BenchmarkFollowerNext(b *testing.B) {
	w, _, err := Open(filepath.Join(b.TempDir(), "j.jsonl"), Options{SyncInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	fl := w.Follow()
	defer fl.Close()
	appendAndNext(b, w, fl, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendAndNext(b, w, fl, i)
	}
}
