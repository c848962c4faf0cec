package replicate

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/journal"
	"repro/internal/tokensregex"
	"repro/internal/workspace"
)

const testDataset = "directions"

var (
	recordOnce    sync.Once
	recordEngines map[string]*core.Engine
	recordEvents  []journal.Event
	recordErr     error
)

// recordedWorkload builds a small engine and the journal of a live workspace
// workload on it: two workspaces, two annotators each, a dozen suggest and
// answer steps. Engines are read-only, so every receiver in a test shares
// this one, as a follower shard shares its engine with its live manager.
func recordedWorkload(t *testing.T) (map[string]*core.Engine, []journal.Event) {
	t.Helper()
	recordOnce.Do(func() {
		recordEngines, recordEvents, recordErr = recordWorkload(t.TempDir())
	})
	if recordErr != nil {
		t.Fatal(recordErr)
	}
	return recordEngines, recordEvents
}

func recordWorkload(dir string) (map[string]*core.Engine, []journal.Event, error) {
	c, err := datagen.ByName(testDataset, 0.05, 7)
	if err != nil {
		return nil, nil, err
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
		return nil, nil, err
	}
	engines := map[string]*core.Engine{testDataset: eng}
	path := filepath.Join(dir, "live.jsonl")
	jw, _, err := journal.Open(path, journal.Options{SyncInterval: -1})
	if err != nil {
		return nil, nil, err
	}
	m := workspace.NewManager(engines, jw, workspace.ManagerConfig{})
	for w := 0; w < 2; w++ {
		ws, err := m.Create(testDataset, workspace.Options{SeedRules: []string{"best way to get to"}, Budget: 20, Seed: int64(w + 1)})
		if err != nil {
			return nil, nil, err
		}
		for _, name := range []string{"alice", "bob"} {
			if err := m.Attach(ws.ID(), name); err != nil {
				return nil, nil, err
			}
		}
		for step := 0; step < 6; step++ {
			name := []string{"alice", "bob"}[step%2]
			sug, ok, err := m.Suggest(ws.ID(), name)
			if err != nil || !ok {
				break
			}
			if _, err := m.Answer(ws.ID(), name, sug.Key, step%3 == 0); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := jw.Close(); err != nil {
		return nil, nil, err
	}
	events, err := journal.ReadAll(path)
	return engines, events, err
}

// batches cuts events into n contiguous batches, the first a Reset.
func batches(events []journal.Event, n int) []Batch {
	var out []Batch
	var from uint64
	size := (len(events) + n - 1) / n
	for i := 0; i < len(events); i += size {
		end := min(i+size, len(events))
		b := Batch{Epoch: 1, Gen: 1, Reset: i == 0, From: from, Upto: events[end-1].Seq, Events: events[i:end]}
		out = append(out, b)
		from = b.Upto
	}
	return out
}

// replayed is what a promotion must hand over: the fresh replay of events.
func replayed(t *testing.T, engines map[string]*core.Engine, events []journal.Event) []byte {
	t.Helper()
	m := workspace.NewManager(engines, nil, standbyConfig())
	m.Recover(events)
	var snaps []*workspace.Snapshot
	for _, id := range m.IDsByDataset(testDataset) {
		ws, _ := m.Peek(id)
		snaps = append(snaps, ws.Snapshot())
	}
	return snapshotJSON(t, m.MaterializedSpecs(testDataset), snaps)
}

func snapshotJSON(t *testing.T, specs []string, snaps []*workspace.Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Specs []string
		Snaps []*workspace.Snapshot
	}{specs, snaps})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// releaseHeld releases the hold of the current holdApplier, if any. The
// cleanup of newTestReceiver calls it before closing, which waits for the
// applier, so a failing test cannot leave its receiver stuck.
var releaseHeld = func() {}

// holdApplier makes every applier block before its next batch until
// release is called, and counts the batches they started. Call it before
// creating the receiver.
func holdApplier(t *testing.T) (release func(), started *atomic.Int64) {
	t.Helper()
	gate := make(chan struct{})
	started = new(atomic.Int64)
	beforeApply = func(string) {
		started.Add(1)
		<-gate
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	releaseHeld = release
	t.Cleanup(func() {
		release()
		beforeApply = nil
		releaseHeld = func() {}
	})
	return release, started
}

func newTestReceiver(t *testing.T, engines map[string]*core.Engine, dir string) *Receiver {
	t.Helper()
	r := NewReceiver(engines, func(ds string) string { return filepath.Join(dir, "standby."+ds) }, t.Logf)
	t.Cleanup(func() {
		releaseHeld()
		r.Close()
	})
	return r
}

// within fails the test if f does not return within d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

func applyAll(t *testing.T, r *Receiver, bs []Batch) {
	t.Helper()
	for i, b := range bs {
		var ack BatchAck
		var err error
		within(t, 10*time.Second, "Apply", func() { ack, err = r.Apply(testDataset, b, 1) })
		if err != nil || ack.Upto != b.Upto {
			t.Fatalf("batch %d: ack %+v, err %v; want upto %d", i, ack, err, b.Upto)
		}
	}
}

// TestReceiverAcksBeforeApplying: a follower whose applier is held still
// acks every batch, and once released, promotion hands over exactly the
// replay of every acked event.
func TestReceiverAcksBeforeApplying(t *testing.T) {
	engines, events := recordedWorkload(t)
	release, started := holdApplier(t)
	r := newTestReceiver(t, engines, t.TempDir())

	bs := batches(events, 8)
	applyAll(t, r, bs)
	if started.Load() > 1 {
		t.Fatalf("held applier started %d batches, want at most 1", started.Load())
	}
	var upto uint64
	within(t, time.Second, "StatusFor", func() { _, upto, _, _ = r.StatusFor(testDataset) })
	if want := events[len(events)-1].Seq; upto != want {
		t.Fatalf("standby upto %d with the applier held, want %d", upto, want)
	}

	release()
	var specs []string
	var snaps []*workspace.Snapshot
	var cleanup func(bool)
	var ok bool
	within(t, 30*time.Second, "TakeStandby", func() { specs, snaps, _, cleanup, ok = r.TakeStandby(testDataset) })
	if !ok {
		t.Fatal("no standby to take")
	}
	defer cleanup(true)
	if int(started.Load()) != len(bs) {
		t.Fatalf("applier started %d batches before promotion, want %d", started.Load(), len(bs))
	}
	if len(snaps) != 2 {
		t.Fatalf("promotion took %d workspaces, want 2", len(snaps))
	}
	if got, want := snapshotJSON(t, specs, snaps), replayed(t, engines, events); !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted standby differs from the replay of every acked event:\n got %s\nwant %s", got, want)
	}
}

// TestReceiverBackpressure: a full apply queue blocks Apply, not StatusFor,
// and releasing the applier unblocks Apply.
func TestReceiverBackpressure(t *testing.T) {
	engines, _ := recordedWorkload(t)
	release, started := holdApplier(t)
	r := newTestReceiver(t, engines, t.TempDir())

	// A reset batch the applier picks up and holds on, then applyQueueLen
	// single-event batches of a type the Replayer ignores fill the queue.
	reset := Batch{Epoch: 1, Gen: 1, Reset: true, Upto: 1, Events: []journal.Event{{Seq: 1, Type: "noop", WS: "x"}}}
	applyAll(t, r, []Batch{reset})
	waitHeld(t, started)
	var fill []Batch
	for seq := uint64(2); seq <= applyQueueLen+2; seq++ {
		fill = append(fill, Batch{Epoch: 1, Gen: 1, From: seq - 1, Upto: seq, Events: []journal.Event{{Seq: seq, Type: "noop", WS: "x"}}})
	}
	applyAll(t, r, fill[:applyQueueLen])

	blocked := make(chan error, 1)
	go func() {
		_, err := r.Apply(testDataset, fill[applyQueueLen], 1)
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("Apply on a full queue returned (%v), want it to block", err)
	case <-time.After(50 * time.Millisecond):
	}
	var upto uint64
	within(t, time.Second, "StatusFor on a full queue", func() { _, upto, _, _ = r.StatusFor(testDataset) })
	if upto != applyQueueLen+1 {
		t.Fatalf("standby upto %d, want %d", upto, applyQueueLen+1)
	}
	release()
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("unblocked Apply: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Apply stayed blocked after the applier was released")
	}
}

// TestReceiverRecoversAckedUnapplied: a follower that stops with acked but
// unapplied batches recovers them from its standby journal.
func TestReceiverRecoversAckedUnapplied(t *testing.T) {
	engines, events := recordedWorkload(t)
	dir := t.TempDir()
	release, started := holdApplier(t)
	r := newTestReceiver(t, engines, dir)
	applyAll(t, r, batches(events, 6))
	waitHeld(t, started)
	st := r.standby[testDataset]

	// Close while the applier is held mid-batch with the rest queued: Close
	// waits for the applier, which abandons the queue once released.
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	waitClosed(t, st)
	release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close with a non-empty apply queue hung")
	}
	select {
	case <-st.done:
	default:
		t.Fatal("Close returned with the applier still running")
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("applier started %d batches, want 1: the rest were acked but never applied", n)
	}

	beforeApply = nil
	r2 := newTestReceiver(t, engines, dir)
	specs, snaps, _, cleanup, ok := r2.TakeStandby(testDataset)
	if !ok {
		t.Fatal("restarted receiver recovered no standby")
	}
	defer cleanup(true)
	if got, want := snapshotJSON(t, specs, snaps), replayed(t, engines, events); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered standby differs from the replay of every acked event:\n got %s\nwant %s", got, want)
	}
}

// TestReceiverDropWithQueuedBatches: Drop with a non-empty queue neither
// hangs nor leaves the applier running, and does not apply the queue.
func TestReceiverDropWithQueuedBatches(t *testing.T) {
	engines, events := recordedWorkload(t)
	release, started := holdApplier(t)
	r := newTestReceiver(t, engines, t.TempDir())
	applyAll(t, r, batches(events, 6))
	waitHeld(t, started)
	st := r.standby[testDataset]

	dropped := make(chan struct{})
	go func() {
		r.Drop(testDataset)
		close(dropped)
	}()
	waitClosed(t, st)
	release()
	select {
	case <-dropped:
	case <-time.After(10 * time.Second):
		t.Fatal("Drop with a non-empty apply queue hung")
	}
	select {
	case <-st.done:
	default:
		t.Fatal("Drop returned with the applier still running")
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("applier started %d batches after Drop, want 1", n)
	}
	if _, _, _, ok := r.StatusFor(testDataset); ok {
		t.Fatal("dropped standby still reported")
	}
}

// waitHeld waits until the held applier has taken its first batch.
func waitHeld(t *testing.T, started *atomic.Int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for started.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("applier never picked up the first batch")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitClosed waits until st refuses further batches.
func waitClosed(t *testing.T, st *standbyState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st.mu.Lock()
		closed := st.closed
		st.mu.Unlock()
		if closed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never closed")
		}
		time.Sleep(time.Millisecond)
	}
}
