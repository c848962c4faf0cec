package replicate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/workspace"
)

// markType is the standby journal's progress record: appended after every
// received batch, it pins the (epoch, generation, upto) watermark the
// standby journal on disk is complete up to. A mark means "received", not
// "applied": recovery replays every event up to the last mark, acked but
// not yet applied ones included. Events after the last mark were never
// acked, so recovery discards them — the primary resends from the marked
// watermark (or resets). The workspace Replayer ignores the type, so a
// standby journal also replays cleanly through the ordinary recovery path.
const markType = "repl_mark"

// applyQueueLen bounds how many received batches a standby holds journaled
// but not yet applied. When the queue is full, Apply blocks until the
// applier catches up, so a slow follower pushes back on the primary through
// its sync-replication timeout instead of growing without bound.
const applyQueueLen = 64

// beforeApply, when set (tests only), runs in the applier before it applies
// each queued batch.
var beforeApply func(dataset string)

type markData struct {
	Epoch uint64 `json:"epoch"`
	Gen   uint64 `json:"gen"`
	Upto  uint64 `json:"upto"`
}

// Receiver is the follower side of replication: per replicated dataset it
// maintains a warm standby — a volatile workspace manager fed through the
// recovery Replayer — plus an on-disk standby journal so the warmth
// survives follower restarts (the double-failure case: the primary is dead
// AND the follower restarted before promotion).
//
// A batch is acked once it is appended to the standby journal. One applier
// goroutine per standby applies the acked events behind the ack, in journal
// order, so the primary's sync barrier never waits on the follower
// re-executing a suggest, refit or ingest.
//
// The standby manager shares the process's engines; index materializations
// it replays land in the shared, append-only index, which is exactly where
// the live manager would put them (and the live manager's materialize hook
// journals them). It is created without a journal of its own so it never
// journals workspace events — the Receiver owns standby persistence.
type Receiver struct {
	engines map[string]*core.Engine
	pathFor func(dataset string) string
	logf    func(format string, args ...any)

	mu      sync.Mutex
	standby map[string]*standbyState
}

// standbyState is one dataset's warm standby. The applier goroutine owns rep
// (and, through it, mgr) until done is closed; the fields after mu are
// guarded by it. Receiver.mu only guards the map.
type standbyState struct {
	dataset string
	mgr     *workspace.Manager
	rep     *workspace.Replayer
	jw      *journal.Writer
	done    chan struct{} // closed when the applier exits

	mu    sync.Mutex
	cond  *sync.Cond        // signals queue pushes and pops, and closing
	queue [][]journal.Event // journaled, acked, not yet applied; FIFO
	epoch uint64
	gen   uint64
	upto  uint64
	// workspaces is the standby's size after the last applied batch.
	workspaces int
	// closed refuses further batches; the applier exits once the queue is
	// empty.
	closed bool
}

// newStandbyState wraps a standby manager and journal and starts its applier.
func newStandbyState(dataset string, mgr *workspace.Manager, rep *workspace.Replayer, jw *journal.Writer) *standbyState {
	st := &standbyState{dataset: dataset, mgr: mgr, rep: rep, jw: jw, done: make(chan struct{})}
	st.cond = sync.NewCond(&st.mu)
	st.workspaces = rep.Stats().Workspaces
	go st.applyLoop()
	return st
}

// applyLoop applies queued batches through the Replayer, one at a time and
// in the order they were journaled, until the standby is closed and its
// queue is empty.
func (st *standbyState) applyLoop() {
	defer close(st.done)
	st.mu.Lock()
	for {
		for len(st.queue) == 0 && !st.closed {
			st.cond.Wait()
		}
		if len(st.queue) == 0 {
			st.mu.Unlock()
			return
		}
		events := st.queue[0]
		st.queue[0] = nil
		st.queue = st.queue[1:]
		st.mu.Unlock()

		if beforeApply != nil {
			beforeApply(st.dataset)
		}
		for _, ev := range events {
			st.rep.Apply(ev)
		}
		n := st.rep.Stats().Workspaces
		replApplied.With(st.dataset).Add(uint64(len(events)))
		replStandbyWS.With(st.dataset).Set(float64(n))

		st.mu.Lock()
		st.workspaces = n
		st.cond.Broadcast()
	}
}

// standbyConfig builds the manager config for a warm standby: nothing in it
// may expire or compact on its own — the standby's content is exactly what
// the primary shipped, no more, no less.
func standbyConfig() workspace.ManagerConfig {
	return workspace.ManagerConfig{
		TTL:           time.Duration(math.MaxInt64),
		MaxWorkspaces: math.MaxInt32,
		CompactEvery:  -1,
	}
}

// NewReceiver builds a receiver and recovers any standby journals left on
// disk by a previous process.
func NewReceiver(engines map[string]*core.Engine, pathFor func(dataset string) string, logf func(format string, args ...any)) *Receiver {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Receiver{
		engines: engines,
		pathFor: pathFor,
		logf:    logf,
		standby: make(map[string]*standbyState),
	}
	for ds := range engines {
		r.recoverStandby(ds)
	}
	return r
}

// recoverStandby rebuilds a dataset's warm standby from its on-disk standby
// journal, replaying the consistent prefix (up to the last mark) and
// truncating anything after it. A standby journal that cannot be recovered
// is reset to empty — the next stream session rebuilds it from scratch.
func (r *Receiver) recoverStandby(dataset string) {
	path := r.pathFor(dataset)
	if _, err := os.Stat(path); err != nil {
		return
	}
	jw, events, err := journal.Open(path, journal.Options{})
	if err != nil {
		r.logf("replicate: standby journal %s unreadable (%v); discarding", path, err)
		os.Remove(path)
		return
	}
	lastMark := -1
	var mk markData
	for i, ev := range events {
		if ev.Type == markType && decodeData(ev.Data, &mk) {
			lastMark = i
		}
	}
	if lastMark < 0 {
		jw.Rewrite(nil)
		jw.Close()
		return
	}
	kept := events[:lastMark+1]
	mgr := workspace.NewManager(r.engines, nil, standbyConfig())
	rep := mgr.NewReplayer()
	for _, ev := range kept {
		if ev.Type != markType {
			rep.Apply(ev)
		}
	}
	// Drop the unmarked tail from disk too, so a resumed stream cannot
	// duplicate those events in the file for the next recovery to double-
	// apply.
	if lastMark != len(events)-1 {
		if err := jw.Rewrite(kept); err != nil {
			r.logf("replicate: truncate standby journal %s: %v; discarding", path, err)
			rep.Close()
			jw.Close()
			os.Remove(path)
			return
		}
	}
	st := newStandbyState(dataset, mgr, rep, jw)
	st.epoch, st.gen, st.upto = mk.Epoch, mk.Gen, mk.Upto
	r.standby[dataset] = st
	replStandbyWS.With(dataset).Set(float64(st.workspaces))
	r.logf("replicate: recovered warm standby for %s: %d workspaces at epoch %d, upto %d",
		dataset, st.workspaces, mk.Epoch, mk.Upto)
}

// Apply receives one replicated batch: it appends the events and a mark to
// the standby journal, queues the events for the applier and acks. It
// blocks while the apply queue is full. minEpoch is the dataset's durable
// fence: batches below it are from a zombie ex-primary and rejected with
// ErrFenced. Non-reset batches must extend the standby contiguously (same
// epoch, same journal generation, From equal to the received watermark);
// anything else returns ErrResync and the sender restarts its session.
func (r *Receiver) Apply(dataset string, b Batch, minEpoch uint64) (BatchAck, error) {
	if b.Epoch < minEpoch {
		replFenced.Inc()
		return BatchAck{}, fmt.Errorf("%w: batch epoch %d is below fence %d for %q", ErrFenced, b.Epoch, minEpoch, dataset)
	}
	if _, ok := r.engines[dataset]; !ok {
		return BatchAck{}, fmt.Errorf("replicate: dataset %q is not served here", dataset)
	}
	r.mu.Lock()
	st := r.standby[dataset]
	var old *standbyState
	if b.Reset {
		old = st
		st = r.newStandbyLocked(dataset)
		if st == nil {
			r.mu.Unlock()
			return BatchAck{}, fmt.Errorf("replicate: cannot open standby journal for %q", dataset)
		}
		r.standby[dataset] = st
		replResyncs.Inc()
	} else if st == nil {
		r.mu.Unlock()
		return BatchAck{}, fmt.Errorf("%w: no standby for %q", ErrResync, dataset)
	}
	r.mu.Unlock()
	if old != nil {
		old.discard(false)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Wait for room before checking contiguity: everything from here on
	// runs under st.mu, so batches are journaled and queued in one order.
	for len(st.queue) >= applyQueueLen && !st.closed {
		st.cond.Wait()
	}
	if st.closed {
		return BatchAck{}, fmt.Errorf("%w: standby for %q was consumed", ErrResync, dataset)
	}
	if b.Reset {
		st.epoch, st.gen, st.upto = b.Epoch, b.Gen, b.From
	} else if b.Epoch != st.epoch || b.Gen != st.gen || b.From != st.upto {
		return BatchAck{}, fmt.Errorf("%w: batch (epoch %d gen %d from %d) does not extend standby (epoch %d gen %d upto %d)",
			ErrResync, b.Epoch, b.Gen, b.From, st.epoch, st.gen, st.upto)
	}
	// The events and their mark go to the standby journal in one write.
	recs := make([]journal.Record, 0, len(b.Events)+1)
	for _, ev := range b.Events {
		recs = append(recs, journal.Record{Type: ev.Type, WS: ev.WS, Dataset: ev.Dataset, Data: ev.Data})
	}
	recs = append(recs, journal.Record{Type: markType, Dataset: dataset, Data: markData{Epoch: st.epoch, Gen: st.gen, Upto: b.Upto}})
	if _, err := st.jw.AppendBatch(recs...); err != nil {
		return BatchAck{}, fmt.Errorf("replicate: standby journal append: %w", err)
	}
	st.upto = b.Upto
	if len(b.Events) > 0 {
		st.queue = append(st.queue, b.Events)
		st.cond.Broadcast()
	}
	return BatchAck{Upto: st.upto}, nil
}

// newStandbyLocked creates a fresh, empty standby. The old standby journal
// is removed, not read: a writer still appending to it writes to the
// unlinked file, never to the new one. Callers hold r.mu.
func (r *Receiver) newStandbyLocked(dataset string) *standbyState {
	path := r.pathFor(dataset)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		r.logf("replicate: remove standby journal %s: %v", path, err)
		return nil
	}
	jw, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		r.logf("replicate: open standby journal %s: %v", path, err)
		return nil
	}
	mgr := workspace.NewManager(r.engines, nil, standbyConfig())
	return newStandbyState(dataset, mgr, mgr.NewReplayer(), jw)
}

// close refuses further batches and waits for the applier to exit. With
// drop the queued batches are abandoned instead of applied: they are in the
// standby journal, which either recovery replays or the caller truncates.
func (st *standbyState) close(drop bool) {
	st.mu.Lock()
	st.closed = true
	if drop {
		st.queue = nil
	}
	st.cond.Broadcast()
	st.mu.Unlock()
	<-st.done
}

// discard stops the applier and closes the standby's replayer and journal.
// With truncate the on-disk standby journal is emptied first — used after
// promotion, when the state has moved into the live journal and a stale warm
// copy must not be recovered again.
func (st *standbyState) discard(truncate bool) {
	st.close(true)
	st.rep.Close()
	if truncate {
		st.jw.Rewrite(nil)
	}
	st.jw.Close()
}

// TakeStandby removes a dataset's standby from the receiver and returns its
// contents for promotion: the materialized rule specs and a snapshot of
// every standby workspace, plus a cleanup function the caller must invoke
// once the state is safely adopted (truncate=true) or the adoption failed
// (truncate=false, keeping the on-disk standby recoverable). It first
// applies every queued batch, so the snapshots are exactly the replay of
// every acked event.
func (r *Receiver) TakeStandby(dataset string) (specs []string, snaps []*workspace.Snapshot, upto uint64, cleanup func(truncate bool), ok bool) {
	r.mu.Lock()
	st := r.standby[dataset]
	delete(r.standby, dataset)
	r.mu.Unlock()
	if st == nil {
		return nil, nil, 0, nil, false
	}
	st.close(false)
	specs = st.mgr.MaterializedSpecs(dataset)
	for _, id := range st.mgr.IDsByDataset(dataset) {
		if ws, live := st.mgr.Peek(id); live {
			snaps = append(snaps, ws.Snapshot())
		}
	}
	st.mu.Lock()
	upto = st.upto
	st.mu.Unlock()
	replStandbyWS.With(dataset).Set(0)
	return specs, snaps, upto, st.discard, true
}

// Drop discards a dataset's standby (and its on-disk journal): the shard is
// no longer this dataset's follower.
func (r *Receiver) Drop(dataset string) {
	r.mu.Lock()
	st := r.standby[dataset]
	delete(r.standby, dataset)
	r.mu.Unlock()
	if st != nil {
		st.discard(true)
		replStandbyWS.With(dataset).Set(0)
	}
}

// StatusFor reports a dataset's standby watermark and size.
func (r *Receiver) StatusFor(dataset string) (epoch, upto uint64, workspaces int, ok bool) {
	r.mu.Lock()
	st := r.standby[dataset]
	r.mu.Unlock()
	if st == nil {
		return 0, 0, 0, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch, st.upto, st.workspaces, true
}

// Datasets lists the datasets with a live standby.
func (r *Receiver) Datasets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.standby))
	for ds := range r.standby {
		out = append(out, ds)
	}
	return out
}

// Close closes every standby without truncating the on-disk journals, so a
// restarted follower recovers them warm.
func (r *Receiver) Close() {
	r.mu.Lock()
	standbys := make([]*standbyState, 0, len(r.standby))
	for _, st := range r.standby {
		standbys = append(standbys, st)
	}
	r.standby = make(map[string]*standbyState)
	r.mu.Unlock()
	for _, st := range standbys {
		st.discard(false)
	}
}

func decodeData(raw json.RawMessage, v any) bool {
	return len(raw) > 0 && json.Unmarshal(raw, v) == nil
}
