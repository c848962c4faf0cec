// Package journal implements a tiny append-only JSONL write-ahead log. Every
// durable log in Darwin is one: the workspace journal, the solo-session log
// (written by the server's session registry), each replication standby and
// the labeling jobs' jobs.log. The owner's state evolution is fully
// determined by its event sequence (for workspaces, by (engine, event
// sequence) — see internal/workspace), so durability reduces to the classic
// log-then-replay pattern: every state-changing event is appended as one JSON
// line, and recovery replays the log through the same apply functions that
// served live traffic.
//
// Durability contract: Append writes the line straight to the file descriptor
// (no userspace buffering), so every acknowledged event survives a process
// kill (SIGKILL). fsync is batched — forced every Options.SyncEvery appends
// and by a background ticker every Options.SyncInterval — so a whole-machine
// crash can lose at most the last batch window. Sync and Close force an
// immediate fsync.
//
// Compaction: Rewrite atomically replaces the log with a caller-provided
// event list (for workspaces, per-dataset materializations plus one snapshot
// per live workspace; for solo sessions, each live session's create and
// verdicts; for jobs, each live job's records) via write-temp + fsync +
// rename, truncating unbounded growth while preserving recoverability at
// every instant.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Journal telemetry: append and fsync latency are the durability tax on the
// answer hot path, so both get histograms; compactions are rare and get a
// counter.
var (
	appendDurations = obs.Default().Histogram("darwin_journal_append_duration_seconds",
		"Latency of one journal append call, summed over every journal log (workspaces, sessions, standbys, labeling jobs): one event, or one batch (marshal + kernel write; excludes fsync batching).",
		obs.LatencyBuckets)
	fsyncDurations = obs.Default().Histogram("darwin_journal_fsync_duration_seconds",
		"Latency of one journal fsync on any journal log (batched per Options.SyncEvery / SyncInterval).",
		obs.LatencyBuckets)
	appendTotal = obs.Default().Counter("darwin_journal_appends_total",
		"Events appended to any journal log (workspaces, sessions, standbys, labeling jobs).")
	fsyncTotal = obs.Default().Counter("darwin_journal_fsyncs_total",
		"fsync calls issued by the journal writers of every log.")
	compactionsTotal = obs.Default().Counter("darwin_journal_compactions_total",
		"Snapshot+truncate compactions of any journal log.")
)

// Event is one journaled record. In the workspace journal exactly one of
// WS / Dataset scopes it: workspace lifecycle events carry the workspace ID,
// engine-level events (rule materializations, engine fingerprints) carry the
// dataset name.
// Labeling-job events set neither; their Data names the job.
type Event struct {
	// Seq is the file-order sequence number assigned by the Writer.
	Seq uint64 `json:"seq"`
	// Type is the event kind (for workspaces create, attach, suggest,
	// answer, detach, evict, materialize, engine, snapshot; for labeling
	// jobs create, done, failed, expire).
	Type string `json:"type"`
	// WS is the workspace ID for workspace-scoped events.
	WS string `json:"ws,omitempty"`
	// Dataset is the dataset name for engine-scoped events.
	Dataset string `json:"dataset,omitempty"`
	// Data is the type-specific payload (defined by the emitting package).
	Data json.RawMessage `json:"data,omitempty"`
}

// Options tunes the writer's fsync batching.
type Options struct {
	// SyncEvery forces an fsync after this many appends (default 64;
	// 1 fsyncs every append).
	SyncEvery int
	// SyncInterval is the background fsync period for idle batches
	// (default 100ms; negative disables the background syncer).
	SyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	return o
}

// Writer appends events to a JSONL log file. It is safe for concurrent use;
// appends are serialized and their file order defines replay order.
type Writer struct {
	mu      sync.Mutex //darwin:lockrank journal
	f       *os.File
	path    string
	opts    Options
	seq     uint64 // last assigned sequence number
	since   int    // appends since the last Rewrite (compaction trigger)
	pending int    // appends since the last fsync
	dirty   bool
	err     error // sticky I/O error; all later operations fail fast

	// gen counts Rewrites: followers tailing the file detect a compaction
	// (which reassigns every sequence number) as a generation bump and
	// restart from offset 0. notify is closed and replaced on every append
	// so followers can block without polling.
	gen    uint64
	notify chan struct{}

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if absent) the journal at path for appending and
// returns the writer together with all events already in the log, in file
// order. A torn final line — the signature of a crash mid-append — is
// tolerated, dropped, and truncated away so a subsequent append cannot merge
// with the torn bytes and corrupt the line framing; corruption earlier in
// the file is an error.
func Open(path string, opts Options) (*Writer, []Event, error) {
	events, validEnd, needNL, err := readAll(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if fi, serr := f.Stat(); serr == nil && fi.Size() > validEnd {
		// Crash artifact: a torn tail after the last fully-valid line. Repair
		// the file in place before appending over it.
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
	}
	if needNL {
		// The last valid line parsed but lost its terminating newline in a
		// crash; terminate it so the next append starts a fresh line.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: repair %s: %w", path, err)
		}
	}
	w := &Writer{
		f:      f,
		path:   path,
		opts:   opts.withDefaults(),
		gen:    1,
		notify: make(chan struct{}),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if n := len(events); n > 0 {
		w.seq = events[n-1].Seq
	}
	go w.syncLoop()
	return w, events, nil
}

// ReadAll reads every event in the log at path, in file order. A missing
// file yields no events. A torn final line is dropped; a corrupt line that
// is followed by valid lines is an error (real corruption, not a crash).
func ReadAll(path string) ([]Event, error) {
	events, _, _, err := readAll(path)
	return events, err
}

// readAll is ReadAll plus recovery bookkeeping: validEnd is the byte offset
// just past the last line that belongs in the repaired log, and needNL
// reports that the final valid line is missing its terminating newline.
func readAll(path string) (events []Event, validEnd int64, needNL bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: read %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	badLine := -1
	var badErr error
	var off int64
	line := 0
	for {
		b, rerr := br.ReadBytes('\n')
		if len(b) > 0 {
			line++
			complete := rerr == nil
			trimmed := bytes.TrimRight(b, "\r\n")
			if len(trimmed) > 0 {
				var ev Event
				if uerr := json.Unmarshal(trimmed, &ev); uerr != nil {
					if badLine >= 0 {
						return nil, 0, false, fmt.Errorf("journal: %s line %d: %v", path, badLine, badErr)
					}
					badLine, badErr = line, uerr
				} else {
					if badLine >= 0 {
						// A valid line after a bad one: the bad line was not a
						// torn tail.
						return nil, 0, false, fmt.Errorf("journal: %s line %d: %v", path, badLine, badErr)
					}
					events = append(events, ev)
					validEnd = off + int64(len(b))
					needNL = !complete
				}
			} else if complete && badLine < 0 {
				validEnd = off + int64(len(b))
			}
			off += int64(len(b))
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, 0, false, fmt.Errorf("journal: scan %s: %w", path, rerr)
		}
	}
	return events, validEnd, needNL, nil
}

// Record is one event to append: Append's arguments, for AppendBatch.
type Record struct {
	Type    string
	WS      string
	Dataset string
	// Data is the payload, marshaled to JSON. A non-nil json.RawMessage is
	// already JSON and is written as it is (compacted).
	Data any
}

// Append marshals data, assigns the next sequence number and writes the
// event as one JSON line, flushing it to the kernel before returning. The
// event is fsync-durable within the configured batch window.
//
//darwin:journals
func (w *Writer) Append(typ, ws, dataset string, data any) (Event, error) {
	evs, err := w.AppendBatch(Record{Type: typ, WS: ws, Dataset: dataset, Data: data})
	if err != nil {
		return Event{}, err
	}
	return evs[0], nil
}

// AppendBatch appends the records as consecutive events, in order, with one
// marshal pass, one write and one fsync decision: each line is the one
// Append would write, and the batch counts toward the SyncEvery window as a
// whole, so it is fsynced at most once. Nothing is written when a record
// fails to marshal.
//
//darwin:journals
func (w *Writer) AppendBatch(recs ...Record) ([]Event, error) {
	raws := make([]json.RawMessage, len(recs))
	size := 0
	for i, r := range recs {
		b, err := marshalData(r.Data)
		if err != nil {
			return nil, fmt.Errorf("journal: marshal %s event: %w", r.Type, err)
		}
		raws[i] = b
		size += len(b) + len(r.Type) + len(r.WS) + len(r.Dataset) + 64
	}
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil, w.err
	}
	evs := make([]Event, len(recs))
	buf := make([]byte, 0, size)
	for i, r := range recs {
		evs[i] = Event{Seq: w.seq + uint64(i) + 1, Type: r.Type, WS: r.WS, Dataset: r.Dataset, Data: raws[i]}
		buf = appendLine(buf, &evs[i])
	}
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		return nil, w.err
	}
	n := len(recs)
	w.seq += uint64(n)
	w.since += n
	w.pending += n
	w.dirty = true
	// Observed before a batch-boundary fsync so the append histogram
	// measures marshal + lock wait + kernel write only; fsync cost has its
	// own series.
	appendTotal.Add(uint64(n))
	appendDurations.ObserveSince(start)
	w.broadcastLocked()
	if w.pending >= w.opts.SyncEvery {
		w.syncLocked()
	}
	return evs, nil
}

// marshalData returns a record's payload as the bytes its line carries:
// what encoding/json writes for the Data field of an Event. json.Marshal's
// output is that already; a json.RawMessage is compacted and HTML-escaped,
// as encoding/json does to a marshaler's output, in the one pass Marshal
// makes over it. A nil payload and an empty, non-nil json.RawMessage are
// omitted from the line; a nil json.RawMessage marshals to null.
func marshalData(data any) (json.RawMessage, error) {
	if d, ok := data.(json.RawMessage); data == nil || ok && d != nil && len(d) == 0 {
		return nil, nil
	}
	return json.Marshal(data)
}

// appendLine appends ev as the JSON line json.Encoder writes for it: the
// fields in declaration order, empty WS, Dataset and Data omitted, and
// ev.Data (already in its encoded form, see marshalData) copied verbatim.
func appendLine(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"type":`...)
	dst = appendString(dst, ev.Type)
	if ev.WS != "" {
		dst = append(dst, `,"ws":`...)
		dst = appendString(dst, ev.WS)
	}
	if ev.Dataset != "" {
		dst = append(dst, `,"dataset":`...)
		dst = appendString(dst, ev.Dataset)
	}
	if len(ev.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = append(dst, ev.Data...)
	}
	return append(dst, '}', '\n')
}

// appendString appends s as encoding/json quotes it. Event types, ids and
// dataset names are plain ASCII, which is copied between quotes; anything
// else goes through json.Marshal, whose escaping it must match.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// broadcastLocked wakes every follower blocked in Next by closing the
// current notify channel and installing a fresh one.
func (w *Writer) broadcastLocked() {
	close(w.notify)
	w.notify = make(chan struct{})
}

// Seq returns the last assigned sequence number.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Generation counts compactions: it starts at 1 and is bumped by every
// Rewrite. Sequence numbers are only comparable within one generation.
func (w *Writer) Generation() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// state snapshots the notify channel and generation together so a follower
// can check for a generation change, read the file, and then block without
// missing an append that lands in between.
func (w *Writer) state() (<-chan struct{}, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.notify, w.gen
}

// SinceRewrite returns the number of appends since the log was last
// compacted (or opened). Managers use it as the compaction trigger.
func (w *Writer) SinceRewrite() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.since
}

// Sync forces an fsync of all appended events.
//
//darwin:journals
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.syncLocked()
	return w.err
}

func (w *Writer) syncLocked() {
	if !w.dirty || w.err != nil {
		return
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: fsync: %w", err)
		return
	}
	fsyncTotal.Inc()
	fsyncDurations.ObserveSince(start)
	w.dirty = false
	w.pending = 0
}

// syncLoop is the background batched-fsync ticker.
func (w *Writer) syncLoop() {
	defer close(w.done)
	if w.opts.SyncInterval < 0 {
		<-w.stop
		return
	}
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			w.syncLocked()
			w.mu.Unlock()
		case <-w.stop:
			return
		}
	}
}

// Rewrite atomically replaces the log's contents with the given events —
// the snapshot+truncate compaction step. Sequence numbers are reassigned
// from 1 and subsequent appends continue after them. Callers must ensure no
// concurrent appender holds state that the new event list does not capture
// (see workspace.Manager.Compact for the locking discipline).
func (w *Writer) Rewrite(events []Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	tmp := w.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	bw := bufio.NewWriter(f)
	for i := range events {
		events[i].Seq = uint64(i + 1)
		line, err := json.Marshal(events[i])
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("journal: compact marshal: %w", err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: compact flush: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact close: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	syncDir(w.path)
	old := w.f
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.err = fmt.Errorf("journal: reopen after compact: %w", err)
		return w.err
	}
	old.Close()
	w.f = nf
	w.seq = uint64(len(events))
	w.since = 0
	w.pending = 0
	w.dirty = false
	w.gen++
	w.broadcastLocked()
	compactionsTotal.Inc()
	return nil
}

// syncDir fsyncs the directory containing path so a rename is durable.
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Close stops the background syncer, fsyncs and closes the file.
func (w *Writer) Close() error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	// Wake blocked followers one last time; the fresh channel is never
	// closed again, so they park on their contexts from here on.
	w.broadcastLocked()
	w.syncLocked()
	err := w.err
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if w.err == nil {
		w.err = fmt.Errorf("journal: writer closed")
	}
	return err
}
