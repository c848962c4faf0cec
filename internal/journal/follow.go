package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Follower tails a live journal by byte offset, independently of the
// Writer's append path: it opens its own read-only descriptor and parses
// complete lines as they land, blocking on the Writer's notify channel in
// between. It is the primary-side source for journal replication
// (internal/replicate).
//
// A Follower is single-goroutine: do not call Next concurrently.
type Follower struct {
	w   *Writer
	f   *os.File
	off int64  // file offset of the next byte to read
	buf []byte // the one read buffer, allocated on first read
	n   int    // buf[:n] is a partial trailing line carried between reads
	gen uint64 // generation of the file f reads from (0 before first Next)
}

// followBufSize is the Follower's initial read buffer. It grows only when a
// single journal line does not fit.
const followBufSize = 256 << 10

// Follow returns a new Follower positioned at the start of the journal.
func (w *Writer) Follow() *Follower {
	return &Follower{w: w}
}

// Next blocks until at least one new event is available, the journal is
// compacted, or ctx ends. On a compaction (generation change) it returns
// (nil, true, nil): the caller must discard all derived downstream state,
// and the next call re-reads the rewritten file from offset 0. A ctx
// deadline surfaces as ctx.Err() — callers use short deadlines as a
// heartbeat tick.
func (fl *Follower) Next(ctx context.Context) (events []Event, reset bool, err error) {
	for {
		// Snapshot (notify, generation) before reading: an append that lands
		// after the read began either was seen by the read or has closed ch.
		ch, gen := fl.w.state()
		if fl.gen != gen {
			started := fl.gen != 0
			fl.reopen(gen)
			if started {
				return nil, true, nil
			}
		}
		evs, rerr := fl.read()
		if rerr != nil {
			return nil, false, rerr
		}
		if len(evs) > 0 {
			// A compaction can slip between state() and a lazy re-open of the
			// file, in which case these events were parsed from the rewritten
			// file under a stale generation. Drop them; the next iteration
			// observes the bump and signals the reset properly.
			if _, cur := fl.w.state(); cur != fl.gen {
				continue
			}
			return evs, false, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-ch:
		}
	}
}

// Generation reports the journal generation the follower is currently bound
// to (0 before the first Next). Batches derived from returned events should
// be stamped with this, not the Writer's live generation, which may already
// have moved on.
func (fl *Follower) Generation() uint64 {
	return fl.gen
}

// reopen discards the current descriptor and parse state and rebinds the
// follower to the given generation, starting from offset 0.
func (fl *Follower) reopen(gen uint64) {
	if fl.f != nil {
		fl.f.Close()
		fl.f = nil
	}
	fl.off = 0
	fl.n = 0
	fl.gen = gen
}

// read drains everything currently appended past the follower's offset and
// returns the complete events found. Lines are parsed straight out of the
// follower's one buffer; only a trailing partial line (an append's write
// observed mid-flight) is moved to its front and carried over to the next
// call, so a read costs in proportion to the bytes appended since the last
// one. Unmarshal copies what it keeps (strings, RawMessage), so returned
// events never alias the buffer the next read overwrites. A complete line
// that fails to parse is real corruption and an error.
func (fl *Follower) read() ([]Event, error) {
	if fl.f == nil {
		f, err := os.Open(fl.w.path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil, nil
			}
			return nil, fmt.Errorf("journal: follow %s: %w", fl.w.path, err)
		}
		fl.f = f
	}
	if fl.buf == nil {
		fl.buf = make([]byte, followBufSize)
	}
	var events []Event
	for {
		if fl.n == len(fl.buf) {
			// One line fills the whole buffer: grow it to fit.
			fl.buf = append(fl.buf, make([]byte, len(fl.buf))...)
		}
		n, rerr := fl.f.ReadAt(fl.buf[fl.n:], fl.off)
		fl.off += int64(n)
		data := fl.buf[:fl.n+n]
		for {
			i := bytes.IndexByte(data, '\n')
			if i < 0 {
				break
			}
			line := bytes.TrimRight(data[:i], "\r")
			data = data[i+1:]
			if len(line) == 0 {
				continue
			}
			var ev Event
			if err := json.Unmarshal(line, &ev); err != nil {
				return nil, fmt.Errorf("journal: follow %s: corrupt line: %w", fl.w.path, err)
			}
			events = append(events, ev)
		}
		fl.n = copy(fl.buf, data)
		if rerr == io.EOF {
			return events, nil
		}
		if rerr != nil {
			return events, fmt.Errorf("journal: follow %s: %w", fl.w.path, rerr)
		}
	}
}

// Close releases the follower's file descriptor. The parent Writer is not
// affected.
func (fl *Follower) Close() {
	if fl.f != nil {
		fl.f.Close()
		fl.f = nil
	}
}
