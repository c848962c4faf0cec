package journal

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// BenchmarkAppendBatch appends what a workspace suggest appends (struct
// data) and what a follower appends per replicated batch (a suggest and an
// answer received as json.RawMessage plus a repl_mark), with fsync batching
// out of the way, and reports allocations per call.
func BenchmarkAppendBatch(b *testing.B) {
	type suggest struct {
		Annotator string `json:"annotator"`
		Key       string `json:"key"`
	}
	type mark struct {
		Epoch uint64 `json:"epoch"`
		Gen   uint64 `json:"gen"`
		Upto  uint64 `json:"upto"`
	}
	b.Run("struct", func(b *testing.B) {
		w, _, err := Open(filepath.Join(b.TempDir(), "j.jsonl"), Options{SyncEvery: 1 << 30, SyncInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		d := suggest{Annotator: "alice", Key: "tokensregex:best way to get to"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Append("suggest", "0123456789abcdef0123456789abcdef", "", d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("follower", func(b *testing.B) {
		w, _, err := Open(filepath.Join(b.TempDir(), "j.jsonl"), Options{SyncEvery: 1 << 30, SyncInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		sug := json.RawMessage(`{"annotator":"alice","key":"tokensregex:best way to get to"}`)
		ans := json.RawMessage(`{"annotator":"alice","key":"tokensregex:best way to get to","accept":false}`)
		ws := "0123456789abcdef0123456789abcdef"
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.AppendBatch(
				Record{Type: "suggest", WS: ws, Data: sug},
				Record{Type: "answer", WS: ws, Data: ans},
				Record{Type: "repl_mark", Dataset: "directions", Data: mark{Epoch: 1, Gen: 1, Upto: uint64(i)}},
			); err != nil {
				b.Fatal(err)
			}
		}
	})
}
