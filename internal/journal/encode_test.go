package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// referenceLine is the line AppendBatch wrote when it encoded events with
// json.Encoder: the payload marshaled (a non-nil json.RawMessage taken as it
// is), then the whole event encoded, which compacts and HTML-escapes the
// payload once more.
func referenceLine(seq uint64, r Record) ([]byte, error) {
	var raw json.RawMessage
	if d, ok := r.Data.(json.RawMessage); ok && d != nil {
		raw = d
	} else if r.Data != nil {
		b, err := json.Marshal(r.Data)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Event{Seq: seq, Type: r.Type, WS: r.WS, Dataset: r.Dataset, Data: raw}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodePieces are the fragments random strings are built from: plain
// ASCII, the characters JSON or HTML escaping rewrites, control bytes,
// multi-byte runes, the two JavaScript line separators and invalid UTF-8.
var encodePieces = []string{
	"a", "Z", "7", " ", "-", "~", "_", ":", "/", "\"", "\\", "<", ">", "&", "'",
	"\n", "\t", "\r", "\b", "\f", "\x00", "\x1f", "\x7f", "é", "日本", "😀",
	" ", " ", "\xff", "\xe2\x80", "\xed\xa0\x80",
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for i := rng.Intn(8); i > 0; i-- {
		b.WriteString(encodePieces[rng.Intn(len(encodePieces))])
	}
	return b.String()
}

// randValue returns a random JSON-marshalable value.
func randValue(rng *rand.Rand, depth int) any {
	switch k := rng.Intn(8); {
	case k == 0:
		return nil
	case k == 1:
		return rng.Intn(2) == 0
	case k == 2:
		return []float64{0, -1, 1e21, 1e-7, 123456789, math.MaxInt64, 0.1, -2.5e-300}[rng.Intn(8)]
	case k < 5 || depth > 2:
		return randString(rng)
	case k == 5:
		out := make([]any, rng.Intn(4))
		for i := range out {
			out[i] = randValue(rng, depth+1)
		}
		return out
	default:
		out := map[string]any{}
		for i := rng.Intn(4); i > 0; i-- {
			out[randString(rng)] = randValue(rng, depth+1)
		}
		return out
	}
}

// randRaw returns random JSON text as a peer might send it: indented or
// not, HTML characters and line separators escaped or not, and now and then
// invalid.
func randRaw(rng *rand.Rand) json.RawMessage {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(rng.Intn(2) == 0)
	if rng.Intn(2) == 0 {
		enc.SetIndent(strings.Repeat(" ", rng.Intn(3)), strings.Repeat("\t", rng.Intn(2))+" ")
	}
	if err := enc.Encode(randValue(rng, 0)); err != nil {
		panic(err)
	}
	raw := buf.Bytes()
	switch rng.Intn(8) {
	case 0: // an unescaped line separator inside a string
		raw = []byte(" {\"k\" : \"a <&> b\" ,\n\"n\":[ 1 , 2 ]}\n")
	case 1: // truncated, so invalid
		raw = raw[:len(raw)/2]
	case 2: // whitespace only, so invalid
		raw = []byte(" \n\t")
	}
	return raw
}

// randRecord returns a record whose payload takes every form AppendBatch
// accepts: none, a nil or empty json.RawMessage, raw JSON, a struct, a map
// or a random value.
func randRecord(rng *rand.Rand) Record {
	r := Record{Type: randString(rng), WS: randString(rng), Dataset: randString(rng)}
	if rng.Intn(2) == 0 {
		r.Type, r.WS, r.Dataset = "suggest", "0123abcd", ""
	}
	switch rng.Intn(7) {
	case 0:
	case 1:
		r.Data = json.RawMessage(nil)
	case 2:
		r.Data = json.RawMessage{}
	case 3, 4:
		r.Data = randRaw(rng)
	case 5:
		r.Data = struct {
			Annotator string `json:"annotator"`
			Key       string `json:"key,omitempty"`
			Accept    bool   `json:"accept"`
		}{randString(rng), randString(rng), rng.Intn(2) == 0}
	default:
		r.Data = randValue(rng, 0)
	}
	return r
}

// TestAppendBatchMatchesEncoder holds AppendBatch's lines to the
// json.Encoder-based writer it replaced, byte for byte, on random batches:
// random event types, ids and dataset names, and payloads of every accepted
// form, including raw JSON that is not compact, has unescaped HTML
// characters or line separators, or is invalid. A batch the old writer
// could not encode must be refused with nothing written.
func TestAppendBatchMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, _ := openT(t, path)
	var want []byte
	refused := 0
	for trial := 0; trial < 3000; trial++ {
		recs := make([]Record, 1+rng.Intn(3))
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		var lines []byte
		var refErr error
		for i, r := range recs {
			line, err := referenceLine(w.Seq()+uint64(i)+1, r)
			if err != nil {
				refErr = err
				break
			}
			lines = append(lines, line...)
		}
		evs, err := w.AppendBatch(recs...)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("trial %d: AppendBatch error %v, encoder error %v (records %q)", trial, err, refErr, recs)
		}
		if err != nil {
			refused++
			continue
		}
		want = append(want, lines...)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: lines differ\ngot  %q\nwant %q", trial, got[min(len(got), len(want)-len(lines)):], lines)
		}
		for i, ev := range evs {
			var back Event
			if err := json.Unmarshal(bytes.Split(lines, []byte("\n"))[i], &back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ev.Data, back.Data) {
				t.Fatalf("trial %d: event %d carries data %q, its line %q", trial, i, ev.Data, back.Data)
			}
		}
	}
	if refused == 0 {
		t.Fatal("no batch was refused: invalid payloads went untested")
	}
	t.Logf("%d batches refused", refused)
}
