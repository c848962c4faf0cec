package corpus

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// labeledRecord is the shape AppendRecordHead and AppendRecordTail encode,
// for encoding/json to hold them to.
type labeledRecord struct {
	ID    int      `json:"id"`
	Text  string   `json:"text"`
	Label int      `json:"label"`
	Prob  *float64 `json:"prob,omitempty"`
}

// FuzzAppendRecord holds the labeled-record encoder to encoding/json: for
// any text bytes, id, label and probability, AppendRecordHead followed by
// AppendRecordTail must write exactly what json.NewEncoder(w).Encode writes
// for the same labeledRecord, and fail exactly when the encoder does.
func FuzzAppendRecord(f *testing.F) {
	texts := []string{
		"", "plain text", `quote " and backslash \`, "<b>&amp;</b>",
		"tab\tnewline\nreturn\rbackspace\bformfeed\f", "nul\x00 unit\x1f del\x7f",
		"line\u2028para\u2029sep", "bad utf-8 \xff\xfe end", "truncated \xe2\x80",
		"\xed\xa0\x80 surrogate", "émigré 東京 🚌",
	}
	probs := []float64{0, 1, 0.5, 1e-6, 9.99e-7, 4e-7, 5e-324, 1e21, 0.6666666666666666,
		1.8986808495621245e-7, -1e-7, math.Copysign(0, -1)}
	for i, p := range probs {
		f.Add([]byte(texts[i%len(texts)]), int64(i), int64(i%2), p, true)
	}
	for i, text := range texts {
		f.Add([]byte(text), int64(i*1000), int64(1-i%2), 0.5, i%2 == 0)
	}
	f.Add([]byte("nan"), int64(-3), int64(0), math.NaN(), true)
	f.Add([]byte("inf"), int64(1<<40), int64(1), math.Inf(-1), true)

	f.Fuzz(func(t *testing.T, text []byte, id, label int64, prob float64, includeProb bool) {
		rec := labeledRecord{ID: int(id), Text: string(text), Label: int(label)}
		if includeProb {
			rec.Prob = &prob
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(rec)
		got := AppendRecordHead([]byte("prefix"), rec.ID, rec.Text)
		got, err := AppendRecordTail(got, rec.Label, rec.Prob)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendRecordTail error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
			t.Fatalf("labeled record encoded as %q, encoding/json %q", got, want.Bytes())
		}
	})
}
