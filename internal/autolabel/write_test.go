package autolabel

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
)

// outputRecord is the shape of a labeling job's output line, for encoding/json
// to hold the job's writer to.
type outputRecord struct {
	ID    int      `json:"id"`
	Text  string   `json:"text"`
	Label int      `json:"label"`
	Prob  *float64 `json:"prob,omitempty"`
}

// FuzzAppendRecord holds a labeling job's output records to encoding/json:
// for any text bytes, id, label and probability, the sentence's record head
// followed by the tail the job's memo serves must be exactly what
// json.NewEncoder(w).Encode writes for the same record, and fail exactly
// when the encoder does. The memo is asked again after serving a different
// probability, so a tail served from memory must match too. The encoder
// itself is fuzzed in internal/corpus.
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
		rec := outputRecord{ID: int(id), Text: string(text), Label: int(label)}
		if includeProb {
			rec.Prob = &prob
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(rec)
		tm := tailMemo{includeProb: includeProb, byKey: make(map[uint64][]byte)}
		for i, p := range []float64{prob, 0.5, prob} {
			tail, err := tm.tail(rec.Label, p)
			if i == 1 {
				continue // only moves the memo off prob
			}
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("tail error %v, encoding/json error %v", err, wantErr)
			}
			got := append(corpus.AppendRecordHead(nil, rec.ID, rec.Text), tail...)
			if err == nil && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("job record %q, encoding/json %q", got, want.Bytes())
			}
		}
	})
}

// BenchmarkAutolabelRun times one labeling job in-process: the full-scale
// directions corpus under the default engine configuration, a five-rule
// generative committee with probabilities, output to io.Discard.
func BenchmarkAutolabelRun(b *testing.B) {
	c, err := datagen.ByName("directions", 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(c, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{
		Rules:       []string{"best way to get to", "shuttle", "bart", "taxi", "station"},
		Aggregator:  AggregatorGenerative,
		IncludeProb: true,
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(context.Background(), eng, spec, io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutolabelRunWide is the worst case for the vote-pattern and tail
// memos: a 30-rule generative committee of frequent words, whose covered
// sentences mostly carry vote vectors, and probabilities, of their own.
func BenchmarkAutolabelRunWide(b *testing.B) {
	c, err := datagen.ByName("directions", 1.0, 7)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(c, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec := Spec{Rules: wideCommittee, Aggregator: AggregatorGenerative, IncludeProb: true}
	b.ReportAllocs()
	var res Result
	for b.Loop() {
		if res, err = Run(context.Background(), eng, spec, io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Covered), "covered")
}

// wideCommittee is thirty single-word rules, common enough on directions
// that most sentences draw several votes.
var wideCommittee = []string{"the", "to", "a", "i", "is", "what", "how", "get", "from", "way",
	"best", "in", "of", "for", "and", "can", "you", "my", "do", "it",
	"there", "on", "go", "bus", "train", "airport", "take", "where", "station", "time"}
