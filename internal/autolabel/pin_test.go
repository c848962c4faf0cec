package autolabel

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
)

// pinnedUpload is an uploaded corpus whose texts carry every byte class the
// JSONL writer escapes: HTML-sensitive <, > and &, a quote, a backslash, a
// tab, a raw control byte and U+2028. Its last twenty sentences each draw all
// seven of pinnedNegatives' votes, which drives their generative posterior
// below 1e-6, where the writer switches to exponent form.
var pinnedUpload = `{"text":"best way to get to <the> \"pier\" & back","label":1}
{"text":"how do i get to C:\\ferry\tterminal","label":1}
{"text":"best way to get to the bus station\u0001 now\u2028please","label":1}
{"text":"taxi fares & tips < 20%","label":0}
{"text":"plain sentence with nothing special","label":0}
` + strings.Repeat(`{"text":"taxi fares tips cash meter night late","label":0}
`, 20)

var pinnedNegatives = []string{"taxi", "fares", "tips", "cash", "meter", "night", "late"}

// TestRunOutputPinned pins the sha256 and Result of Run's output for each
// aggregator, with and without probabilities, with a negative rule and on an
// uploaded corpus that exercises the writer's escapes. Any change to how
// records are encoded or how posteriors are computed moves a digest here.
func TestRunOutputPinned(t *testing.T) {
	eng := testEngine(t)
	spec := func(agg string, prob bool, negative []string, corpus string) Spec {
		return Spec{
			Rules:         []string{"best way to get to", "how do i get", "shuttle", "bart", "station"},
			NegativeRules: negative,
			Aggregator:    agg,
			IncludeProb:   prob,
			ChunkSize:     64,
			Corpus:        corpus,
		}
	}
	cases := []struct {
		name   string
		spec   Spec
		sha    string
		result Result
	}{
		{"majority", spec(AggregatorMajority, false, nil, ""),
			"b0316414b89306eec56dd71967459668ca79b173f81c86f7034aba17556be08d",
			Result{Sentences: 765, Rules: 5, Covered: 12, Positives: 12, OutputBytes: 52694}},
		{"majority prob", spec(AggregatorMajority, true, nil, ""),
			"3431935b55466149f812643adcc1043ecd4c24f6007774865ed48cb441a50fea",
			Result{Sentences: 765, Rules: 5, Covered: 12, Positives: 12, OutputBytes: 59579}},
		{"generative", spec(AggregatorGenerative, false, nil, ""),
			"b0316414b89306eec56dd71967459668ca79b173f81c86f7034aba17556be08d",
			Result{Sentences: 765, Rules: 5, Covered: 12, Positives: 12, OutputBytes: 52694}},
		{"generative prob", spec(AggregatorGenerative, true, nil, ""),
			"cef9976865de35a4f7449f629e596a54c3abebb53dfa1c994bc0cce7b5b396b2",
			Result{Sentences: 765, Rules: 5, Covered: 12, Positives: 12, OutputBytes: 61289}},
		{"generative prob negative", spec(AggregatorGenerative, true, []string{"taxi", "fastest way"}, ""),
			"d08cd7916c408342de9c4dd1aa0bc2c88a1bffe45796a2dbcf0ceec16b24c462",
			Result{Sentences: 765, Rules: 7, Covered: 44, Positives: 12, OutputBytes: 61800}},
		{"majority prob negative default", withDefaultProb(spec(AggregatorMajority, true, []string{"taxi", "fastest way"}, ""), 0.25),
			"c3da1af43b2d8e65784335de19b42837c9cfd98c8c89fd9a03ee3d078a5f90e9",
			Result{Sentences: 765, Rules: 7, Covered: 44, Positives: 12, OutputBytes: 61742}},
		{"upload generative prob", spec(AggregatorGenerative, true, pinnedNegatives, pinnedUpload),
			"867fda4380e02f88397221c7652c8773f09cfb574e92a1f13b7678ccff4d06c2",
			Result{Sentences: 25, Rules: 12, Covered: 24, Positives: 3, OutputBytes: 2391}},
		{"upload majority", spec(AggregatorMajority, false, pinnedNegatives, pinnedUpload),
			"65d3104b42c9fd718b5f9ae702f0b5defcc9ec281a849a66e036d75f9a52a503",
			Result{Sentences: 25, Rules: 12, Covered: 24, Positives: 3, OutputBytes: 1694}},
	}
	for _, tc := range cases {
		e := eng
		if tc.spec.Corpus != "" {
			e = uploadEngine(t, eng, tc.spec)
		}
		out, res := runOnce(t, e, tc.spec)
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: output sha256 %s, want %s", tc.name, got, tc.sha)
		}
		if res != tc.result {
			t.Errorf("%s: result %+v, want %+v", tc.name, res, tc.result)
		}
	}
}

func withDefaultProb(sp Spec, p float64) Spec {
	sp.DefaultProb = p
	return sp
}

// uploadEngine builds the streaming engine Manager.run labels an uploaded
// corpus through.
func uploadEngine(t *testing.T, eng *core.Engine, spec Spec) *core.Engine {
	t.Helper()
	batch, err := spec.DecodeCorpus()
	if err != nil {
		t.Fatal(err)
	}
	seng, err := core.NewStreamingFromBatch("upload", batch, eng.Config())
	if err != nil {
		t.Fatal(err)
	}
	return seng
}
