// Package autolabel is the corpus-scale auto-labeling pipeline: it takes a
// committee of accepted rules (a labeler's discovery output, plus any ad-hoc
// tokensregex/treematch predicates), applies them corpus-wide through the
// bitset coverage kernel, assembles the weak-supervision vote matrix,
// aggregates the votes with the label model (majority vote or the one-coin
// generative model), and streams the fully labeled corpus out as JSONL.
//
// This closes the loop the paper actually cares about: the serving stack
// helps a human find rules; this package turns those rules into training
// data at scale. Run is a pure function of (corpus, spec) — no wall clock,
// no randomness — so the same inputs always produce byte-identical output,
// which is what makes labeling jobs safely re-runnable after a crash (see
// Manager) and byte-comparable across direct, HTTP and routed invocations.
// darwinlint enforces that purity for every function in this file:
//
//darwin:replaypure
package autolabel

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/labelmodel"
)

// Aggregator names for Spec.Aggregator.
const (
	AggregatorMajority   = "majority"
	AggregatorGenerative = "generative"
)

// Pipeline stage names, in execution order. They label progress counters and
// the per-stage latency histograms.
const (
	StageResolve   = "resolve"
	StageVotes     = "votes"
	StageAggregate = "aggregate"
	StageWrite     = "write"
)

// Typed failures the serving layer maps onto its error taxonomy.
var (
	// ErrInvalidSpec reports a spec that cannot run (no rules, unknown
	// aggregator, unparseable rule, default_prob outside [0,1], non-finite
	// pos_threshold).
	ErrInvalidSpec = errors.New("autolabel: invalid spec")
	// ErrUnknownDataset reports a job submitted for a dataset the manager
	// does not serve.
	ErrUnknownDataset = errors.New("autolabel: unknown dataset")
	// ErrUnknownJob reports an unknown or expired job id.
	ErrUnknownJob = errors.New("autolabel: unknown job")
	// ErrNotDone reports an output request for a job that has not completed.
	ErrNotDone = errors.New("autolabel: job is not done")
	// ErrDisabled reports that the manager is not configured (no jobs dir).
	ErrDisabled = errors.New("autolabel: labeling jobs are disabled")
)

// Spec describes one labeling job. It is both the wire shape of the /v2 job
// API and the journaled job record: the serving layer resolves any labeler
// reference into concrete rule strings before the spec is journaled, so the
// recorded spec alone determines the output byte-for-byte.
type Spec struct {
	// Rules are rule specifications voting positive on their coverage
	// (tokensregex phrases like "best way to get to", or prefixed forms like
	// "treematch:caused/by"). A labeler's accepted-rule strings parse here
	// unchanged.
	Rules []string `json:"rules,omitempty"`
	// NegativeRules vote negative on their coverage — predicate rules that
	// mark a sentence as a known non-match.
	NegativeRules []string `json:"negative_rules,omitempty"`
	// Labeler, when set on a create request, pulls the accepted rules of
	// this live labeler (session or workspace attachment) and appends them
	// to Rules. The serving layer resolves it at submit time and clears it.
	Labeler string `json:"labeler,omitempty"`
	// Aggregator is "majority" (default) or "generative".
	Aggregator string `json:"aggregator,omitempty"`
	// DefaultProb is the majority-vote probability assigned to sentences no
	// rule covers (default 0). The generative model gives uncovered
	// sentences its class prior instead.
	DefaultProb float64 `json:"default_prob,omitempty"`
	// PosThreshold is the hard-label cutoff: label 1 iff prob > threshold
	// (strictly greater, so an uncovered sentence sitting exactly on the
	// generative prior stays negative). nil means the default 0.5; an
	// explicit 0 labels every sentence with any positive probability.
	PosThreshold *float64 `json:"pos_threshold,omitempty"`
	// EMIterations overrides the generative model's EM rounds (default 20).
	EMIterations int `json:"em_iterations,omitempty"`
	// IncludeProb adds the aggregated probability to every output record.
	IncludeProb bool `json:"include_prob,omitempty"`
	// ChunkSize is the number of sentences written per flush (default 4096).
	// It bounds the writer's buffered memory and sets the granularity of
	// progress counters and cancellation checks.
	ChunkSize int `json:"chunk_size,omitempty"`
	// Corpus, when non-empty, is an uploaded corpus in ingest JSONL form
	// (one {"text","label"} per line): the job labels these sentences
	// instead of the dataset's resident corpus, streamed through a
	// lightweight engine that never builds the interactive index. The
	// dataset still scopes the job (grammars, labeler resolution);
	// the journaled spec carries the corpus, so recovery re-runs are
	// byte-identical.
	Corpus string `json:"corpus,omitempty"`
}

// withDefaults resolves the spec's tunables. It never touches Rules.
func (sp Spec) withDefaults() Spec {
	if sp.Aggregator == "" {
		sp.Aggregator = AggregatorMajority
	}
	if sp.PosThreshold == nil {
		thr := 0.5
		sp.PosThreshold = &thr
	}
	if sp.ChunkSize <= 0 {
		sp.ChunkSize = 4096
	}
	return sp
}

// Validate checks the spec against an engine without running anything: every
// rule must parse under the engine's grammars, the aggregator must be known,
// DefaultProb must be a probability and PosThreshold finite. The returned
// error wraps ErrInvalidSpec.
func (sp Spec) Validate(eng *core.Engine) error {
	if sp.Labeler != "" {
		return fmt.Errorf("%w: labeler reference %q was not resolved before validation", ErrInvalidSpec, sp.Labeler)
	}
	if len(sp.Rules) == 0 {
		return fmt.Errorf("%w: at least one rule is required", ErrInvalidSpec)
	}
	switch sp.withDefaults().Aggregator {
	case AggregatorMajority, AggregatorGenerative:
	default:
		return fmt.Errorf("%w: unknown aggregator %q (want %q or %q)",
			ErrInvalidSpec, sp.Aggregator, AggregatorMajority, AggregatorGenerative)
	}
	if !(sp.DefaultProb >= 0 && sp.DefaultProb <= 1) {
		return fmt.Errorf("%w: default_prob %v is not in [0,1]", ErrInvalidSpec, sp.DefaultProb)
	}
	if sp.PosThreshold != nil && (math.IsNaN(*sp.PosThreshold) || math.IsInf(*sp.PosThreshold, 0)) {
		return fmt.Errorf("%w: pos_threshold %v is not finite", ErrInvalidSpec, *sp.PosThreshold)
	}
	for _, rule := range append(append([]string(nil), sp.Rules...), sp.NegativeRules...) {
		if _, err := eng.ParseRule(rule); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
		}
	}
	if sp.Corpus != "" {
		if _, err := sp.DecodeCorpus(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeCorpus decodes the spec's uploaded corpus through the ingest
// decoder. Empty when the spec targets the dataset's resident corpus. The
// returned error wraps ErrInvalidSpec.
func (sp Spec) DecodeCorpus() ([]ingest.Sentence, error) {
	if sp.Corpus == "" {
		return nil, nil
	}
	batch, err := ingest.DecodeJSONL(strings.NewReader(sp.Corpus), ingest.Limits{})
	if err != nil {
		return nil, fmt.Errorf("%w: uploaded corpus: %v", ErrInvalidSpec, err)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: uploaded corpus is empty", ErrInvalidSpec)
	}
	return batch, nil
}

// Result summarizes one completed run.
type Result struct {
	// Sentences is the corpus size (= output lines).
	Sentences int `json:"sentences"`
	// Rules is the committee size (positive + negative vote sources).
	Rules int `json:"rules"`
	// Covered counts sentences with at least one non-abstain vote.
	Covered int `json:"covered"`
	// Positives counts output records labeled 1.
	Positives int `json:"positives"`
	// OutputBytes is the size of the streamed JSONL.
	OutputBytes int64 `json:"output_bytes"`
}

// Progress observes the pipeline: stage is one of the Stage* constants, done
// and total count stage-local units (rules for resolve/votes, sentences for
// aggregate/write). Run reports (stage, 0, total) on entering each stage,
// before any of its work, so a stage's first call marks its start. May be
// nil.
type Progress func(stage string, done, total int)

// tailMemoCap bounds the per-run memo of record tails (see Run). A
// committee's probabilities take few distinct values (a five-rule generative
// committee gives 6-10 over 15,300 sentences), so the memo formats each tail
// once. Past the cap, tails are formatted per record, so a committee with
// mostly distinct probabilities costs what formatting every record costs
// instead of growing memory.
const tailMemoCap = 1024

// Run applies the spec to the engine's corpus and streams the labeled JSONL
// to w. Memory stays bounded by (corpus bitsets + vote matrix + one write
// chunk); output is produced in ChunkSize flushes, so a slow consumer
// backpressures the pipeline instead of buffering the whole corpus. The
// output is a pure function of (corpus, spec): byte-identical across runs,
// processes and routes. ctx is checked between chunks and rules; a canceled
// run returns ctx.Err() with the output truncated.
func Run(ctx context.Context, eng *core.Engine, spec Spec, w io.Writer, progress Progress) (Result, error) {
	if err := spec.Validate(eng); err != nil {
		return Result{}, err
	}
	sp := spec.withDefaults()
	if progress == nil {
		progress = func(string, int, int) {}
	}
	// An immutable snapshot view: a concurrent ingest must not grow the
	// corpus under a running job, which would desynchronize n, the vote
	// matrix and the output stream.
	corp := eng.CorpusView()
	n := corp.Len()
	numRules := len(sp.Rules) + len(sp.NegativeRules)

	// Stage 1: resolve every rule to its coverage bitset (index bits are
	// reused when published; otherwise one corpus scan, no index mutation).
	type ruleBits struct {
		spec string
		bits *bitset.Adaptive
		vote labelmodel.Vote
	}
	resolved := make([]ruleBits, 0, numRules)
	progress(StageResolve, 0, numRules)
	resolve := func(specs []string, vote labelmodel.Vote) error {
		for _, rule := range specs {
			if err := ctx.Err(); err != nil {
				return err
			}
			_, bits, err := eng.CoverageBits(rule)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
			}
			resolved = append(resolved, ruleBits{spec: rule, bits: bits, vote: vote})
			progress(StageResolve, len(resolved), numRules)
		}
		return nil
	}
	if err := resolve(sp.Rules, labelmodel.VotePositive); err != nil {
		return Result{}, err
	}
	if err := resolve(sp.NegativeRules, labelmodel.VoteNegative); err != nil {
		return Result{}, err
	}

	// Stage 2: assemble the vote matrix and the union coverage — batch
	// word-wise Or over the per-rule bitsets.
	progress(StageVotes, 0, numRules)
	m := labelmodel.NewMatrix(n)
	union := bitset.New(n)
	for i, rb := range resolved {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		m.AddRuleBits(rb.spec, rb.bits, rb.vote)
		union = rb.bits.OrInto(union)
		progress(StageVotes, i+1, numRules)
	}
	// Rule bitsets resolved against the live index may cover sentences
	// ingested after the snapshot view was taken; count only ids inside it.
	covered := 0
	union.Range(func(id int) bool {
		if id >= n {
			return false
		}
		covered++
		return true
	})

	// Stage 3: aggregate votes into per-sentence probabilities.
	progress(StageAggregate, 0, n)
	var probs []float64
	switch sp.Aggregator {
	case AggregatorGenerative:
		gcfg := labelmodel.DefaultGenerativeConfig()
		if sp.EMIterations > 0 {
			gcfg.Iterations = sp.EMIterations
		}
		probs = labelmodel.FitGenerative(m, gcfg).Probabilities()
	default:
		probs = m.MajorityVote(sp.DefaultProb)
	}
	progress(StageAggregate, n, n)

	// Stage 4: stream the labeled corpus in bounded chunks. A record is
	// its sentence's head {"id":N,"text":"…", escaped once per engine
	// (Engine.RecordHeads), and a tail ,"label":L[,"prob":P]}\n that
	// depends only on the probability's bits given the spec, formatted once
	// per distinct probability. Together they are the bytes encoding/json
	// would write for the record.
	progress(StageWrite, 0, n)
	heads, ends := eng.RecordHeads(corp)
	tails := tailMemo{includeProb: sp.IncludeProb, byKey: make(map[uint64][]byte)}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	threshold := *sp.PosThreshold
	res := Result{Sentences: n, Rules: numRules, Covered: covered}
	for start := 0; start < n; start += sp.ChunkSize {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		end := start + sp.ChunkSize
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			label := 0
			if probs[i] > threshold {
				label = 1
				res.Positives++
			}
			tail, err := tails.tail(label, probs[i])
			if err == nil {
				headStart := 0
				if i > 0 {
					headStart = ends[i-1]
				}
				if _, err = bw.Write(heads[headStart:ends[i]]); err == nil {
					_, err = bw.Write(tail)
				}
			}
			if err != nil {
				return res, fmt.Errorf("autolabel: write sentence %d: %w", i, err)
			}
		}
		if err := bw.Flush(); err != nil {
			return res, fmt.Errorf("autolabel: flush output: %w", err)
		}
		progress(StageWrite, end, n)
	}
	res.OutputBytes = cw.n
	return res, nil
}

// tailMemo formats record tails (corpus.AppendRecordTail) for one run. A
// tail depends only on the label and, with probabilities, on the
// probability's bits, and the label is a function of the probability given
// the spec, so the key is the probability's bits (the label alone without
// probabilities). Up to tailMemoCap tails are kept; the last one served is
// checked first, since runs of uncovered sentences share one probability.
type tailMemo struct {
	includeProb bool
	byKey       map[uint64][]byte
	lastKey     uint64
	last        []byte // the memoized tail of lastKey, nil before the first
	scratch     []byte // tails formatted past the cap
}

// tail returns the tail of a record with the given label and probability.
// The result is valid until the next call. A non-finite probability is an
// error when probabilities are written.
func (tm *tailMemo) tail(label int, p float64) ([]byte, error) {
	key := uint64(label)
	if tm.includeProb {
		key = math.Float64bits(p)
	}
	if tm.last != nil && key == tm.lastKey {
		return tm.last, nil
	}
	if t, ok := tm.byKey[key]; ok {
		tm.lastKey, tm.last = key, t
		return t, nil
	}
	var prob *float64
	if tm.includeProb {
		prob = &p
	}
	t, err := corpus.AppendRecordTail(tm.scratch[:0], label, prob)
	tm.scratch = t
	if err != nil || len(tm.byKey) >= tailMemoCap {
		return t, err
	}
	t = append([]byte(nil), t...)
	tm.byKey[key] = t
	tm.lastKey, tm.last = key, t
	return t, nil
}

// countingWriter tracks bytes written through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
