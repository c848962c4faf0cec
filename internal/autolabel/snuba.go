package autolabel

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snuba"
)

// SnubaRequest is the body of POST /v2/datasets/{ds}/baselines/snuba: mine a
// Snuba heuristic committee from a gold-labeled seed and score it corpus-wide
// — the paper's automatic baseline, one HTTP call. Seed selection is either
// explicit (SeedIDs) or deterministic sampling (SeedSize + Seed).
type SnubaRequest struct {
	// SeedIDs are the sentences whose gold labels form the labeled subset.
	// When empty, SeedSize sentences are sampled with Seed.
	SeedIDs []int `json:"seed_ids,omitempty"`
	// SeedSize is the number of seed sentences to sample (default 100).
	SeedSize int `json:"seed_size,omitempty"`
	// Seed is the sampling RNG seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// MaxRules / MaxPhraseLen / MinPrecision / MinSeedCoverage override the
	// miner's committee knobs (zero = snuba.DefaultConfig).
	MaxRules        int     `json:"max_rules,omitempty"`
	MaxPhraseLen    int     `json:"max_phrase_len,omitempty"`
	MinPrecision    float64 `json:"min_precision,omitempty"`
	MinSeedCoverage int     `json:"min_seed_coverage,omitempty"`
	// CompareRules, when set, scores this interactively discovered committee
	// (e.g. a labeler's accepted rules) on the same corpus so the response
	// carries the Snuba-vs-interactive comparison directly.
	CompareRules []string `json:"compare_rules,omitempty"`
}

// SnubaRule is one mined heuristic with its seed statistics.
type SnubaRule struct {
	// Rule is the heuristic's display form — a parseable rule spec usable in
	// a labeling-job Spec.
	Rule string `json:"rule"`
	// Key is the canonical rule key.
	Key string `json:"key"`
	// SeedPrecision / SeedRecall / SeedF1 are the miner's scores on the
	// labeled subset.
	SeedPrecision float64 `json:"seed_precision"`
	SeedRecall    float64 `json:"seed_recall"`
	SeedF1        float64 `json:"seed_f1"`
}

// CommitteeStats scores one rule committee's union coverage against the
// corpus gold labels.
type CommitteeStats struct {
	Rules     int     `json:"rules"`
	Covered   int     `json:"covered"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// SnubaResult is the response of the baseline endpoint.
type SnubaResult struct {
	Dataset   string      `json:"dataset"`
	Sentences int         `json:"sentences"`
	SeedSize  int         `json:"seed_size"`
	Rules     []SnubaRule `json:"rules"`
	// Snuba scores the mined committee corpus-wide against gold labels.
	Snuba CommitteeStats `json:"snuba"`
	// Compare scores the interactive committee from CompareRules (present
	// only when CompareRules was set).
	Compare *CommitteeStats `json:"compare,omitempty"`
}

// committeeStats computes precision/recall/F1 of a coverage set against the
// corpus gold labels. Compare rules resolve against the live index, which
// may cover sentences ingested after the view c was taken; only ids inside
// it count.
func committeeStats(c *corpus.Corpus, covered bitset.Set, rules int) CommitteeStats {
	st := CommitteeStats{Rules: rules}
	truePos := 0
	covered.Range(func(id int) bool {
		if id >= c.Len() {
			return false
		}
		st.Covered++
		if c.Sentence(id).Gold == corpus.Positive {
			truePos++
		}
		return true
	})
	if st.Covered > 0 {
		st.Precision = float64(truePos) / float64(st.Covered)
	}
	if np := c.NumPositives(); np > 0 {
		st.Recall = float64(truePos) / float64(np)
	}
	if st.Precision+st.Recall > 0 {
		st.F1 = 2 * st.Precision * st.Recall / (st.Precision + st.Recall)
	}
	return st
}

// RunSnuba mines a Snuba committee for the engine's corpus and scores it
// (and, optionally, an interactive committee) against the gold labels. The
// computation is synchronous and deterministic in (corpus, request).
func RunSnuba(eng *core.Engine, req SnubaRequest) (SnubaResult, error) {
	// Snapshot view: the mining passes below iterate the corpus outside the
	// engine locks, so a concurrent ingest must not grow it mid-run.
	c := eng.CorpusView()
	seedIDs := req.SeedIDs
	if len(seedIDs) == 0 {
		size := req.SeedSize
		if size <= 0 {
			size = 100
		}
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		seedIDs = c.SampleIDs(size, rand.New(rand.NewSource(seed)))
	}
	for _, id := range seedIDs {
		if c.Sentence(id) == nil {
			return SnubaResult{}, fmt.Errorf("%w: seed id %d out of range", ErrInvalidSpec, id)
		}
	}
	cfg := snuba.DefaultConfig()
	if req.MaxRules > 0 {
		cfg.MaxRules = req.MaxRules
	}
	if req.MaxPhraseLen > 0 {
		cfg.MaxPhraseLen = req.MaxPhraseLen
	}
	if req.MinPrecision > 0 {
		cfg.MinPrecision = req.MinPrecision
	}
	if req.MinSeedCoverage > 0 {
		cfg.MinSeedCoverage = req.MinSeedCoverage
	}
	mined := snuba.Run(c, seedIDs, cfg)

	res := SnubaResult{Dataset: "", Sentences: c.Len(), SeedSize: len(seedIDs)}
	minedUnion := bitset.New(c.Len())
	for _, r := range mined.Rules {
		res.Rules = append(res.Rules, SnubaRule{
			Rule:          r.Heuristic.String(),
			Key:           r.Heuristic.Key(),
			SeedPrecision: r.SeedPrecision,
			SeedRecall:    r.SeedRecall,
			SeedF1:        r.SeedF1,
		})
	}
	minedUnion = bitset.Union(minedUnion, bitset.FromMap(mined.Coverage))
	res.Snuba = committeeStats(c, minedUnion, len(mined.Rules))

	if len(req.CompareRules) > 0 {
		// Deduplicate by canonical key so a committee listed twice doesn't
		// change anything.
		seen := map[string]bool{}
		union := bitset.New(c.Len())
		rules := 0
		specs := append([]string(nil), req.CompareRules...)
		sort.Strings(specs)
		for _, spec := range specs {
			key, bits, err := eng.CoverageBits(spec)
			if err != nil {
				return SnubaResult{}, fmt.Errorf("%w: compare rule: %v", ErrInvalidSpec, err)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			rules++
			union = bits.OrInto(union)
		}
		cs := committeeStats(c, union, rules)
		res.Compare = &cs
	}
	return res, nil
}
