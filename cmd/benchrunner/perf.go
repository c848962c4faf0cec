package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/tokensregex"
)

// PerfReport is the machine-readable performance snapshot written to
// BENCH_perf.json so the interactive hot path's trajectory is tracked across
// PRs. Baseline holds the pre-bitset-kernel numbers (PR 2's starting point,
// measured with the identical scenario on the same corpus); Current is
// re-measured on every run.
type PerfReport struct {
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"corpus_scale"`
	Sentences int     `json:"sentences"`

	Current  PerfNumbers `json:"current"`
	Baseline PerfNumbers `json:"baseline_pre_pr2"`

	// Autolabel is the corpus-scale auto-labeling snapshot, owned by the
	// autolabel experiment (runAutolabel) and carried through rewrites here.
	Autolabel *AutolabelPerf `json:"autolabel,omitempty"`
	// ScaleSection is the million-sentence kernel snapshot, owned by the
	// scale experiment (runScale) and likewise carried through rewrites.
	ScaleSection *ScalePerf `json:"scale,omitempty"`
}

// AutolabelPerf tracks the batch labeling pipeline: whole-pipeline
// throughput (resolve + vote matrix + aggregate + JSONL write) on the
// full-scale directions corpus, and the end-to-end latency of one job
// through the async Manager.
type AutolabelPerf struct {
	Dataset   string `json:"dataset"`
	Sentences int    `json:"sentences"`
	Rules     int    `json:"rules"`
	Rounds    int    `json:"rounds"`
	// SentencesPerSec is labeled sentences per second across the measured
	// rounds; FloorPerSec is the CI guard it must clear (1M/minute).
	SentencesPerSec   float64 `json:"sentences_per_sec"`
	FloorPerSec       float64 `json:"floor_per_sec"`
	E2EJobMillis      float64 `json:"e2e_job_ms"`
	OutputBytesPerRun int64   `json:"output_bytes_per_run"`
}

// PerfNumbers are the tracked quantities.
type PerfNumbers struct {
	// IndexBuildMillis is corpus preprocessing + sketch index construction.
	IndexBuildMillis float64 `json:"index_build_ms"`
	// Step latencies over the scripted reject-heavy interactive session
	// (one accept per seven questions), in milliseconds.
	StepP50Millis  float64 `json:"step_p50_ms"`
	StepP95Millis  float64 `json:"step_p95_ms"`
	StepMeanMillis float64 `json:"step_mean_ms"`
	Steps          int     `json:"steps"`
	// CandidatesPerSec is Algorithm 2 throughput at the paper's 10K
	// candidate count.
	CandidatesPerSec float64 `json:"candidates_per_sec"`
	// HierarchyGenerations over the scripted session (with incremental
	// reuse this tracks positive-set changes, not questions).
	HierarchyGenerations int `json:"hierarchy_generations"`
}

// baselinePrePR2 is the committed pre-change baseline, measured at commit
// bde5f40 (map-based coverage scans, hierarchy regenerated on every Next)
// with the same corpus, configuration and scripted session as runPerf.
var baselinePrePR2 = PerfNumbers{
	IndexBuildMillis:     213.2,
	StepP50Millis:        9.74,
	StepP95Millis:        17.66,
	StepMeanMillis:       10.43,
	Steps:                60,
	CandidatesPerSec:     374591,
	HierarchyGenerations: 60,
}

// perfConfig mirrors the interactive serving configuration used by the root
// benchmarks (BenchmarkSessionNext).
func perfConfig() core.Config {
	return core.Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    8,
		NumCandidates:   10000,
		MinRuleCoverage: 2,
		Budget:          1 << 30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 6, LearningRate: 0.3, Seed: 1},
		Seed:            1,
	}
}

// runPerf measures the interactive hot path and writes BENCH_perf.json.
func runPerf(outPath string) error {
	header("Perf: interactive hot-path snapshot -> " + outPath)
	const (
		dataset = "directions"
		scale   = 0.5
		steps   = 60
	)
	c, err := datagen.ByName(dataset, scale, 7)
	if err != nil {
		return err
	}

	buildStart := time.Now()
	engine, err := core.New(c, perfConfig())
	if err != nil {
		return err
	}
	indexBuild := time.Since(buildStart)

	// Scripted reject-heavy session: one accept per seven questions.
	sess, err := engine.NewSession(core.SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 1 << 30})
	if err != nil {
		return err
	}
	lat := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		stepStart := time.Now()
		sug, ok := sess.Next()
		if !ok {
			break
		}
		lat = append(lat, float64(time.Since(stepStart))/float64(time.Millisecond))
		if _, err := sess.Answer(sug.Key, i%7 == 0); err != nil {
			return err
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("perf: scripted session produced no steps")
	}
	mean := 0.0
	for _, v := range lat {
		mean += v
	}
	mean /= float64(len(lat))
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)

	// Candidate-generation throughput at the paper's 10K.
	_, seedCov, err := engine.MaterializeRule("best way to")
	if err != nil {
		return err
	}
	positives := bitset.FromSorted(seedCov)
	hcfg := hierarchy.Config{NumCandidates: 10000, MaxRuleDepth: 8, MinCoverage: 2, Cleanup: true}
	const genRounds = 5
	genStart := time.Now()
	generated := 0
	for i := 0; i < genRounds; i++ {
		generated += len(hierarchy.GenerateCandidates(engine.Index(), positives, hcfg))
	}
	genDur := time.Since(genStart)

	rep := PerfReport{
		Dataset:   dataset,
		Scale:     scale,
		Sentences: c.Len(),
		Current: PerfNumbers{
			IndexBuildMillis:     float64(indexBuild) / float64(time.Millisecond),
			StepP50Millis:        percentile(sorted, 0.50),
			StepP95Millis:        percentile(sorted, 0.95),
			StepMeanMillis:       mean,
			Steps:                len(lat),
			CandidatesPerSec:     float64(generated) / genDur.Seconds(),
			HierarchyGenerations: sess.HierarchyGenerations(),
		},
		Baseline: baselinePrePR2,
	}
	// Keep the other experiments' sections across rewrites of the file.
	if prev, err := readPerfReport(outPath); err == nil {
		rep.Autolabel = prev.Autolabel
		rep.ScaleSection = prev.ScaleSection
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sentences=%d index_build=%.0fms step p50=%.2fms p95=%.2fms mean=%.2fms (%d steps, %d hierarchy generations) candidates/sec=%.0f\n",
		rep.Sentences, rep.Current.IndexBuildMillis, rep.Current.StepP50Millis, rep.Current.StepP95Millis,
		rep.Current.StepMeanMillis, rep.Current.Steps, rep.Current.HierarchyGenerations, rep.Current.CandidatesPerSec)
	fmt.Printf("baseline (pre-PR2): step p50=%.2fms mean=%.2fms, %d hierarchy generations\n",
		rep.Baseline.StepP50Millis, rep.Baseline.StepMeanMillis, rep.Baseline.HierarchyGenerations)
	return nil
}

// percentile returns the p-quantile of an ascending slice (nearest-rank:
// the ceil(p*n)-th smallest value).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
