package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/autolabel"
	"repro/internal/core"
	"repro/internal/datagen"
)

// autolabelFloorPerSec is the corpus-scale labeling throughput guard: the
// batch pipeline (rule resolution + vote matrix + aggregation + JSONL write)
// must sustain at least one million sentences per minute on the full-scale
// directions corpus, or the run fails (non-zero exit in CI).
const autolabelFloorPerSec = 1_000_000.0 / 60

// e2eJobs is how many jobs the end-to-end job latency is the median of,
// after one warm-up job that also builds the engine's record-head arena.
const e2eJobs = 9

// AutolabelPerf tracks the batch labeling pipeline: whole-pipeline
// throughput (resolve + vote matrix + aggregate + JSONL write) on the
// full-scale directions corpus, and the median end-to-end latency of
// E2EJobs warm jobs through the async Manager.
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
	E2EJobs           int     `json:"e2e_jobs"`
	OutputBytesPerRun int64   `json:"output_bytes_per_run"`
}

// runAutolabel measures the corpus-scale auto-labeling pipeline and merges
// the numbers into BENCH_perf.json. Two quantities are tracked: raw pipeline
// throughput (repeated in-process autolabel.Run rounds over the full-scale
// directions corpus, output to io.Discard) and the median end-to-end latency
// of e2eJobs jobs through the async Manager (journal append, queue, worker,
// partial rename) — the tax of the job machinery over the raw pipeline.
func runAutolabel(perfPath string) error {
	header("Autolabel: corpus-scale labeling throughput -> " + perfPath)
	const (
		dataset = "directions"
		scale   = 1.0
		seed    = 7
	)
	c, err := datagen.ByName(dataset, scale, seed)
	if err != nil {
		return err
	}
	engine, err := core.New(c, perfConfig())
	if err != nil {
		return err
	}

	// The committee is mined by the Snuba baseline from a gold seed — the
	// same deterministic committee every run, and the honest input shape
	// (the production path labels with a mined or interactively accepted
	// rule set, not hand phrases).
	mined, err := autolabel.RunSnuba(engine, autolabel.SnubaRequest{
		SeedSize: 500, Seed: 1, MinPrecision: 0.6, MaxRules: 10,
	})
	if err != nil {
		return err
	}
	rules := make([]string, 0, len(mined.Rules))
	for _, r := range mined.Rules {
		rules = append(rules, r.Rule)
	}
	if len(rules) == 0 {
		return fmt.Errorf("autolabel: snuba mined no rules to benchmark with")
	}
	spec := autolabel.Spec{Rules: rules, Aggregator: autolabel.AggregatorGenerative}

	// Warm once (feature/coverage caches), then measure whole-pipeline
	// rounds until enough wall clock has accumulated to be stable.
	if _, err := autolabel.Run(context.Background(), engine, spec, io.Discard, nil); err != nil {
		return err
	}
	const minElapsed = 500 * time.Millisecond
	rounds, labeled := 0, 0
	measureStart := time.Now()
	for time.Since(measureStart) < minElapsed {
		res, err := autolabel.Run(context.Background(), engine, spec, io.Discard, nil)
		if err != nil {
			return err
		}
		rounds++
		labeled += res.Sentences
	}
	elapsed := time.Since(measureStart)
	perSec := float64(labeled) / elapsed.Seconds()

	// End-to-end job latency through the async Manager.
	jobsDir, err := os.MkdirTemp("", "benchrunner-autolabel-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jobsDir)
	mgr, err := autolabel.NewManager(autolabel.ManagerConfig{Dir: jobsDir},
		func(name string) (*core.Engine, bool) {
			if name == dataset {
				return engine, true
			}
			return nil, false
		})
	if err != nil {
		return err
	}
	defer mgr.Close()
	runJob := func() (autolabel.JobStatus, time.Duration, error) {
		start := time.Now()
		st, err := mgr.Submit(dataset, spec)
		if err != nil {
			return st, 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if st, err = mgr.Wait(ctx, st.ID); err != nil {
			return st, 0, err
		}
		if st.State != autolabel.StateDone {
			return st, 0, fmt.Errorf("autolabel: benchmark job ended %s: %s", st.State, st.Error)
		}
		return st, time.Since(start), nil
	}
	st, _, err := runJob()
	if err != nil {
		return err
	}
	e2es := make([]time.Duration, e2eJobs)
	for i := range e2es {
		if st, e2es[i], err = runJob(); err != nil {
			return err
		}
	}
	slices.Sort(e2es)
	e2e := e2es[len(e2es)/2]

	perf := &AutolabelPerf{
		Dataset:           dataset,
		Sentences:         c.Len(),
		Rules:             len(rules),
		Rounds:            rounds,
		SentencesPerSec:   perSec,
		E2EJobMillis:      float64(e2e) / float64(time.Millisecond),
		E2EJobs:           e2eJobs,
		FloorPerSec:       autolabelFloorPerSec,
		OutputBytesPerRun: st.OutputBytes,
	}
	if err := updatePerfReport(perfPath, func(r *PerfReport) { r.Autolabel = perf }); err != nil {
		return err
	}
	fmt.Printf("sentences=%d rules=%d rounds=%d throughput=%.0f sentences/sec (%.1fM/min, floor %.0f/sec) e2e job=%.1fms (median of %d jobs after a warm-up job) output=%dB\n",
		perf.Sentences, perf.Rules, perf.Rounds, perSec, perSec*60/1e6, autolabelFloorPerSec,
		perf.E2EJobMillis, e2eJobs, perf.OutputBytesPerRun)
	if perSec < autolabelFloorPerSec {
		return fmt.Errorf("autolabel: throughput %.0f sentences/sec below the %.0f/sec floor (1M/minute)",
			perSec, autolabelFloorPerSec)
	}
	return nil
}
