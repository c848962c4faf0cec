package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/obs"
	"repro/internal/tokensregex"
)

// overheadBudget is the instrumentation-cost guard: with telemetry enabled
// the scripted session's mean step must stay within 5% of the disabled run,
// plus a small absolute floor so sub-millisecond steps don't fail on noise.
const (
	overheadRelBudget      = 0.05
	overheadAbsFloorMillis = 0.25
)

// runOverhead measures the telemetry tax on the interactive hot path: a
// scripted session A/B'd with the obs registry disabled and enabled on the
// same engine in the same process. Fails (non-zero exit in CI) when the
// enabled mean exceeds the budget above.
func runOverhead() error {
	header("Overhead: telemetry A/B on the suggest step")
	const (
		dataset = "directions"
		scale   = 0.5
		steps   = 60
	)
	c, err := datagen.ByName(dataset, scale, 7)
	if err != nil {
		return err
	}
	engine, err := core.New(c, perfConfig())
	if err != nil {
		return err
	}

	// Warm up once (feature cache, page cache) so neither arm pays the
	// first-run cost, then measure disabled and enabled runs of the
	// identical deterministic session.
	defer obs.SetEnabled(true)
	if _, _, err := scriptedSession(engine, steps); err != nil {
		return err
	}
	obs.SetEnabled(false)
	offMean, offP95, err := scriptedSession(engine, steps)
	if err != nil {
		return err
	}
	obs.SetEnabled(true)
	onMean, onP95, err := scriptedSession(engine, steps)
	if err != nil {
		return err
	}

	budget := offMean*(1+overheadRelBudget) + overheadAbsFloorMillis
	fmt.Printf("step mean: disabled=%.3fms enabled=%.3fms (budget %.3fms)  p95: disabled=%.3fms enabled=%.3fms\n",
		offMean, onMean, budget, offP95, onP95)
	if onMean > budget {
		return fmt.Errorf("overhead: instrumented step mean %.3fms exceeds %.3fms (disabled %.3fms + %.0f%% + %.2fms)",
			onMean, budget, offMean, overheadRelBudget*100, overheadAbsFloorMillis)
	}
	return nil
}

// scriptedSession runs a reject-heavy scripted session (one accept
// per seven questions) and returns the step mean and p95 in milliseconds.
func scriptedSession(engine *core.Engine, steps int) (mean, p95 float64, err error) {
	sess, err := engine.NewSession(core.SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 1 << 30})
	if err != nil {
		return 0, 0, err
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
			return 0, 0, err
		}
	}
	if len(lat) == 0 {
		return 0, 0, fmt.Errorf("overhead: scripted session produced no steps")
	}
	for _, v := range lat {
		mean += v
	}
	mean /= float64(len(lat))
	sort.Float64s(lat)
	return mean, percentile(lat, 0.95), nil
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
