package main

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

// scaleMinMemoryReduction is the scale experiment's guard, enforced with a
// non-zero exit so CI fails when the adaptive kernel regresses: per-node
// coverage must cost at most half of its dense-bitset equivalent on the
// million-sentence sparse-rule corpus — sparse rules must not pay dense
// cost.
const scaleMinMemoryReduction = 0.50

// ScalePerf is the million-sentence snapshot written to BENCH_perf.json's
// "scale" section: the index's coverage memory against what the same sets
// would cost as dense bitsets.
type ScalePerf struct {
	// Professions at 1M sentences (1.1% positive).
	Dataset          string  `json:"dataset"`
	Sentences        int     `json:"sentences"`
	IndexBuildMillis float64 `json:"index_build_ms"`
	IndexNodes       int     `json:"index_nodes"`

	AdaptiveCoverageBytes int `json:"adaptive_coverage_bytes"`
	// DenseCoverageBytes is what every node's set would cost as a dense
	// bitset sized to its largest id.
	DenseCoverageBytes       int     `json:"dense_coverage_bytes"`
	AdaptiveBytesPerSentence float64 `json:"adaptive_bytes_per_sentence"`
	DenseBytesPerSentence    float64 `json:"dense_bytes_per_sentence"`
	// MemoryReduction is 1 - adaptive/dense; MinMemoryReduction is the CI
	// floor it must clear.
	MemoryReduction    float64 `json:"memory_reduction"`
	MinMemoryReduction float64 `json:"min_memory_reduction"`

	ArrayContainers  int `json:"array_containers"`
	BitmapContainers int `json:"bitmap_containers"`
}

// runScale measures the adaptive coverage kernel at the paper's 1M-sentence
// scale and merges the numbers into BENCH_perf.json.
func runScale(perfPath string) error {
	header("Scale: adaptive coverage kernel vs dense bitsets at 1M sentences -> " + perfPath)

	// Professions reaches the paper's 1M sentences at scale 10.
	const (
		memDataset = "professions"
		memScale   = 10.0
		memSeed    = 7
	)
	c, err := datagen.ByName(memDataset, memScale, memSeed)
	if err != nil {
		return err
	}
	c.Preprocess(corpus.PreprocessOptions{})
	cfg := perfConfig()
	buildStart := time.Now()
	ix := index.Build(c, sketch.NewBuilder(grammar.NewRegistry(tokensregex.New()), cfg.SketchDepth))
	ix.Prune(cfg.MinRuleCoverage)
	build := time.Since(buildStart)

	adaptiveBytes := ix.CoverageBytes()
	arrays, bitmaps := ix.ContainerStats()
	// The dense equivalent is materialized one node at a time, so the
	// measurement never holds more than one node's dense set.
	denseBytes := 0
	for _, key := range ix.Keys() {
		denseBytes += 8 * len(ix.Node(key).Bits().OrInto(nil))
	}
	if denseBytes == 0 {
		return fmt.Errorf("scale: dense equivalent is zero bytes")
	}
	reduction := 1 - float64(adaptiveBytes)/float64(denseBytes)

	perf := &ScalePerf{
		Dataset:                  memDataset,
		Sentences:                c.Len(),
		IndexBuildMillis:         float64(build) / float64(time.Millisecond),
		IndexNodes:               ix.Len(),
		AdaptiveCoverageBytes:    adaptiveBytes,
		DenseCoverageBytes:       denseBytes,
		AdaptiveBytesPerSentence: float64(adaptiveBytes) / float64(c.Len()),
		DenseBytesPerSentence:    float64(denseBytes) / float64(c.Len()),
		MemoryReduction:          reduction,
		MinMemoryReduction:       scaleMinMemoryReduction,
		ArrayContainers:          arrays,
		BitmapContainers:         bitmaps,
	}
	if err := updatePerfReport(perfPath, func(r *PerfReport) { r.ScaleSection = perf }); err != nil {
		return err
	}
	fmt.Printf("sentences=%d nodes=%d index_build=%.0fms\n", perf.Sentences, perf.IndexNodes, perf.IndexBuildMillis)
	fmt.Printf("coverage bytes: dense=%d (%.1f B/sentence)  adaptive=%d (%.1f B/sentence)  reduction=%.1f%% (floor %.0f%%)\n",
		denseBytes, perf.DenseBytesPerSentence, adaptiveBytes, perf.AdaptiveBytesPerSentence,
		reduction*100, scaleMinMemoryReduction*100)
	fmt.Printf("containers: array=%d bitmap=%d\n", arrays, bitmaps)

	if reduction < scaleMinMemoryReduction {
		return fmt.Errorf("scale: adaptive kernel saves only %.1f%% of dense coverage memory, floor is %.0f%%",
			reduction*100, scaleMinMemoryReduction*100)
	}
	return nil
}
