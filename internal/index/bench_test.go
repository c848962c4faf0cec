package index

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/sketch"
)

// BenchmarkIndexBuild measures building and pruning the index the way the
// engine does at boot (TokensRegex + TreeMatch sketches of depth 5, pruned
// at coverage 2) over the directions corpus at half scale. Besides time and
// allocation it reports the coverage bytes the built index holds per
// sentence.
func BenchmarkIndexBuild(b *testing.B) {
	c, err := datagen.ByName("directions", 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	c.Preprocess(corpus.PreprocessOptions{Parse: true})
	builder := sketch.NewBuilder(fullRegistry(), 5)
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for i := 0; i < b.N; i++ {
		ix = Build(c, builder)
		ix.Prune(2)
	}
	b.StopTimer()
	b.ReportMetric(float64(ix.CoverageBytes())/float64(c.Len()), "coverage-B/sentence")
}
