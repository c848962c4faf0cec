package hierarchy

import (
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

var (
	genOnce sync.Once
	genIx   *index.Index
	genCorp *corpus.Corpus
	genErr  error
)

// genIndex builds (once) a TokensRegex index over the datagen directions
// corpus at half scale, the same corpus the core benchmarks use.
func genIndex(b *testing.B) *index.Index {
	b.Helper()
	genOnce.Do(func() {
		genCorp, genErr = datagen.ByName("directions", 0.5, 7)
		if genErr != nil {
			return
		}
		genCorp.Preprocess(corpus.PreprocessOptions{})
		reg := grammar.NewRegistry(tokensregex.New())
		genIx = index.Build(genCorp, sketch.NewBuilder(reg, 4))
		genIx.Prune(2)
	})
	if genErr != nil {
		b.Fatal(genErr)
	}
	return genIx
}

// benchPositives returns a positive set seeded from a common phrase.
func benchPositives(b *testing.B, ix *index.Index) bitset.Set {
	b.Helper()
	p := bitset.FromSorted(ix.Coverage("tokensregex:best way to")).Grow(genCorp.Len())
	if p.Count() == 0 {
		b.Fatal("empty benchmark positive set")
	}
	return p
}

// BenchmarkGenerateCandidates measures Algorithm 2 at the paper's 10K
// candidate count, the dominant per-step cost of the interactive loop.
func BenchmarkGenerateCandidates(b *testing.B) {
	ix := genIndex(b)
	p := benchPositives(b, ix)
	cfg := Config{NumCandidates: 10000, MaxRuleDepth: 8, MinCoverage: 2, Cleanup: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := GenerateCandidates(ix, p, cfg)
		if len(keys) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkGenerate measures the full hierarchy generation (candidates +
// cleanup + edge linking).
func BenchmarkGenerate(b *testing.B) {
	ix := genIndex(b)
	p := benchPositives(b, ix)
	cfg := Config{NumCandidates: 10000, MaxRuleDepth: 8, MinCoverage: 2, Cleanup: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := Generate(ix, p, cfg)
		if h.Len() == 0 {
			b.Fatal("empty hierarchy")
		}
	}
}

// BenchmarkLinkEdges isolates the edge-linking pass inside regeneration
// (nearest-ancestor resolution over the index's ordinal child and parent
// lists, then spelling the edges out as keys).
func BenchmarkLinkEdges(b *testing.B) {
	ix := genIndex(b)
	p := benchPositives(b, ix)
	cfg := Config{NumCandidates: 10000, MaxRuleDepth: 8, MinCoverage: 2, Cleanup: true}
	h := Generate(ix, p, cfg)
	nodes, keys := ix.NodesByOrd(), ix.Keys()
	members := make([]int32, len(h.list))
	at := make([]int32, len(nodes))
	for i, n := range h.list {
		members[i] = int32(ix.Node(n.Key).Ord())
		at[members[i]] = int32(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.link(nodes, keys, members, at)
	}
}
