package index

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/sketch"
)

// TestStaleEdgeReadsPanicInsteadOfMutating pins the read-path contract:
// Children/Parents on an unpublished index must fail loudly rather than
// lazily rebuild (the pre-fix lazy rebuild mutated shared state under the
// engine's read lock — a data race). Running several readers concurrently
// under -race is exactly the scenario that would have caught the old
// behavior: each lazy rebuild wrote the edge lists while the others read
// them.
func TestStaleEdgeReadsPanicInsteadOfMutating(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 3)
	ix := Build(c, b)

	// Materialize an ad-hoc rule without republishing: the index is stale.
	g := tokenRegistry()
	h, err := g.Parse("best way to get")
	if err != nil {
		t.Fatal(err)
	}
	ix.EnsureHeuristic(h, c)

	const readers = 4
	var wg sync.WaitGroup
	var panics int32
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					atomic.AddInt32(&panics, 1)
				}
			}()
			if w%2 == 0 {
				ix.Children(grammar.RootKey)
			} else {
				ix.Parents(h.Key())
			}
		}(w)
	}
	wg.Wait()
	if panics != readers {
		t.Fatalf("%d of %d stale readers panicked; stale edge reads must never mutate silently", panics, readers)
	}

	// Publishing restores read access, including for the new node.
	ix.BuildEdges()
	if len(ix.Children(grammar.RootKey)) == 0 {
		t.Fatal("no root children after republish")
	}
	if len(ix.Parents(h.Key())) == 0 {
		t.Fatal("materialized rule has no parents after republish")
	}
}

// referenceOverlap is the map-based |C_r ∩ P| scan the bitset kernels
// replaced, kept as their oracle.
func referenceOverlap(ix *Index, key string, p map[int]bool) int {
	n := 0
	for _, id := range ix.Coverage(key) {
		if p[id] {
			n++
		}
	}
	return n
}

// referenceNewCoverage is the map-based |C_r \ P| scan.
func referenceNewCoverage(ix *Index, key string, p map[int]bool) int {
	return len(ix.Coverage(key)) - referenceOverlap(ix, key, p)
}

// TestConcurrentReadsAfterPublish hammers every read accessor from many
// goroutines on a published index; under -race this proves the read paths
// are mutation-free.
func TestConcurrentReadsAfterPublish(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 4)
	ix := Build(c, b)
	keys := ix.Keys()
	pos := bitset.FromSorted([]int{0, 2, 4})
	posMap := map[int]bool{0: true, 2: true, 4: true}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				key := keys[rng.Intn(len(keys))]
				ix.Children(key)
				ix.Parents(key)
				ix.Coverage(key)
				ix.Bits(key)
				if got, want := ix.OverlapBits(key, pos), referenceOverlap(ix, key, posMap); got != want {
					t.Errorf("OverlapBits(%q) = %d, map path %d", key, got, want)
					return
				}
				if got, want := ix.NewCoverageBits(key, pos), referenceNewCoverage(ix, key, posMap); got != want {
					t.Errorf("NewCoverageBits(%q) = %d, map path %d", key, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestNodeBitsMatchPostings checks that every published node's bitset is an
// exact mirror of its sorted posting list.
func TestNodeBitsMatchPostings(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(fullRegistry(), 4)
	ix := Build(c, b)
	for _, key := range ix.Keys() {
		n := ix.Node(key)
		bits := n.Bits()
		if n.Count() == 0 {
			continue
		}
		if bits == nil {
			t.Fatalf("node %s has no bits after publish", key)
		}
		if bits.Count() != n.Count() {
			t.Fatalf("node %s: bits count %d != postings %d", key, bits.Count(), n.Count())
		}
		for _, id := range n.Postings {
			if !bits.Contains(id) {
				t.Fatalf("node %s: posting %d missing from bits", key, id)
			}
		}
	}
	// EnsureHeuristic materializes bits immediately.
	g := tokenRegistry()
	h, _ := g.Parse("best way to get to sfo")
	n := ix.EnsureHeuristic(h, c)
	if n.Count() > 0 && n.Bits() == nil {
		t.Fatal("EnsureHeuristic node has no bits")
	}
	ix.BuildEdges()
}

// TestVersionBumpsOnMutation checks the mutation counter sessions use to
// invalidate cached hierarchies.
func TestVersionBumpsOnMutation(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 3)
	ix := Build(c, b)
	v := ix.Version()
	ix.BuildEdges() // republish without mutation: version unchanged
	if ix.Version() != v {
		t.Errorf("BuildEdges changed the version: %d -> %d", v, ix.Version())
	}
	g := tokenRegistry()
	h, _ := g.Parse("best way to get")
	ix.EnsureHeuristic(h, c)
	if ix.Version() == v {
		t.Error("EnsureHeuristic did not bump the version")
	}
	ix.BuildEdges()
	v2 := ix.Version()
	ix.Prune(2)
	if ix.Version() == v2 {
		t.Error("Prune did not bump the version")
	}
}
