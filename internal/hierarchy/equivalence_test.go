package hierarchy

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

// This file keeps the string-keyed regeneration — Algorithm 2 over a
// key-ordered container/heap with two membership maps, and edge linking over
// key lists with a map-based nearest-ancestor BFS — as the oracle the
// ordinal implementation must match node for node and edge for edge.

// keyCand is a candidate identified by its key.
type keyCand struct {
	key     string
	overlap int
	total   int
}

// keyCandHeap is a max-heap of candidates ordered by (overlap, total, key).
type keyCandHeap []keyCand

func (h keyCandHeap) Len() int { return len(h) }
func (h keyCandHeap) Less(i, j int) bool {
	if h[i].overlap != h[j].overlap {
		return h[i].overlap > h[j].overlap
	}
	if h[i].total != h[j].total {
		return h[i].total > h[j].total
	}
	return h[i].key < h[j].key
}
func (h keyCandHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *keyCandHeap) Push(x any)   { *h = append(*h, x.(keyCand)) }
func (h *keyCandHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// referenceGenerateCandidates is Algorithm 2 on keys.
func referenceGenerateCandidates(ix *index.Index, positives bitset.Set, cfg Config) []string {
	k := cfg.NumCandidates
	if k <= 0 {
		k = 10000
	}
	selected := make([]string, 0, k)
	inSelected := map[string]bool{grammar.RootKey: true}
	inCandidates := map[string]bool{}
	candidates := &keyCandHeap{}
	heap.Init(candidates)
	eligible := func(key string) bool {
		if inSelected[key] || inCandidates[key] {
			return false
		}
		n := ix.Node(key)
		if n == nil {
			return false
		}
		if cfg.MaxRuleDepth > 0 && n.Heuristic.Depth() > cfg.MaxRuleDepth {
			return false
		}
		if cfg.MinCoverage > 0 && n.Count() < cfg.MinCoverage {
			return false
		}
		return true
	}
	recent := grammar.RootKey
	for len(selected) < k {
		for _, ck := range ix.Children(recent) {
			if eligible(ck) {
				inCandidates[ck] = true
				heap.Push(candidates, keyCand{key: ck, overlap: ix.OverlapBits(ck, positives), total: ix.Count(ck)})
			}
		}
		if candidates.Len() == 0 {
			break
		}
		best := heap.Pop(candidates).(keyCand)
		delete(inCandidates, best.key)
		inSelected[best.key] = true
		selected = append(selected, best.key)
		recent = best.key
	}
	return selected
}

// referenceBuild arranges candidate keys with the string linker. It returns
// the hierarchy and how many nodes needed the nearest-ancestor BFS.
func referenceBuild(ix *index.Index, candidateKeys []string, positives bitset.Set, cfg Config) (*Hierarchy, int) {
	h := &Hierarchy{nodes: make(map[string]*Node, len(candidateKeys)+1)}
	add := func(n *index.Node) {
		if !h.Contains(n.Key()) {
			h.insert(&Node{Key: n.Key(), Heuristic: n.Heuristic, Coverage: n.Postings, Bits: n.Bits()})
		}
	}
	add(ix.Root())
	cleanup := cfg.Cleanup && positives.Count() > 0
	for _, key := range candidateKeys {
		n := ix.Node(key)
		if n == nil {
			continue
		}
		if cleanup && ix.NewCoverageBits(key, positives) == 0 {
			continue
		}
		add(n)
	}
	return h, referenceLinkEdges(h, ix)
}

// referenceLinkEdges is edge linking on keys: direct edges off the index's
// child lists, root edges from the sorted index parent lists, and the
// nearest-ancestor BFS for nodes left parentless. It returns the number of
// BFS runs.
func referenceLinkEdges(h *Hierarchy, ix *index.Index) int {
	for _, n := range h.nodes {
		n.Parents = n.Parents[:0]
		n.Children = n.Children[:0]
	}
	for _, key := range h.Keys() {
		if key == grammar.RootKey {
			continue
		}
		n := h.nodes[key]
		for _, ck := range ix.Children(key) {
			if ck == key {
				continue
			}
			if cn, ok := h.nodes[ck]; ok {
				n.Children = append(n.Children, ck)
				cn.Parents = append(cn.Parents, key)
			}
		}
	}
	root := h.nodes[grammar.RootKey]
	bfsRuns := 0
	for _, key := range h.Keys() {
		if key == grammar.RootKey {
			continue
		}
		n := h.nodes[key]
		parents := ix.Parents(key)
		if i := sort.SearchStrings(parents, grammar.RootKey); i < len(parents) && parents[i] == grammar.RootKey {
			n.Parents = append(n.Parents, grammar.RootKey)
			root.Children = append(root.Children, key)
			continue
		}
		if len(n.Parents) > 0 {
			continue
		}
		bfsRuns++
		for _, pk := range referenceBFSAncestors(h, key, parents, ix) {
			p := h.nodes[pk]
			p.Children = append(p.Children, key)
			n.Parents = append(n.Parents, pk)
		}
	}
	for _, n := range h.nodes {
		sort.Strings(n.Parents)
		n.Parents = dedupSorted(n.Parents)
		sort.Strings(n.Children)
		n.Children = dedupSorted(n.Children)
	}
	return bfsRuns
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i > 0 && x == xs[i-1] {
			continue
		}
		out = append(out, x)
	}
	return out
}

// referenceBFSAncestors walks up the index's parent edges from key, level by
// level, and returns the nearest materialized ancestors (the root if none).
func referenceBFSAncestors(h *Hierarchy, key string, parents []string, ix *index.Index) []string {
	visited := map[string]bool{key: true}
	found := map[string]bool{}
	frontier := append([]string(nil), parents...)
	for len(frontier) > 0 && len(found) == 0 {
		var next []string
		for _, pk := range frontier {
			if visited[pk] {
				continue
			}
			visited[pk] = true
			if pk != key && h.Contains(pk) {
				found[pk] = true
				continue
			}
			next = append(next, ix.Parents(pk)...)
		}
		frontier = next
	}
	if len(found) == 0 {
		return []string{grammar.RootKey}
	}
	out := make([]string, 0, len(found))
	for k := range found {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// assertSameHierarchy fails unless got and want hold the same nodes in the
// same order with identical edge lists.
func assertSameHierarchy(t *testing.T, label string, got, want *Hierarchy) {
	t.Helper()
	if !reflect.DeepEqual(got.Keys(), want.Keys()) {
		t.Fatalf("%s: node order diverges\n got: %v\nwant: %v", label, got.Keys(), want.Keys())
	}
	if !reflect.DeepEqual(got.NonRootKeys(), want.NonRootKeys()) {
		t.Fatalf("%s: NonRootKeys diverge", label)
	}
	for _, key := range want.Keys() {
		a, b := got.Node(key), want.Node(key)
		if !reflect.DeepEqual(a.Parents, b.Parents) {
			t.Fatalf("%s: parents of %q diverge\n got: %q\nwant: %q", label, key, a.Parents, b.Parents)
		}
		if !reflect.DeepEqual(a.Children, b.Children) {
			t.Fatalf("%s: children of %q diverge\n got: %q\nwant: %q", label, key, a.Children, b.Children)
		}
		if !reflect.DeepEqual(a.Coverage, b.Coverage) || a.Heuristic.Key() != b.Heuristic.Key() {
			t.Fatalf("%s: node %q diverges", label, key)
		}
	}
}

var equivTexts = []string{
	"what is the best way to get to the airport",
	"is there a shuttle to the hotel from the airport",
	"what is the best way to order food tonight",
	"can i get a pizza to my room right now",
	"the best way to check in there is online",
	"is uber the fastest way to get downtown",
	"would uber eats be the fastest way to order",
	"the shuttle to the airport leaves at nine",
	"what is the fastest way to get to the station",
	"can i order sushi to the conference room",
}

// grownTexts introduce words the equivTexts corpus lacks, so ingesting them
// adds index nodes and renumbers the ordinals.
var grownTexts = []string{
	"a ferry to the island leaves at noon",
	"what is the best way to get to the ferry",
	"an airport shuttle to the island hotel",
	"can i order breakfast to the island room",
}

func equivCorpus() *corpus.Corpus {
	c := corpus.New("equiv", "t")
	for i := 0; i < 12; i++ {
		for _, txt := range equivTexts {
			c.Add(txt, corpus.Negative)
		}
	}
	c.Preprocess(corpus.PreprocessOptions{})
	return c
}

// equivIndexes returns the three index shapes the ordinal regeneration must
// handle, with the corpus each one covers.
func equivIndexes(t *testing.T) []struct {
	name string
	c    *corpus.Corpus
	ix   *index.Index
} {
	t.Helper()
	reg := grammar.NewRegistry(tokensregex.New())
	b := sketch.NewBuilder(reg, 4)

	fresh := equivCorpus()
	freshIx := index.Build(fresh, b)
	freshIx.Prune(2)

	// Grown: index a prefix, publish, then ingest the rest sentence by
	// sentence, as live ingest does.
	grown := equivCorpus()
	for i := 0; i < 6; i++ {
		for _, txt := range grownTexts {
			grown.Add(txt, corpus.Negative)
		}
	}
	grown.Preprocess(corpus.PreprocessOptions{})
	grownIx := index.New()
	boot := len(equivTexts) * 12
	for id := 0; id < boot; id++ {
		grownIx.AddSketch(b.Build(grown.Sentence(id)))
	}
	grownIx.BuildEdges()
	before := map[string]int{}
	for _, key := range grownIx.Keys() {
		before[key] = grownIx.Node(key).Ord()
	}
	for id := boot; id < grown.Len(); id++ {
		s := grown.Sentence(id)
		grownIx.AddSentence(b.Build(s), s)
	}
	grownIx.BuildEdges()
	renumbered := false
	for key, ord := range before {
		if grownIx.Node(key).Ord() != ord {
			renumbered = true
		}
	}
	if !renumbered {
		t.Fatal("ingest did not renumber any ordinal")
	}

	// Ad hoc: seed-rule nodes materialized by corpus scan.
	adhoc := equivCorpus()
	adhocIx := index.Build(adhoc, b)
	for _, spec := range []string{"fastest way to get", "best way to get to the", "shuttle to the airport leaves"} {
		h, err := reg.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		adhocIx.EnsureHeuristic(h, adhoc)
	}
	adhocIx.BuildEdges()

	return []struct {
		name string
		c    *corpus.Corpus
		ix   *index.Index
	}{{"fresh", fresh, freshIx}, {"grown", grown, grownIx}, {"adhoc", adhoc, adhocIx}}
}

// TestGenerateCandidatesMatchesReference checks Algorithm 2, cleanup and edge
// linking on ordinals against the string-keyed oracle: the same candidate
// sequence, the same node order and the same parents and children, across
// random positive sets on a fresh, an ingest-grown and an ad-hoc-extended
// index. Random candidate subsets force the nearest-ancestor BFS fallback.
func TestGenerateCandidatesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range equivIndexes(t) {
		ix := tc.ix
		bfsRuns, ancestorEdges := 0, 0
		for trial := 0; trial < 10; trial++ {
			positives := map[int]bool{}
			for i := 0; i < trial*5; i++ {
				positives[rng.Intn(tc.c.Len())] = true
			}
			pos := bitset.FromMap(positives)
			cfg := Config{NumCandidates: 20 + trial*40, MaxRuleDepth: 6, MinCoverage: 2, Cleanup: true, Workers: 1 + trial%3}

			want := referenceGenerateCandidates(ix, pos, cfg)
			got := GenerateCandidates(ix, pos, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: candidates diverge\n got: %v\nwant: %v", tc.name, trial, got, want)
			}
			hWant, _ := referenceBuild(ix, want, pos, cfg)
			assertSameHierarchy(t, tc.name+" Generate", Generate(ix, pos, cfg), hWant)
			assertSameHierarchy(t, tc.name+" Build", Build(ix, want, pos, cfg), hWant)

			// A random subset of the index, root and duplicates included,
			// leaves many nodes without a materialized direct parent.
			var subset []string
			for _, key := range ix.Keys() {
				if rng.Intn(3) == 0 {
					subset = append(subset, key)
				}
			}
			subset = append(subset, grammar.RootKey, "no such key")
			if len(subset) > 2 {
				subset = append(subset, subset[0])
			}
			noClean := Config{}
			hWant, runs := referenceBuild(ix, subset, pos, noClean)
			bfsRuns += runs
			hGot := Build(ix, subset, pos, noClean)
			assertSameHierarchy(t, tc.name+" subset", hGot, hWant)
			hGot.LinkEdges(ix)
			assertSameHierarchy(t, tc.name+" relinked subset", hGot, hWant)
			// A parent that is not a direct index parent can only come from
			// the fallback.
			for _, key := range hGot.NonRootKeys() {
				if !isSubset(hGot.Node(key).Parents, ix.Parents(key)) {
					ancestorEdges++
				}
			}
		}
		if bfsRuns == 0 || ancestorEdges == 0 {
			t.Fatalf("%s: no candidate list exercised the nearest-ancestor fallback (oracle BFS runs %d, ancestor edges %d)", tc.name, bfsRuns, ancestorEdges)
		}
	}
}

func isSubset(xs, of []string) bool {
	for _, x := range xs {
		i := sort.SearchStrings(of, x)
		if i == len(of) || of[i] != x {
			return false
		}
	}
	return true
}

// TestLinkEdgesHandAddedNodes checks that nodes the index does not hold
// hang off the root, in key order among the root's other children.
func TestLinkEdgesHandAddedNodes(t *testing.T) {
	c := equivCorpus()
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 3))
	cfg := Config{NumCandidates: 40, MinCoverage: 2}
	h := Generate(ix, nil, cfg)
	want, _ := referenceBuild(ix, GenerateCandidates(ix, nil, cfg), nil, cfg)
	for _, spec := range []string{"zzz never seen", "aaa never seen", "best way to get to the"} {
		heur, err := reg.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		h.Add(heur, []int{1})
		want.Add(heur, []int{1})
	}
	h.LinkEdges(ix)
	referenceLinkEdges(want, ix)
	assertSameHierarchy(t, "hand-added", h, want)
}

// TestScoreBatchParallelDeterminism checks that the worker pool scores a
// batch identically to the serial path, regardless of worker count.
func TestScoreBatchParallelDeterminism(t *testing.T) {
	c := equivCorpus()
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 4))
	nodes := ix.NodesByOrd()
	// Tile the ordinals well past the parallel threshold.
	ords := make([]int32, 0, scoreParallelThreshold*2)
	for len(ords) < scoreParallelThreshold*2 {
		for o := range nodes {
			ords = append(ords, int32(o))
		}
	}
	pos := bitset.FromSorted([]int{1, 5, 9, 13, 50, 77})

	serial := make([]cand, len(ords))
	scoreBatch(nodes, ords, pos, 1, serial)
	for i, o := range ords {
		key := ix.Keys()[o]
		if serial[i] != (cand{overlap: ix.OverlapBits(key, pos), total: ix.Count(key), ord: o}) {
			t.Fatalf("scoreBatch(%q) = %+v", key, serial[i])
		}
	}
	for _, workers := range []int{2, 4, 8} {
		parallel := make([]cand, len(ords))
		scoreBatch(nodes, ords, pos, workers, parallel)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("scoreBatch with %d workers diverges from serial", workers)
		}
	}
}

// TestNonRootKeysPreallocated pins the allocation-free accessor: repeated
// calls return the same backing slice, in insertion order, without the root.
func TestNonRootKeysPreallocated(t *testing.T) {
	c := equivCorpus()
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 3))
	h := Generate(ix, nil, Config{NumCandidates: 50, MinCoverage: 2})
	a := h.NonRootKeys()
	b := h.NonRootKeys()
	if len(a) == 0 {
		t.Fatal("no non-root keys")
	}
	if &a[0] != &b[0] {
		t.Error("NonRootKeys reallocates on every call")
	}
	for _, k := range a {
		if k == grammar.RootKey {
			t.Error("NonRootKeys contains the root")
		}
	}
	if len(a) != h.Len()-1 {
		t.Errorf("NonRootKeys has %d keys for %d nodes", len(a), h.Len())
	}
}
