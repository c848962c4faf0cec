package index

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
	"repro/internal/treematch"
)

func buildCorpus(texts []string) *corpus.Corpus {
	c := corpus.New("idx", "t")
	for _, txt := range texts {
		c.Add(txt, corpus.Negative)
	}
	c.Preprocess(corpus.PreprocessOptions{Parse: true})
	return c
}

func paperCorpus() *corpus.Corpus {
	// Sentences s1..s6 of Example 1.
	return buildCorpus([]string{
		"What is the best way to get to SFO airport?",
		"Is there a bart from SFO to the hotel?",
		"What is the best way to check in there?",
		"Is Uber the fastest way to get to the airport?",
		"Would Uber Eats be the fastest way to order?",
		"What is the best way to order food from you?",
	})
}

func tokenRegistry() *grammar.Registry {
	return grammar.NewRegistry(tokensregex.New())
}

func fullRegistry() *grammar.Registry {
	return grammar.NewRegistry(tokensregex.New(), treematch.New())
}

func TestBuildFigure6Counts(t *testing.T) {
	// Figure 6 of the paper: after indexing s1 and s4, "way to" and "to get"
	// have count 2, "best way" count 1, "fastest way" count 1.
	c := buildCorpus([]string{
		"What is the best way to get to SFO airport?",
		"Is Uber the fastest way to get to the airport?",
	})
	b := sketch.NewBuilder(tokenRegistry(), 4)
	ix := Build(c, b)

	tests := []struct {
		phrase string
		count  int
	}{
		{"way to", 2},
		{"to get", 2},
		{"best way", 1},
		{"fastest way", 1},
		{"best way to get", 1},
		{"airport", 2},
	}
	for _, tt := range tests {
		key := "tokensregex:" + tt.phrase
		if got := ix.Count(key); got != tt.count {
			t.Errorf("Count(%q) = %d, want %d", tt.phrase, got, tt.count)
		}
	}
	if got := ix.Count("tokensregex:shuttle"); got != 0 {
		t.Errorf("Count(shuttle) = %d, want 0", got)
	}
	// Root postings cover both sentences.
	if ix.Root().Count() != 2 {
		t.Errorf("root count = %d", ix.Root().Count())
	}
}

// ids returns the coverage of key as ascending sentence ids (nil for an
// unknown key).
func ids(ix *Index, key string) []int {
	if b := ix.Bits(key); b != nil {
		return b.AppendTo(nil)
	}
	return nil
}

// TestIndexCoverageMatchesDirectMatching checks every node's published set,
// under both kernels, against a corpus scan of its heuristic. (TokensRegex
// sketches list every phrase a sentence matches; tree-pattern sketches bound
// the descendant distance, so a // node can cover a subset of its scan.)
func TestIndexCoverageMatchesDirectMatching(t *testing.T) {
	c := paperCorpus()
	ix := Build(c, sketch.NewBuilder(tokenRegistry(), 5))
	g := tokensregex.New()
	for _, spec := range []string{"best way to", "fastest way", "sfo", "uber"} {
		h, err := g.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Node(h.Key()) == nil {
			t.Fatalf("%q is not materialized", spec)
		}
	}
	all := make([]int, c.Len())
	for id := range all {
		all[id] = id
	}
	for _, kernel := range []string{KernelDense, KernelAdaptive} {
		ix.SetKernel(kernel)
		for _, key := range ix.Keys() {
			n := ix.Node(key)
			want := all
			if key != grammar.RootKey {
				want = grammar.Coverage(n.Heuristic, c)
			}
			got := n.Bits()
			if !reflect.DeepEqual(got.AppendTo(nil), want) || got.Count() != n.Count() {
				t.Errorf("%s: coverage mismatch for %s: index=%v (count %d) direct=%v", kernel, key, got.AppendTo(nil), n.Count(), want)
			}
			if _, dense := got.(bitset.Set); dense != (kernel == KernelDense && n.Count() > 0) {
				t.Errorf("%s: %s published as %T", kernel, key, got)
			}
		}
	}
}

func TestParentChildEdgesAndAntiMonotonicity(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(fullRegistry(), 4)
	ix := Build(c, b)
	for _, key := range ix.Keys() {
		n := ix.Node(key)
		for _, ck := range ix.Children(key) {
			child := ix.Node(ck)
			if child == nil {
				t.Fatalf("dangling child edge %s -> %s", key, ck)
			}
			// Anti-monotonicity: parent coverage superset of child coverage.
			if key == grammar.RootKey {
				continue
			}
			if extra := child.Count() - child.Bits().AndCount(n.Bits().OrInto(nil)); extra != 0 {
				t.Errorf("child %s covers %d sentences not covered by parent %s", ck, extra, key)
			}
		}
		for _, pk := range ix.Parents(key) {
			if ix.Node(pk) == nil {
				t.Fatalf("dangling parent edge %s -> %s", key, pk)
			}
			// Symmetry: this node appears among the parent's children.
			found := false
			for _, ck := range ix.Children(pk) {
				if ck == key {
					found = true
				}
			}
			if !found {
				t.Errorf("edge asymmetry: %s lists parent %s but not vice versa", key, pk)
			}
		}
	}
	// Every non-root node has at least one parent.
	for _, key := range ix.Keys() {
		if key == grammar.RootKey {
			continue
		}
		if len(ix.Parents(key)) == 0 {
			t.Errorf("node %s has no parents", key)
		}
	}
}

func TestMergeEqualsSequentialBuild(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 4)

	seq := New()
	for id := 0; id < c.Len(); id++ {
		seq.AddSketch(b.Build(c.Sentence(id)))
	}
	seq.BuildEdges()

	// Two shards merged.
	a := New()
	for id := 0; id < 3; id++ {
		a.AddSketch(b.Build(c.Sentence(id)))
	}
	bb := New()
	for id := 3; id < c.Len(); id++ {
		bb.AddSketch(b.Build(c.Sentence(id)))
	}
	a.Merge(bb)
	a.BuildEdges()

	if a.Len() != seq.Len() {
		t.Fatalf("merged len %d != sequential len %d", a.Len(), seq.Len())
	}
	for _, key := range seq.Keys() {
		if !reflect.DeepEqual(ids(seq, key), ids(a, key)) {
			t.Errorf("coverage differs for %s: %v vs %v", key, ids(seq, key), ids(a, key))
		}
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	// A corpus large enough to trigger the sharded build path.
	texts := make([]string, 0, 400)
	base := []string{
		"the shuttle to the airport leaves at nine",
		"what is the best way to get downtown",
		"can i order a pizza to my room",
		"the flooding was caused by heavy rainfall",
		"is there a bart from the airport to the hotel",
	}
	for i := 0; i < 80; i++ {
		texts = append(texts, base...)
	}
	c := buildCorpus(texts)
	b := sketch.NewBuilder(tokenRegistry(), 3)
	par := Build(c, b)

	seq := New()
	for id := 0; id < c.Len(); id++ {
		seq.AddSketch(b.Build(c.Sentence(id)))
	}
	seq.BuildEdges()

	if par.Len() != seq.Len() {
		t.Fatalf("parallel len %d != sequential %d", par.Len(), seq.Len())
	}
	for _, key := range seq.Keys() {
		if seq.Count(key) != par.Count(key) {
			t.Errorf("count mismatch for %s: %d vs %d", key, seq.Count(key), par.Count(key))
		}
	}
}

func TestPrune(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 4)
	ix := Build(c, b)
	before := ix.Len()
	ix.Prune(2)
	if ix.Len() >= before {
		t.Errorf("prune did not shrink index: %d -> %d", before, ix.Len())
	}
	for _, key := range ix.Keys() {
		if key == grammar.RootKey {
			continue
		}
		if ix.Count(key) < 2 {
			t.Errorf("node %s survived prune with count %d", key, ix.Count(key))
		}
	}
	// Prune(1) is a no-op.
	l := ix.Len()
	ix.Prune(1)
	if ix.Len() != l {
		t.Error("Prune(1) modified the index")
	}
}

func TestCoverageOverlapAndNewCoverage(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 4)
	ix := Build(c, b)
	key := "tokensregex:best way to"
	p := bitset.FromSorted([]int{0})
	pMap := map[int]bool{0: true}
	cov := ids(ix, key)
	if len(cov) != 3 {
		t.Fatalf("coverage of 'best way to' = %v, want 3 sentences", cov)
	}
	if got := ix.Bits(key).AndCount(p); got != 1 || got != referenceOverlap(ix, key, pMap) {
		t.Errorf("overlap = %d", got)
	}
	if got := ix.Bits(key).AndNotCount(p); got != 2 || got != referenceNewCoverage(ix, key, pMap) {
		t.Errorf("new coverage = %d", got)
	}
	if ix.Bits("missing") != nil {
		t.Error("missing key has a coverage set")
	}
}

func TestEnsureHeuristic(t *testing.T) {
	c := paperCorpus()
	b := sketch.NewBuilder(tokenRegistry(), 2)
	ix := Build(c, b)
	g := tokensregex.New()
	// Depth-4 phrase is beyond the sketch depth, so it is not materialized.
	h, _ := g.Parse("best way to get")
	if ix.Node(h.Key()) != nil {
		t.Fatal("deep heuristic unexpectedly materialized")
	}
	n := ix.EnsureHeuristic(h, c)
	if n.Count() != 1 {
		t.Errorf("EnsureHeuristic count = %d, want 1", n.Count())
	}
	// Idempotent.
	n2 := ix.EnsureHeuristic(h, c)
	if n != n2 {
		t.Error("EnsureHeuristic created a duplicate node")
	}
	// Already-materialized heuristics are returned as-is.
	h2, _ := g.Parse("best way")
	if got := ix.EnsureHeuristic(h2, c); got.Count() != 3 {
		t.Errorf("existing node count = %d", got.Count())
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := New()
	if ix.Len() != 1 {
		t.Errorf("new index len = %d", ix.Len())
	}
	if ix.Count("anything") != 0 {
		t.Error("unknown key count != 0")
	}
	if ix.Bits("anything") != nil {
		t.Error("unknown key coverage != nil")
	}
	if ix.Children("missing") != nil || ix.Parents("missing") != nil {
		t.Error("unknown key edges != nil")
	}
	ix.AddSketch(sketch.Sketch{SentenceID: -1})
	if ix.Root().Count() != 0 {
		t.Error("invalid sketch modified root")
	}
}

// TestOrdinalsMirrorKeys pins the ordinal invariant: a published node's
// ordinal is its rank in Keys(), NodesByOrd inverts it, and the ordinal edge
// lists spell out exactly the key edge lists.
func TestOrdinalsMirrorKeys(t *testing.T) {
	if empty := New(); empty.Root().Ord() != 0 || empty.NodesByOrd()[0] != empty.Root() {
		t.Fatalf("empty index root ordinal = %d", empty.Root().Ord())
	}
	c := paperCorpus()
	ix := Build(c, sketch.NewBuilder(fullRegistry(), 3))
	h, _ := tokensregex.New().Parse("best way to get to")
	ix.EnsureHeuristic(h, c)
	if ix.Node(h.Key()).Ord() != -1 {
		t.Error("an unpublished node has an ordinal")
	}
	ix.BuildEdges()
	keys, nodes := ix.Keys(), ix.NodesByOrd()
	if len(nodes) != len(keys) || len(keys) != ix.Len() {
		t.Fatalf("%d nodes by ordinal, %d keys, %d nodes", len(nodes), len(keys), ix.Len())
	}
	spell := func(ords []int32) []string {
		var out []string
		for _, o := range ords {
			out = append(out, keys[o])
		}
		return out
	}
	for i, key := range keys {
		n := ix.Node(key)
		if n.Ord() != i || nodes[i] != n {
			t.Fatalf("%q: ordinal %d at rank %d", key, n.Ord(), i)
		}
		if n.Depth() != n.Heuristic.Depth() {
			t.Errorf("%q: cached depth %d, want %d", key, n.Depth(), n.Heuristic.Depth())
		}
		if !slices.IsSorted(n.ChildOrds()) || !slices.IsSorted(n.ParentOrds()) {
			t.Errorf("%q: ordinal edge lists not ascending", key)
		}
		if !reflect.DeepEqual(spell(n.ChildOrds()), nilIfEmpty(n.Children())) ||
			!reflect.DeepEqual(spell(n.ParentOrds()), nilIfEmpty(n.Parents())) {
			t.Errorf("%q: ordinal edges diverge from key edges", key)
		}
	}
}

func nilIfEmpty(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	return xs
}

// TestBuildEdgesOnPublishedIndexIsNoOp pins that re-publishing an unchanged
// index keeps its version and key cache, and that every mutation — including
// an ad-hoc probe hit for a sketch without a sentence id — re-opens it.
func TestBuildEdgesOnPublishedIndexIsNoOp(t *testing.T) {
	c := paperCorpus()
	ix := Build(c, sketch.NewBuilder(tokenRegistry(), 2))
	h, _ := tokensregex.New().Parse("best way to get")
	ix.EnsureHeuristic(h, c)
	ix.BuildEdges()
	ver, keys := ix.Version(), ix.Keys()
	ix.BuildEdges()
	if ix.Version() != ver || &ix.Keys()[0] != &keys[0] {
		t.Fatal("BuildEdges re-published an unchanged index")
	}

	grown := buildCorpus([]string{"What is the best way to get to the pier?"})
	s := grown.Sentence(0)
	s.ID = c.Len()
	ix.AddSentence(sketch.Sketch{SentenceID: -1}, s)
	if ix.Version() == ver {
		t.Fatal("an ad-hoc probe hit did not invalidate the index")
	}
	ix.BuildEdges()
	n := ix.Node(h.Key())
	if n.Count() != 2 || n.Bits() == nil || n.Bits().Count() != 2 {
		t.Errorf("probed node: count %d, bits %v", n.Count(), n.Bits())
	}
}

func TestNodesByOrdPanicsUnpublished(t *testing.T) {
	ix := Build(paperCorpus(), sketch.NewBuilder(tokenRegistry(), 2))
	ix.AddSketch(sketch.Sketch{SentenceID: 99})
	defer func() {
		if recover() == nil {
			t.Error("NodesByOrd on an unpublished index did not panic")
		}
	}()
	ix.NodesByOrd()
}

// TestPublishedCoverageIsImmutable pins the clone-on-write contract under
// both kernels: sets taken from a published index keep their ids across an
// ingest (a sketched node, an ad-hoc node and the root all grow), and the
// republished index hands out new sets holding the new sentence.
func TestPublishedCoverageIsImmutable(t *testing.T) {
	for _, kernel := range []string{KernelAdaptive, KernelDense} {
		t.Run(kernel, func(t *testing.T) {
			c := paperCorpus()
			b := sketch.NewBuilder(tokenRegistry(), 2)
			ix := Build(c, b)
			adhoc, _ := tokensregex.New().Parse("best way to get")
			ix.EnsureHeuristic(adhoc, c)
			ix.SetKernel(kernel)
			ix.BuildEdges()

			keys := []string{"tokensregex:best way", adhoc.Key(), grammar.RootKey}
			held := make([]bitset.Cover, len(keys))
			before := make([][]int, len(keys))
			for i, key := range keys {
				held[i] = ix.Bits(key)
				before[i] = held[i].AppendTo(nil)
			}

			grown := buildCorpus([]string{"What is the best way to get to the pier?"})
			s := grown.Sentence(0)
			s.ID = c.Len()
			ix.AddSentence(b.Build(s), s)
			ix.BuildEdges()

			for i, key := range keys {
				if got := held[i].AppendTo(nil); !reflect.DeepEqual(got, before[i]) {
					t.Errorf("%s: held set changed to %v, was %v", key, got, before[i])
				}
				now := ix.Bits(key)
				if want := append(slices.Clone(before[i]), s.ID); !reflect.DeepEqual(now.AppendTo(nil), want) {
					t.Errorf("%s: republished set %v, want %v", key, now.AppendTo(nil), want)
				}
				if _, dense := now.(bitset.Set); dense != (kernel == KernelDense) {
					t.Errorf("%s: republished as %T", key, now)
				}
			}
		})
	}
}
