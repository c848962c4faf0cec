// Package index implements the corpus index of §3.1 (Figure 6): a trie-like
// structure obtained by merging per-sentence derivation sketches. Each node
// represents one heuristic and stores its coverage count, an inverted list of
// the sentences that satisfy it, and parent/child edges capturing the
// superset/subset relationship between heuristics.
//
// The index is the single source of coverage truth for candidate generation,
// hierarchy construction and traversal. It is built in linear time in the
// number of sentences (for bounded-depth sketches), supports sharded parallel
// construction via Merge, and has O(1) amortized update time for adding one
// sentence's sketch.
//
// # Publish points and read paths
//
// Mutations (AddSketch, Merge, EnsureHeuristic, Prune) invalidate the
// parent/child edges; BuildEdges recomputes them — and materializes each
// node's dense coverage bitset alongside its sorted posting list — at a
// "publish point" (Build, Prune, or an explicit BuildEdges after Merge or
// EnsureHeuristic). After publishing, every accessor is a pure read, so any
// number of goroutines may use the index concurrently. Children and Parents
// panic on an unpublished index instead of lazily mutating it, because a
// lazy rebuild under a caller's read lock is a data race.
package index

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/sketch"
)

// Node is one heuristic materialized in the index.
type Node struct {
	// Heuristic is the labeling heuristic this node represents. The root
	// node holds grammar.Root().
	Heuristic grammar.Heuristic
	// Postings is the sorted inverted list of sentence IDs satisfying the
	// heuristic.
	Postings []int

	// bits is the coverage-kernel mirror of Postings — a dense bitset.Set or
	// a compressed *bitset.Adaptive depending on the index kernel —
	// materialized at publish points (BuildEdges / EnsureHeuristic); bitsN is
	// len(Postings) at the time bits was built, used to detect staleness
	// cheaply.
	bits  bitset.Cover
	bitsN int

	// adhoc marks nodes materialized by EnsureHeuristic's corpus scan rather
	// than derived from sentence sketches. Their heuristics are not reachable
	// through sketches, so live-corpus growth must probe them directly (see
	// AddSentence).
	adhoc bool

	parents  []string
	children []string
}

// Key returns the node's heuristic key.
func (n *Node) Key() string { return n.Heuristic.Key() }

// Count returns the coverage |C_r| of the node's heuristic.
func (n *Node) Count() int { return len(n.Postings) }

// Parents returns the keys of the node's parent nodes (generalizations).
func (n *Node) Parents() []string { return n.parents }

// Children returns the keys of the node's child nodes (specializations).
func (n *Node) Children() []string { return n.children }

// Bits returns the node's coverage set, or nil if the node has not been
// published (BuildEdges) since its postings last changed. The returned set
// must not be modified.
func (n *Node) Bits() bitset.Cover {
	if n.bits == nil || n.bitsN != len(n.Postings) {
		return nil
	}
	return n.bits
}

// refreshBits (re)materializes the node's coverage set if it is stale or in
// the wrong representation for the index kernel.
func (n *Node) refreshBits(kernel string) {
	if n.bits != nil && n.bitsN == len(n.Postings) {
		if _, adaptive := n.bits.(*bitset.Adaptive); adaptive == (kernel == KernelAdaptive) {
			return
		}
	}
	if kernel == KernelAdaptive {
		n.bits = bitset.AdaptiveFromSorted(n.Postings)
	} else {
		n.bits = bitset.FromSorted(n.Postings)
	}
	n.bitsN = len(n.Postings)
}

// Coverage kernels: which representation BuildEdges materializes per-node
// coverage in. Adaptive (the default) uses roaring-style compressed bitsets
// whose memory scales with coverage cardinality instead of corpus size;
// dense is the original []uint64 mirror and remains the pinned reference the
// equivalence tests compare against.
const (
	KernelAdaptive = "adaptive"
	KernelDense    = "dense"
)

// Index is the merged sketch trie over a corpus.
type Index struct {
	nodes map[string]*Node
	// kernel selects the per-node coverage representation ("" means
	// KernelAdaptive).
	kernel string
	// edgesBuilt records whether parent/child edges (and coverage bitsets)
	// are up to date.
	edgesBuilt bool
	// keys is the sorted key cache, valid while edgesBuilt.
	keys []string
	// version counts mutations; sessions use it to detect that a cached
	// hierarchy may be stale because the shared index grew.
	version uint64
	// adhoc lists the nodes EnsureHeuristic materialized by corpus scan, the
	// ones AddSentence must probe against every ingested sentence.
	adhoc []*Node
}

// New returns an empty index containing only the root node (with no
// postings; the root conceptually covers every sentence). An empty index is
// trivially published: its edges are built.
func New() *Index {
	ix := &Index{nodes: make(map[string]*Node), edgesBuilt: true}
	ix.nodes[grammar.RootKey] = &Node{Heuristic: grammar.Root()}
	return ix
}

// Kernel returns the index's coverage-kernel name (KernelAdaptive unless
// explicitly set to KernelDense).
func (ix *Index) Kernel() string {
	if ix.kernel == KernelDense {
		return KernelDense
	}
	return KernelAdaptive
}

// SetKernel switches the per-node coverage representation and republishes
// the index. A no-op when the kernel is unchanged. Callers holding the
// engine's index write lock may call it at any time; it never changes
// postings, so versioned caches built on the old kernel stay semantically
// valid but are invalidated anyway (the representation under their bits
// pointer swapped).
func (ix *Index) SetKernel(kernel string) {
	if kernel != KernelDense {
		kernel = KernelAdaptive
	}
	if ix.Kernel() == kernel {
		return
	}
	ix.kernel = kernel
	ix.invalidate()
	ix.BuildEdges()
}

// Build constructs the index of a corpus using the given sketch builder,
// sharding the work across CPUs and merging the shards (the parallel
// construction described in §3.1).
func Build(c *corpus.Corpus, b *sketch.Builder) *Index {
	shards := runtime.GOMAXPROCS(0)
	if shards < 1 {
		shards = 1
	}
	if c.Len() < 256 {
		shards = 1
	}
	if shards == 1 {
		ix := New()
		for id := 0; id < c.Len(); id++ {
			ix.AddSketch(b.Build(c.Sentence(id)))
		}
		ix.BuildEdges()
		return ix
	}
	parts := make([]*Index, shards)
	var wg sync.WaitGroup
	per := (c.Len() + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo := s * per
		hi := lo + per
		if hi > c.Len() {
			hi = c.Len()
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			part := New()
			for id := lo; id < hi; id++ {
				part.AddSketch(b.Build(c.Sentence(id)))
			}
			parts[s] = part
		}(s, lo, hi)
	}
	wg.Wait()
	ix := parts[0]
	for _, part := range parts[1:] {
		ix.Merge(part)
	}
	ix.BuildEdges()
	return ix
}

// AddSentence merges one newly ingested sentence into the index: its
// derivation sketch via AddSketch, plus a direct match probe of every ad-hoc
// node (rules materialized by EnsureHeuristic are not derivable from
// sketches, so their coverage growth must be computed explicitly). With this
// probe, ingest and seed-rule materialization commute: an ensured node's
// coverage always converges to its full-corpus scan regardless of order,
// which is what keeps journal replay deterministic.
func (ix *Index) AddSentence(sk sketch.Sketch, s *corpus.Sentence) {
	ix.AddSketch(sk)
	if s == nil {
		return
	}
	for _, n := range ix.adhoc {
		if n.Heuristic.Matches(s) {
			n.Postings = insertSorted(n.Postings, s.ID)
		}
	}
}

// AddSketch merges one sentence's derivation sketch into the index,
// incrementing counts and extending inverted lists. Edges are invalidated
// and must be rebuilt with BuildEdges before the index is read concurrently.
func (ix *Index) AddSketch(sk sketch.Sketch) {
	if sk.SentenceID < 0 {
		return
	}
	root := ix.nodes[grammar.RootKey]
	root.Postings = insertSorted(root.Postings, sk.SentenceID)
	for _, h := range sk.Heuristics {
		key := h.Key()
		n, ok := ix.nodes[key]
		if !ok {
			n = &Node{Heuristic: h}
			ix.nodes[key] = n
		}
		n.Postings = insertSorted(n.Postings, sk.SentenceID)
	}
	ix.invalidate()
}

// invalidate marks the edges/bitsets/key cache stale and bumps the version.
func (ix *Index) invalidate() {
	ix.edgesBuilt = false
	ix.keys = nil
	ix.version++
}

// insertSorted appends id keeping the slice sorted and deduplicated. In the
// common case (ids arrive in increasing order) this is O(1).
func insertSorted(xs []int, id int) []int {
	if n := len(xs); n == 0 || xs[n-1] < id {
		return append(xs, id)
	}
	i := sort.SearchInts(xs, id)
	if i < len(xs) && xs[i] == id {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = id
	return xs
}

// Merge folds another index into this one (union of postings per key). Edges
// are invalidated and must be rebuilt with BuildEdges.
func (ix *Index) Merge(other *Index) {
	for key, on := range other.nodes {
		n, ok := ix.nodes[key]
		if !ok {
			ix.nodes[key] = &Node{Heuristic: on.Heuristic, Postings: append([]int(nil), on.Postings...)}
			continue
		}
		n.Postings = mergeSorted(n.Postings, on.Postings)
	}
	ix.invalidate()
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// BuildEdges (re)computes parent/child edges between materialized nodes,
// refreshes each node's coverage bitset, and caches the sorted key list. A
// heuristic whose grammatical parents are not materialized (e.g. stop-word
// unigrams filtered from sketches) is attached directly to the root. This is
// the publish point: after it returns, all read accessors are safe for
// concurrent use until the next mutation.
func (ix *Index) BuildEdges() {
	kernel := ix.Kernel()
	for _, n := range ix.nodes {
		n.parents = n.parents[:0]
		n.children = n.children[:0]
		n.refreshBits(kernel)
	}
	keys := make([]string, 0, len(ix.nodes))
	for k := range ix.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if key == grammar.RootKey {
			continue
		}
		n := ix.nodes[key]
		attached := false
		for _, p := range n.Heuristic.Parents() {
			pk := p.Key()
			pn, ok := ix.nodes[pk]
			if !ok {
				continue
			}
			pn.children = append(pn.children, key)
			n.parents = append(n.parents, pk)
			attached = true
		}
		if !attached {
			root := ix.nodes[grammar.RootKey]
			root.children = append(root.children, key)
			n.parents = append(n.parents, grammar.RootKey)
		}
	}
	// Deterministic ordering of edge lists.
	for _, n := range ix.nodes {
		sort.Strings(n.parents)
		sort.Strings(n.children)
	}
	ix.keys = keys
	ix.edgesBuilt = true
}

// Prune removes all non-root nodes with coverage below minCount, then
// rebuilds edges. Low-coverage heuristics can never be useful labeling rules
// (the paper targets rules with coverage Ω(log n)), and pruning keeps the
// index small on large corpora.
func (ix *Index) Prune(minCount int) {
	if minCount <= 1 {
		return
	}
	for key, n := range ix.nodes {
		if key == grammar.RootKey {
			continue
		}
		if n.Count() < minCount {
			delete(ix.nodes, key)
		}
	}
	if len(ix.adhoc) > 0 {
		kept := ix.adhoc[:0]
		for _, n := range ix.adhoc {
			if ix.nodes[n.Key()] == n {
				kept = append(kept, n)
			}
		}
		ix.adhoc = kept
	}
	ix.invalidate()
	ix.BuildEdges()
}

// Node returns the node for a heuristic key, or nil if not materialized.
func (ix *Index) Node(key string) *Node {
	return ix.nodes[key]
}

// Root returns the root node.
func (ix *Index) Root() *Node { return ix.nodes[grammar.RootKey] }

// Len returns the number of nodes (including the root).
func (ix *Index) Len() int { return len(ix.nodes) }

// Version returns the mutation counter. Two equal Version values bracket a
// window in which the index did not change, so derived structures (cached
// hierarchies, key snapshots) built inside it are still valid.
func (ix *Index) Version() uint64 { return ix.version }

// Keys returns all node keys in sorted order. On a published index this is
// the cached slice — callers must not modify it.
func (ix *Index) Keys() []string {
	if ix.edgesBuilt && ix.keys != nil {
		return ix.keys
	}
	out := make([]string, 0, len(ix.nodes))
	for k := range ix.nodes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Coverage returns the posting list (sorted sentence IDs) of the heuristic
// with the given key, or nil if the key is not materialized. The returned
// slice must not be modified.
func (ix *Index) Coverage(key string) []int {
	if n, ok := ix.nodes[key]; ok {
		return n.Postings
	}
	return nil
}

// Bits returns the coverage set of the heuristic with the given key, or
// nil if the key is not materialized or not yet published. The returned set
// must not be modified.
func (ix *Index) Bits(key string) bitset.Cover {
	if n, ok := ix.nodes[key]; ok {
		return n.Bits()
	}
	return nil
}

// ContainerStats reports the coverage-representation census across all
// published nodes: adaptive array and bitmap container counts, plus how many
// nodes hold a dense mirror. It feeds the darwin_bitset_containers gauge.
func (ix *Index) ContainerStats() (arrays, bitmaps, dense int) {
	for _, n := range ix.nodes {
		switch b := n.bits.(type) {
		case *bitset.Adaptive:
			a, bm := b.Containers()
			arrays += a
			bitmaps += bm
		case bitset.Set:
			if b != nil {
				dense++
			}
		}
	}
	return arrays, bitmaps, dense
}

// CoverageBytes sums the payload bytes of every published node coverage set
// — the series the scale benchmark compares across kernels.
func (ix *Index) CoverageBytes() int {
	total := 0
	for _, n := range ix.nodes {
		if n.bits != nil {
			total += n.bits.Bytes()
		}
	}
	return total
}

// Count returns the coverage size of the heuristic with the given key (0 for
// unknown keys).
func (ix *Index) Count(key string) int {
	if n, ok := ix.nodes[key]; ok {
		return n.Count()
	}
	return 0
}

// mustPublished panics when the index has pending mutations: read paths must
// never lazily rebuild shared state (callers typically hold only a read
// lock, so a rebuild here would be a data race).
func (ix *Index) mustPublished(method string) {
	if !ix.edgesBuilt {
		panic("index: " + method + " called on an unpublished index; call BuildEdges after AddSketch/Merge/EnsureHeuristic before reading edges")
	}
}

// Children returns the child keys of the node with the given key. The index
// must be published (see BuildEdges); Children never mutates.
func (ix *Index) Children(key string) []string {
	ix.mustPublished("Children")
	if n, ok := ix.nodes[key]; ok {
		return n.children
	}
	return nil
}

// Parents returns the parent keys of the node with the given key. The index
// must be published (see BuildEdges); Parents never mutates.
func (ix *Index) Parents(key string) []string {
	ix.mustPublished("Parents")
	if n, ok := ix.nodes[key]; ok {
		return n.parents
	}
	return nil
}

// OverlapBits returns |C_r ∩ P| via word-wise intersection + popcount. It
// falls back to the posting list when the node's bitset is unpublished.
func (ix *Index) OverlapBits(key string, p bitset.Set) int {
	n, ok := ix.nodes[key]
	if !ok {
		return 0
	}
	if b := n.Bits(); b != nil {
		return b.AndCount(p)
	}
	c := 0
	for _, id := range n.Postings {
		if p.Contains(id) {
			c++
		}
	}
	return c
}

// NewCoverageBits returns |C_r \ P| via word-wise and-not + popcount, with
// the same posting-list fallback as OverlapBits.
func (ix *Index) NewCoverageBits(key string, p bitset.Set) int {
	n, ok := ix.nodes[key]
	if !ok {
		return 0
	}
	if b := n.Bits(); b != nil {
		return b.AndNotCount(p)
	}
	c := 0
	for _, id := range n.Postings {
		if !p.Contains(id) {
			c++
		}
	}
	return c
}

// EnsureHeuristic materializes an ad-hoc heuristic (e.g. a parsed seed rule
// or a specialization generated during traversal) by scanning the corpus for
// its coverage, unless it is already present. It returns the node. Edges are
// invalidated: callers must BuildEdges before the index is read again.
func (ix *Index) EnsureHeuristic(h grammar.Heuristic, c *corpus.Corpus) *Node {
	if n, ok := ix.nodes[h.Key()]; ok {
		return n
	}
	n := &Node{Heuristic: h, Postings: grammar.Coverage(h, c), adhoc: true}
	n.refreshBits(ix.Kernel())
	ix.nodes[h.Key()] = n
	ix.adhoc = append(ix.adhoc, n)
	ix.invalidate()
	return n
}
