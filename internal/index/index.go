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
// Mutations (AddSketch, AddSentence, Merge, EnsureHeuristic, Prune)
// invalidate the parent/child edges; BuildEdges recomputes them — and
// materializes each node's coverage set (a compressed bitset.Adaptive by
// default, a dense bitset.Set under KernelDense) alongside its sorted posting
// list — at a "publish point" (Build, Prune, or an explicit BuildEdges after
// Merge, AddSentence or EnsureHeuristic). BuildEdges on an index that is
// already published returns at once. After publishing, every accessor is a
// pure read, so any number of goroutines may use the index concurrently.
// Children and Parents panic on an unpublished index instead of lazily
// mutating it, because a lazy rebuild under a caller's read lock is a data
// race.
//
// # Ordinals
//
// Publishing also numbers the nodes: a node's ordinal is its rank in the
// sorted key order, so Keys()[n.Ord()] is its key, NodesByOrd()[n.Ord()] is
// the node, and comparing two ordinals compares their keys. Each node keeps
// its child and parent edges as ascending ordinal lists next to the key
// lists. Ordinals are assigned at publish and are valid only until the next
// mutation, which may renumber every node; callers that use them (hierarchy
// regeneration) resolve and drop them within one read-locked call and never
// store them.
package index

import (
	"runtime"
	"slices"
	"sort"
	"strings"
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

	// ord is the node's rank in the sorted key order, assigned at publish
	// (-1 until the node is first published); depth caches
	// Heuristic.Depth().
	ord   int32
	depth int32

	parents  []string
	children []string
	// parentOrds and childOrds mirror parents and children as ascending
	// ordinals.
	parentOrds []int32
	childOrds  []int32
}

// newNode returns an unpublished node for a heuristic.
func newNode(h grammar.Heuristic, postings []int) *Node {
	return &Node{Heuristic: h, Postings: postings, ord: -1, depth: int32(h.Depth())}
}

// Key returns the node's heuristic key.
func (n *Node) Key() string { return n.Heuristic.Key() }

// Count returns the coverage |C_r| of the node's heuristic.
func (n *Node) Count() int { return len(n.Postings) }

// Parents returns the keys of the node's parent nodes (generalizations).
func (n *Node) Parents() []string { return n.parents }

// Children returns the keys of the node's child nodes (specializations).
func (n *Node) Children() []string { return n.children }

// Ord returns the node's ordinal: its rank in the published index's sorted
// key order. It is valid only while the index stays published.
func (n *Node) Ord() int { return int(n.ord) }

// ParentOrds returns the ordinals of the node's parents, ascending. The
// returned slice must not be modified.
func (n *Node) ParentOrds() []int32 { return n.parentOrds }

// ChildOrds returns the ordinals of the node's children, ascending. The
// returned slice must not be modified.
func (n *Node) ChildOrds() []int32 { return n.childOrds }

// Depth returns the number of derivation rules in the node's heuristic
// (Heuristic.Depth, cached when the node is materialized).
func (n *Node) Depth() int { return int(n.depth) }

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
// equivalence tests compare against (the core and workspace bit-exact pin
// tests run under both kernels against one transcript).
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
	// keys is the sorted key cache and byOrd the nodes in the same order
	// (byOrd[i].ord == i), both valid while edgesBuilt.
	keys  []string
	byOrd []*Node
	// version counts mutations; sessions use it to detect that a cached
	// hierarchy may be stale because the shared index grew.
	version uint64
	// adhoc lists the nodes EnsureHeuristic materialized by corpus scan, the
	// ones AddSentence must probe against every ingested sentence.
	adhoc []*Node
}

// New returns an empty index containing only the root node (with no
// postings; the root conceptually covers every sentence). An empty index is
// trivially published: its edges are built and the root is ordinal 0.
func New() *Index {
	root := newNode(grammar.Root(), nil)
	root.ord = 0
	root.refreshBits(KernelAdaptive)
	return &Index{
		nodes:      map[string]*Node{grammar.RootKey: root},
		edgesBuilt: true,
		keys:       []string{grammar.RootKey},
		byOrd:      []*Node{root},
	}
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
	probed := false
	for _, n := range ix.adhoc {
		if n.Heuristic.Matches(s) {
			n.Postings = insertSorted(n.Postings, s.ID)
			probed = true
		}
	}
	// AddSketch skips a sketch without a sentence id, so a probe hit must
	// invalidate on its own.
	if probed {
		ix.invalidate()
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
			n = newNode(h, nil)
			ix.nodes[key] = n
		}
		n.Postings = insertSorted(n.Postings, sk.SentenceID)
	}
	ix.invalidate()
}

// invalidate marks the edges/bitsets/key cache/ordinals stale and bumps the
// version.
func (ix *Index) invalidate() {
	ix.edgesBuilt = false
	ix.keys = nil
	ix.byOrd = nil
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
			ix.nodes[key] = newNode(on.Heuristic, append([]int(nil), on.Postings...))
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
// refreshes each node's coverage bitset, numbers the nodes by sorted key and
// caches the sorted key list. A heuristic whose grammatical parents are not
// materialized (e.g. stop-word unigrams filtered from sketches) is attached
// directly to the root. This is the publish point: after it returns, all
// read accessors are safe for concurrent use until the next mutation. On an
// index that is already published it returns at once.
func (ix *Index) BuildEdges() {
	if ix.edgesBuilt {
		return
	}
	kernel := ix.Kernel()
	type entry struct {
		key string
		n   *Node
	}
	entries := make([]entry, 0, len(ix.nodes))
	for k, n := range ix.nodes {
		n.refreshBits(kernel)
		entries = append(entries, entry{k, n})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	keys := make([]string, len(entries))
	byOrd := make([]*Node, len(entries))
	for i, e := range entries {
		keys[i] = e.key
		byOrd[i] = e.n
		e.n.ord = int32(i)
	}
	// One pass in key order finds every edge, so each parent's children
	// arrive in ascending ordinal order and each child's parents arrive
	// together.
	type edge struct{ parent, child int32 }
	edges := make([]edge, 0, 2*len(byOrd))
	root := ix.nodes[grammar.RootKey]
	for i, n := range byOrd {
		if n == root {
			continue
		}
		attached := false
		for _, p := range n.Heuristic.Parents() {
			if pn, ok := ix.nodes[p.Key()]; ok {
				edges = append(edges, edge{pn.ord, int32(i)})
				attached = true
			}
		}
		if !attached {
			edges = append(edges, edge{root.ord, int32(i)})
		}
	}
	// Every node's edge lists are cut from two shared arenas: ordinals, and
	// the same lists spelled out as keys (ordinals sort like keys). Child
	// lists take the first half of each arena, parent lists the second.
	next := make([]int32, 2*len(byOrd)+1)
	for _, e := range edges {
		next[e.parent+1]++
		next[int(e.child)+len(byOrd)+1]++
	}
	for j := 1; j < len(next); j++ {
		next[j] += next[j-1]
	}
	start := slices.Clone(next[:len(next)-1])
	ords := make([]int32, 2*len(edges))
	for _, e := range edges {
		ords[next[e.parent]] = e.child
		next[e.parent]++
		ords[next[int(e.child)+len(byOrd)]] = e.parent
		next[int(e.child)+len(byOrd)]++
	}
	for j := len(byOrd); j < 2*len(byOrd); j++ {
		slices.Sort(ords[start[j]:next[j]]) // parents arrive in grammar order
	}
	names := make([]string, len(ords))
	for j, o := range ords {
		names[j] = keys[o]
	}
	cut := func(j int) ([]int32, []string) {
		lo, hi := start[j], next[j]
		if lo == hi {
			return nil, nil
		}
		return ords[lo:hi:hi], names[lo:hi:hi]
	}
	for i, n := range byOrd {
		n.childOrds, n.children = cut(i)
		n.parentOrds, n.parents = cut(i + len(byOrd))
	}
	ix.keys = keys
	ix.byOrd = byOrd
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

// NodesByOrd returns the published nodes indexed by ordinal (see the package
// comment). The index must be published; the returned slice must not be
// modified.
func (ix *Index) NodesByOrd() []*Node {
	ix.mustPublished("NodesByOrd")
	return ix.byOrd
}

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
	n := newNode(h, grammar.Coverage(h, c))
	n.adhoc = true
	n.refreshBits(ix.Kernel())
	ix.nodes[h.Key()] = n
	ix.adhoc = append(ix.adhoc, n)
	ix.invalidate()
	return n
}
