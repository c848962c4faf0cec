// Package index implements the corpus index of §3.1 (Figure 6): a trie-like
// structure obtained by merging per-sentence derivation sketches. Each node
// represents one heuristic and stores the inverted list of the sentences
// that satisfy it — one compressed bitset.Adaptive, whose cardinality is the
// coverage count — and parent/child edges capturing the superset/subset
// relationship between heuristics.
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
// invalidate the parent/child edges; BuildEdges recomputes them at a
// "publish point" (Build, Prune, or an explicit BuildEdges after Merge,
// AddSentence or EnsureHeuristic) and publishes every node's coverage set
// (under KernelDense it also builds a dense bitset.Set mirror of each set
// that changed). BuildEdges on an index that is already published returns at
// once. After publishing, every accessor is a pure read, so any number of
// goroutines may use the index concurrently. A published set is never
// mutated: the first mutation of a node after a publish point clones its set,
// so a set a reader took under a read lock keeps the coverage it was read
// with. Children and Parents panic on an unpublished index instead of lazily
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

	// cov is the node's coverage: the inverted list of the sentences
	// satisfying the heuristic, held as a compressed set. published marks
	// cov as handed to readers at a publish point; the first mutation after
	// that clones it (see add), so a set a reader took stays as it was.
	cov       *bitset.Adaptive
	published bool
	// dense is cov's KernelDense mirror, built at publish for nodes whose
	// set changed; nil under KernelAdaptive and between a mutation and the
	// next publish.
	dense bitset.Set

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
func newNode(h grammar.Heuristic, cov *bitset.Adaptive) *Node {
	return &Node{Heuristic: h, cov: cov, ord: -1, depth: int32(h.Depth())}
}

// add inserts a sentence id into the node's coverage, cloning a published
// set first.
func (n *Node) add(id int) {
	if n.published {
		n.cov = n.cov.Clone()
		n.published = false
	}
	n.cov.Add(id)
	n.dense = nil
}

// publish hands the node's set to readers in the kernel's representation.
func (n *Node) publish(kernel string) {
	n.published = true
	switch {
	case kernel != KernelDense:
		n.dense = nil
	case n.dense == nil:
		n.dense = n.cov.OrInto(nil)
	}
}

// Key returns the node's heuristic key.
func (n *Node) Key() string { return n.Heuristic.Key() }

// Count returns the coverage |C_r| of the node's heuristic.
func (n *Node) Count() int { return n.cov.Count() }

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

// Bits returns the node's coverage set: the dense mirror under KernelDense,
// the compressed set itself otherwise. It is never nil. A set returned on a
// published index is never mutated afterwards — later mutations work on a
// copy — so it may be read after the caller's lock is released; callers
// must not modify it.
func (n *Node) Bits() bitset.Cover {
	if n.dense != nil {
		return n.dense
	}
	return n.cov
}

// Coverage kernels: which representation Bits hands to readers. Adaptive
// (the default) is the node's compressed set itself, whose memory scales
// with coverage cardinality instead of corpus size; dense adds a []uint64
// mirror per node built at publish, and remains the pinned reference the
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
	// edgesBuilt records whether parent/child edges (and dense mirrors) are
	// up to date.
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

// New returns an empty index containing only the root node (with empty
// coverage; the root conceptually covers every sentence). An empty index is
// trivially published: its edges are built and the root is ordinal 0.
func New() *Index {
	root := newNode(grammar.Root(), bitset.NewAdaptive())
	root.ord = 0
	root.publish(KernelAdaptive)
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
// coverage, so versioned caches built on the old kernel stay semantically
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
			n.add(s.ID)
			probed = true
		}
	}
	// AddSketch skips a sketch without a sentence id, so a probe hit must
	// invalidate on its own.
	if probed {
		ix.invalidate()
	}
}

// AddSketch merges one sentence's derivation sketch into the index, adding
// the sentence to the coverage of the root and of every sketched heuristic.
// Edges are invalidated and must be rebuilt with BuildEdges before the index
// is read concurrently.
func (ix *Index) AddSketch(sk sketch.Sketch) {
	if sk.SentenceID < 0 {
		return
	}
	ix.nodes[grammar.RootKey].add(sk.SentenceID)
	for _, h := range sk.Heuristics {
		ix.nodeFor(h).add(sk.SentenceID)
	}
	ix.invalidate()
}

// nodeFor returns the node of a heuristic, creating an empty one if absent.
func (ix *Index) nodeFor(h grammar.Heuristic) *Node {
	key := h.Key()
	n, ok := ix.nodes[key]
	if !ok {
		n = newNode(h, bitset.NewAdaptive())
		ix.nodes[key] = n
	}
	return n
}

// invalidate marks the edges/key cache/ordinals stale and bumps the
// version.
func (ix *Index) invalidate() {
	ix.edgesBuilt = false
	ix.keys = nil
	ix.byOrd = nil
	ix.version++
}

// Merge folds another index into this one (union of coverage per key).
// Build merges shards covering disjoint, ascending id ranges, so every id
// takes Add's append path. Edges are invalidated and must be rebuilt with
// BuildEdges.
func (ix *Index) Merge(other *Index) {
	for _, on := range other.nodes {
		n := ix.nodeFor(on.Heuristic)
		on.cov.Range(func(id int) bool {
			n.add(id)
			return true
		})
	}
	ix.invalidate()
}

// BuildEdges (re)computes parent/child edges between materialized nodes,
// publishes each node's coverage set (building the dense mirrors under
// KernelDense), numbers the nodes by sorted key and caches the sorted key
// list. A heuristic whose grammatical parents are not materialized (e.g.
// stop-word unigrams filtered from sketches) is attached directly to the
// root. This is the publish point: after it returns, all read accessors are
// safe for concurrent use until the next mutation. On an index that is
// already published it returns at once.
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
		n.publish(kernel)
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

// Bits returns the coverage set of the heuristic with the given key (see
// Node.Bits), or nil if the key is not materialized. The returned set must
// not be modified.
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
		if n.dense != nil {
			dense++
			continue
		}
		a, bm := n.cov.Containers()
		arrays += a
		bitmaps += bm
	}
	return arrays, bitmaps, dense
}

// CoverageBytes sums the payload bytes of the coverage set Bits returns for
// every node — the series the scale benchmark compares across kernels.
// Under KernelAdaptive that is all the coverage the index holds.
func (ix *Index) CoverageBytes() int {
	total := 0
	for _, n := range ix.nodes {
		total += n.Bits().Bytes()
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

// EnsureHeuristic materializes an ad-hoc heuristic (e.g. a parsed seed rule
// or a specialization generated during traversal) by scanning the corpus for
// its coverage, unless it is already present. It returns the node. Edges are
// invalidated: callers must BuildEdges before the index is read again.
func (ix *Index) EnsureHeuristic(h grammar.Heuristic, c *corpus.Corpus) *Node {
	if n, ok := ix.nodes[h.Key()]; ok {
		return n
	}
	n := newNode(h, bitset.AdaptiveFromSorted(grammar.Coverage(h, c)))
	n.adhoc = true
	ix.nodes[h.Key()] = n
	ix.adhoc = append(ix.adhoc, n)
	ix.invalidate()
	return n
}
