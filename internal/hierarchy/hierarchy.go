// Package hierarchy implements the heuristic-hierarchy generation component
// of §3.2: candidate generation (Algorithm 2 — a greedy best-first expansion
// of the index picking heuristics with high coverage over the discovered
// positives) and the hierarchical arrangement of the candidates with
// subset/superset edges plus the cleanup pass that drops heuristics adding no
// new positives.
//
// Candidate scoring runs on the dense bitset coverage kernel (word-wise
// intersection + popcount against the positive set) and fans large scoring
// batches across a bounded worker pool.
package hierarchy

import (
	"container/heap"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/obs"
)

// Hierarchy regeneration is the dominant cost of a suggest step whenever the
// positive set changed; every interactive caller (solo sessions and shared
// workspaces) funnels through Generate, so one counter + histogram here
// covers the fleet.
var (
	regensTotal = obs.Default().Counter("darwin_hierarchy_regens_total",
		"Full candidate-hierarchy regenerations (one per positive-set or index change).")
	regenDurations = obs.Default().Histogram("darwin_hierarchy_regen_duration_seconds",
		"Latency of one full hierarchy regeneration (candidate generation + arrangement).",
		obs.LatencyBuckets)
)

// Node is one candidate heuristic arranged in the hierarchy.
type Node struct {
	// Key is the heuristic's canonical key.
	Key string
	// Heuristic is the candidate labeling rule.
	Heuristic grammar.Heuristic
	// Coverage is the sorted sentence-ID list covered by the rule.
	Coverage []int
	// Bits is the coverage-kernel mirror of Coverage — dense or adaptive,
	// shared with the index node when the hierarchy was generated from an
	// index, materialized from Coverage otherwise. Never nil. Read-only.
	Bits bitset.Cover
	// Parents and Children are hierarchy edges (superset / subset).
	Parents  []string
	Children []string
}

// Hierarchy is the arrangement of candidate heuristics produced each
// iteration of the Darwin pipeline.
type Hierarchy struct {
	nodes map[string]*Node
	order []string // insertion order of keys, root first
	// nonRoot is order minus the root, maintained on Add so NonRootKeys is
	// allocation-free on the per-step hot path.
	nonRoot []string
}

// Root returns the hierarchy's root node (the universal heuristic '*').
func (h *Hierarchy) Root() *Node { return h.nodes[grammar.RootKey] }

// Node returns the node with the given key, or nil.
func (h *Hierarchy) Node(key string) *Node { return h.nodes[key] }

// Len returns the number of nodes including the root.
func (h *Hierarchy) Len() int { return len(h.nodes) }

// Keys returns all node keys (root first, then insertion order).
func (h *Hierarchy) Keys() []string {
	out := make([]string, len(h.order))
	copy(out, h.order)
	return out
}

// NonRootKeys returns all keys except the root, in insertion order. The
// returned slice is owned by the hierarchy and must not be modified; it is
// read on every traversal step.
func (h *Hierarchy) NonRootKeys() []string {
	return h.nonRoot
}

// Contains reports whether the hierarchy holds the key.
func (h *Hierarchy) Contains(key string) bool {
	_, ok := h.nodes[key]
	return ok
}

// Add inserts a node for the heuristic with the given coverage if absent and
// returns it, materializing its coverage bits from the posting list. Edges
// are not recomputed automatically; call LinkEdges after a batch of
// additions.
func (h *Hierarchy) Add(heur grammar.Heuristic, coverage []int) *Node {
	return h.add(heur, coverage, nil)
}

// add inserts a node with the given coverage set, or with bits built from
// the posting list when bits is nil (an unpublished index node, or a node
// added by hand).
func (h *Hierarchy) add(heur grammar.Heuristic, coverage []int, bits bitset.Cover) *Node {
	key := heur.Key()
	if n, ok := h.nodes[key]; ok {
		return n
	}
	if bits == nil {
		bits = bitset.AdaptiveFromSorted(coverage)
	}
	n := &Node{Key: key, Heuristic: heur, Coverage: coverage, Bits: bits}
	h.nodes[key] = n
	h.order = append(h.order, key)
	if key != grammar.RootKey {
		h.nonRoot = append(h.nonRoot, key)
	}
	return n
}

// Config controls candidate generation.
type Config struct {
	// NumCandidates is k in Algorithm 2: how many candidate heuristics to
	// generate per iteration (the paper uses 10K).
	NumCandidates int
	// MaxRuleDepth drops candidates deeper than this many derivation rules
	// (0 = no limit).
	MaxRuleDepth int
	// MinCoverage drops candidates covering fewer sentences than this.
	MinCoverage int
	// Cleanup removes candidates that add no new positives relative to the
	// already-discovered set P (§3.2 cleanup pass).
	Cleanup bool
	// Workers bounds the candidate-scoring worker pool (0 = GOMAXPROCS,
	// capped at 8; 1 = fully serial).
	Workers int
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{NumCandidates: 10000, MaxRuleDepth: 10, MinCoverage: 2, Cleanup: true}
}

// cand is one candidate heuristic scored by its overlap with the discovered
// positives (primary) and its total coverage (tie-break).
type cand struct {
	key     string
	overlap int
	total   int
}

// candHeap is a max-heap of candidates ordered by (overlap, total, key).
type candHeap []cand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].overlap != h[j].overlap {
		return h[i].overlap > h[j].overlap
	}
	if h[i].total != h[j].total {
		return h[i].total > h[j].total
	}
	return h[i].key < h[j].key
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(cand)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// scoreParallelThreshold is the batch size above which candidate scoring
// fans out across the worker pool. Below it the fixed goroutine cost
// outweighs the word-wise kernel, which scores a candidate in well under a
// microsecond.
const scoreParallelThreshold = 2048

// resolveWorkers returns the effective worker-pool size.
func resolveWorkers(cfg Config) int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	return w
}

// scoreBatch scores a batch of eligible keys against the positive set,
// writing results in batch order (deterministic regardless of parallelism).
func scoreBatch(ix *index.Index, keys []string, pos bitset.Set, workers int, out []cand) {
	score := func(i int) {
		key := keys[i]
		out[i] = cand{key: key, overlap: ix.OverlapBits(key, pos), total: ix.Count(key)}
	}
	if workers <= 1 || len(keys) < scoreParallelThreshold {
		for i := range keys {
			score(i)
		}
		return
	}
	var wg sync.WaitGroup
	per := (len(keys) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		if lo >= len(keys) {
			break
		}
		hi := lo + per
		if hi > len(keys) {
			hi = len(keys)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				score(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// GenerateCandidates implements Algorithm 2: a greedy best-first
// expansion of the index starting from the root, repeatedly materializing
// the children of the best candidate so far (by coverage over the discovered
// positives P, with total coverage as tie-break) until k candidates are
// selected. The candidate list of the paper's pseudocode is kept as a
// max-heap, making each iteration logarithmic rather than a full re-sort;
// overlap scoring runs on the bitset kernel, fanning large batches (e.g. the
// root's children on the first expansion) across the worker pool.
func GenerateCandidates(ix *index.Index, positives bitset.Set, cfg Config) []string {
	k := cfg.NumCandidates
	if k <= 0 {
		k = 10000
	}
	workers := resolveWorkers(cfg)

	selected := make([]string, 0, k)
	inSelected := map[string]bool{grammar.RootKey: true}
	inCandidates := map[string]bool{}
	candidates := &candHeap{}
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

	var batch []string
	var scored []cand
	recent := grammar.RootKey
	for len(selected) < k {
		// Add children of the most recently selected heuristic (line 3).
		batch = batch[:0]
		for _, ck := range ix.Children(recent) {
			if eligible(ck) {
				inCandidates[ck] = true
				batch = append(batch, ck)
			}
		}
		if len(batch) > 0 {
			if cap(scored) < len(batch) {
				scored = make([]cand, len(batch))
			}
			scored = scored[:len(batch)]
			scoreBatch(ix, batch, positives, workers, scored)
			for _, c := range scored {
				heap.Push(candidates, c)
			}
		}
		if candidates.Len() == 0 {
			break
		}
		// Take the candidate with the highest coverage over P (lines 4-7).
		best := heap.Pop(candidates).(cand)
		delete(inCandidates, best.key)
		inSelected[best.key] = true
		selected = append(selected, best.key)
		recent = best.key
	}
	return selected
}

// Build arranges the candidate keys into a hierarchy following the index's
// parent/child relationships (§3.2 "Hierarchical Arrangement and edge
// discovery"). If cfg.Cleanup is set, candidates that add no new positives
// beyond P are dropped first (bitset and-not count per candidate).
func Build(ix *index.Index, candidateKeys []string, positives bitset.Set, cfg Config) *Hierarchy {
	h := &Hierarchy{nodes: make(map[string]*Node, len(candidateKeys)+1)}
	h.add(grammar.Root(), ix.Root().Postings, ix.Root().Bits())

	cleanup := cfg.Cleanup && positives.Count() > 0
	for _, key := range candidateKeys {
		n := ix.Node(key)
		if n == nil {
			continue
		}
		if cleanup && ix.NewCoverageBits(key, positives) == 0 {
			continue
		}
		h.add(n.Heuristic, n.Postings, n.Bits())
	}
	h.LinkEdges(ix)
	return h
}

// LinkEdges recomputes parent/child edges between hierarchy nodes: a node's
// parents are its nearest materialized ancestors in the index (walking up
// grammatical parents), falling back to the root.
//
// Direct edges are read straight off the index's child lists instead of
// re-deriving each node's ancestry: every materialized node links its
// materialized index children in one pass (candidates arrive through those
// same child lists during generation, so most edges are found here). A node
// the pass leaves parentless checks the root in its sorted index parent
// list, and only then runs the upward BFS — whose bookkeeping is shared
// scratch, so regeneration allocates nothing per node on that path.
func (h *Hierarchy) LinkEdges(ix *index.Index) {
	for _, n := range h.nodes {
		n.Parents = n.Parents[:0]
		n.Children = n.Children[:0]
	}
	// Pass 1: direct edges via the index's child lists (root excluded: its
	// child list spans the whole index top level; root parenthood is the
	// cheap membership check below).
	for _, key := range h.order {
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
	// Pass 2: root edges for nodes the root directly parents, and the BFS
	// fallback for nodes with no materialized direct parent at all.
	root := h.nodes[grammar.RootKey]
	var sc linkScratch
	for _, key := range h.order {
		if key == grammar.RootKey {
			continue
		}
		n := h.nodes[key]
		parents := ix.Parents(key) // sorted
		if i := sort.SearchStrings(parents, grammar.RootKey); i < len(parents) && parents[i] == grammar.RootKey {
			n.Parents = append(n.Parents, grammar.RootKey)
			root.Children = append(root.Children, key)
			continue
		}
		if len(n.Parents) > 0 {
			continue
		}
		for _, pk := range h.bfsAncestors(key, parents, ix, &sc) {
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
}

// dedupSorted removes adjacent duplicates in place (duplicate index edges
// would otherwise double an edge found by both link passes).
func dedupSorted(xs []string) []string {
	out := xs[:0]
	prev := ""
	for i, x := range xs {
		if i > 0 && x == prev {
			continue
		}
		out = append(out, x)
		prev = x
	}
	return out
}

// linkScratch is the reusable BFS bookkeeping for bfsAncestors.
type linkScratch struct {
	visited  map[string]bool
	found    map[string]bool
	frontier []string
	next     []string
	out      []string
}

// bfsAncestors walks up the index's parent edges from key, level by level,
// and returns the nearest materialized ancestors (the root if none are
// found). It is the fallback for nodes with no materialized direct parent;
// semantics are unchanged from the original per-node search.
func (h *Hierarchy) bfsAncestors(key string, parents []string, ix *index.Index, sc *linkScratch) []string {
	if sc.visited == nil {
		sc.visited = make(map[string]bool)
		sc.found = make(map[string]bool)
	} else {
		clear(sc.visited)
		clear(sc.found)
	}
	sc.visited[key] = true
	sc.frontier = append(sc.frontier[:0], parents...)
	for len(sc.frontier) > 0 && len(sc.found) == 0 {
		sc.next = sc.next[:0]
		for _, pk := range sc.frontier {
			if sc.visited[pk] {
				continue
			}
			sc.visited[pk] = true
			if pk != key && h.Contains(pk) {
				sc.found[pk] = true
				continue
			}
			sc.next = append(sc.next, ix.Parents(pk)...)
		}
		sc.frontier, sc.next = sc.next, sc.frontier
	}
	if len(sc.found) == 0 {
		return []string{grammar.RootKey}
	}
	sc.out = sc.out[:0]
	for k := range sc.found {
		sc.out = append(sc.out, k)
	}
	sort.Strings(sc.out)
	return sc.out
}

// Generate runs candidate generation and arrangement in one call (the
// "heuristic-hierarchy generation" box of Figure 4) — the interactive hot
// path entry point.
func Generate(ix *index.Index, positives bitset.Set, cfg Config) *Hierarchy {
	defer regenDurations.ObserveSince(time.Now())
	regensTotal.Inc()
	keys := GenerateCandidates(ix, positives, cfg)
	return Build(ix, keys, positives, cfg)
}
