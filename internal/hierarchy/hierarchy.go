// Package hierarchy implements the heuristic-hierarchy generation component
// of §3.2: candidate generation (Algorithm 2 — a greedy best-first expansion
// of the index picking heuristics with high coverage over the discovered
// positives) and the hierarchical arrangement of the candidates with
// subset/superset edges plus the cleanup pass that drops heuristics adding no
// new positives.
//
// Candidate scoring runs on the index's coverage kernel (the compressed
// bitset.Adaptive by default, or the dense bitset.Set) — intersection +
// popcount against the positive set — and fans large scoring batches across
// a bounded worker pool.
//
// Regeneration works on the published index's node ordinals (see package
// index): candidate state, the candidate heap and edge linking are arrays
// indexed by ordinal, and keys are looked up once at the end. Ordinals never
// leave a Generate, GenerateCandidates, Build or LinkEdges call; a Hierarchy
// holds only keys, so it stays valid however the index is renumbered later.
package hierarchy

import (
	"runtime"
	"slices"
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
	// Bits is the rule's coverage set: the index node's published set (dense
	// or adaptive, per the index kernel) when the hierarchy was generated
	// from an index, built by Add otherwise. Never nil. Read-only.
	Bits bitset.Cover
	// Parents and Children are hierarchy edges (superset / subset).
	Parents  []string
	Children []string
}

// Hierarchy is the arrangement of candidate heuristics produced each
// iteration of the Darwin pipeline.
type Hierarchy struct {
	nodes map[string]*Node
	list  []*Node // insertion order, root first
	// nonRoot is the keys of list minus the root, maintained on insert so
	// NonRootKeys is allocation-free on the per-step hot path.
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
	out := make([]string, len(h.list))
	for i, n := range h.list {
		out[i] = n.Key
	}
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

// Add inserts a node for the heuristic with the given coverage (sorted
// sentence ids) if absent and returns it, building its coverage set. Edges
// are not recomputed automatically; call LinkEdges after a batch of
// additions.
func (h *Hierarchy) Add(heur grammar.Heuristic, coverage []int) *Node {
	key := heur.Key()
	if n, ok := h.nodes[key]; ok {
		return n
	}
	n := &Node{Key: key, Heuristic: heur, Bits: bitset.AdaptiveFromSorted(coverage)}
	h.insert(n)
	return n
}

// insert records a node whose key is not yet present.
func (h *Hierarchy) insert(n *Node) {
	h.nodes[n.Key] = n
	h.list = append(h.list, n)
	if n.Key != grammar.RootKey {
		h.nonRoot = append(h.nonRoot, n.Key)
	}
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
// positives (primary) and its total coverage (tie-break), identified by its
// index ordinal.
type cand struct {
	overlap int
	total   int
	ord     int32
}

// before reports whether a pops before b: larger overlap, then larger total
// coverage, then the smaller ordinal — which is the smaller key, since
// ordinals rank keys.
func (a cand) before(b cand) bool {
	if a.overlap != b.overlap {
		return a.overlap > b.overlap
	}
	if a.total != b.total {
		return a.total > b.total
	}
	return a.ord < b.ord
}

// candHeap is a binary heap of candidates whose top is the one that pops
// first under cand.before.
type candHeap []cand

func (h *candHeap) push(c cand) {
	s := append(*h, c)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *candHeap) pop() cand {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= last {
			break
		}
		if r := m + 1; r < last && s[r].before(s[m]) {
			m = r
		}
		if !s[m].before(s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
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

// scoreBatch scores a batch of eligible ordinals against the positive set,
// writing results in batch order (deterministic regardless of parallelism).
func scoreBatch(nodes []*index.Node, ords []int32, pos bitset.Set, workers int, out []cand) {
	if workers <= 1 || len(ords) < scoreParallelThreshold {
		scoreRange(nodes, ords, pos, out)
		return
	}
	var wg sync.WaitGroup
	per := (len(ords) + workers - 1) / workers
	for lo := 0; lo < len(ords); lo += per {
		hi := min(lo+per, len(ords))
		wg.Add(1)
		go func() {
			defer wg.Done()
			scoreRange(nodes, ords[lo:hi], pos, out[lo:hi])
		}()
	}
	wg.Wait()
}

// scoreRange scores ords into out serially.
func scoreRange(nodes []*index.Node, ords []int32, pos bitset.Set, out []cand) {
	for i, o := range ords {
		n := nodes[o]
		out[i] = cand{overlap: n.Bits().AndCount(pos), total: n.Count(), ord: o}
	}
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
	keys := ix.Keys()
	ords := generateOrds(ix, positives, cfg)
	out := make([]string, len(ords))
	for i, o := range ords {
		out[i] = keys[o]
	}
	return out
}

// Candidate states in Algorithm 2, indexed by ordinal.
const (
	unseen uint8 = iota
	queued
	taken
)

// generateOrds is GenerateCandidates on ordinals: it returns the selected
// candidates' ordinals in selection order.
func generateOrds(ix *index.Index, positives bitset.Set, cfg Config) []int32 {
	k := cfg.NumCandidates
	if k <= 0 {
		k = 10000
	}
	workers := resolveWorkers(cfg)
	nodes := ix.NodesByOrd()

	selected := make([]int32, 0, min(k, len(nodes)))
	state := make([]uint8, len(nodes))
	var candidates candHeap
	var batch []int32
	var scored []cand
	recent := int32(ix.Root().Ord())
	state[recent] = taken
	for len(selected) < k {
		// Add children of the most recently selected heuristic (line 3).
		batch = batch[:0]
		for _, c := range nodes[recent].ChildOrds() {
			if state[c] != unseen {
				continue
			}
			n := nodes[c]
			if cfg.MaxRuleDepth > 0 && n.Depth() > cfg.MaxRuleDepth {
				continue
			}
			if cfg.MinCoverage > 0 && n.Count() < cfg.MinCoverage {
				continue
			}
			state[c] = queued
			batch = append(batch, c)
		}
		if len(batch) > 0 {
			if cap(scored) < len(batch) {
				scored = make([]cand, len(batch))
			}
			scored = scored[:len(batch)]
			scoreBatch(nodes, batch, positives, workers, scored)
			for _, c := range scored {
				candidates.push(c)
			}
		}
		if len(candidates) == 0 {
			break
		}
		// Take the candidate with the highest coverage over P (lines 4-7).
		best := candidates.pop()
		state[best.ord] = taken
		selected = append(selected, best.ord)
		recent = best.ord
	}
	return selected
}

// Build arranges the candidate keys into a hierarchy following the index's
// parent/child relationships (§3.2 "Hierarchical Arrangement and edge
// discovery"). If cfg.Cleanup is set, candidates that add no new positives
// beyond P are dropped first (bitset and-not count per candidate).
func Build(ix *index.Index, candidateKeys []string, positives bitset.Set, cfg Config) *Hierarchy {
	ords := make([]int32, 0, len(candidateKeys))
	for _, key := range candidateKeys {
		if n := ix.Node(key); n != nil {
			ords = append(ords, int32(n.Ord()))
		}
	}
	return buildOrds(ix, ords, positives, cfg)
}

// buildOrds is Build on ordinals. Every node, root first, is allocated in
// one slice.
func buildOrds(ix *index.Index, ords []int32, positives bitset.Set, cfg Config) *Hierarchy {
	nodes := ix.NodesByOrd()
	keys := ix.Keys()
	root := ix.Root()
	// at maps an ordinal to its hierarchy position + 1 (0: not a member).
	at := make([]int32, len(nodes))
	members := make([]int32, 1, len(ords)+1)
	members[0] = int32(root.Ord())
	at[members[0]] = 1
	cleanup := cfg.Cleanup && positives.Count() > 0
	for _, o := range ords {
		if at[o] != 0 {
			continue
		}
		if cleanup && nodes[o].Bits().AndNotCount(positives) == 0 {
			continue
		}
		members = append(members, o)
		at[o] = int32(len(members))
	}

	h := &Hierarchy{
		nodes:   make(map[string]*Node, len(members)),
		list:    make([]*Node, 0, len(members)),
		nonRoot: make([]string, 0, len(members)-1),
	}
	arena := make([]Node, len(members))
	for i, o := range members {
		n := nodes[o]
		arena[i] = Node{Key: keys[o], Heuristic: n.Heuristic, Bits: n.Bits()}
		h.insert(&arena[i])
	}
	h.link(nodes, keys, members, at)
	return h
}

// LinkEdges recomputes parent/child edges between hierarchy nodes: a node's
// parents are its nearest materialized ancestors in the index (walking up
// grammatical parents), falling back to the root. Nodes whose keys the index
// does not hold (added by hand) hang off the root.
func (h *Hierarchy) LinkEdges(ix *index.Index) {
	nodes := ix.NodesByOrd()
	at := make([]int32, len(nodes))
	members := make([]int32, len(h.list))
	for i, n := range h.list {
		members[i] = -1
		if in := ix.Node(n.Key); in != nil {
			members[i] = int32(in.Ord())
			at[members[i]] = int32(i + 1)
		}
	}
	h.link(nodes, ix.Keys(), members, at)
}

// edge is a hierarchy edge between two positions in h.list.
type edge struct{ parent, child int32 }

// link computes the hierarchy edges over ordinals. members[i] is the
// ordinal of h.list[i] (-1 when the index does not hold it; h.list[0] is the
// root) and at is its inverse (position + 1, 0 for non-members).
//
// Direct edges are read straight off the index's child lists instead of
// re-deriving each node's ancestry: every materialized node links its
// materialized index children in one pass (candidates arrive through those
// same child lists during generation, so most edges are found here). A node
// the pass leaves parentless checks the root in its sorted index parent
// list, and only then runs the upward BFS, whose visited marks are
// epoch-stamped so no per-node state is cleared. Each node's edge lists are
// sorted and deduplicated as ordinals, then spelled out as keys in one
// shared arena.
func (h *Hierarchy) link(nodes []*index.Node, keys []string, members, at []int32) {
	var edges []edge
	hasParent := make([]bool, len(members))
	// Pass 1: direct edges via the index's child lists (root excluded: its
	// child list spans the whole index top level; root parenthood is the
	// cheap membership check below).
	for i := 1; i < len(members); i++ {
		o := members[i]
		if o < 0 {
			continue
		}
		for _, c := range nodes[o].ChildOrds() {
			if c == o || at[c] == 0 {
				continue
			}
			edges = append(edges, edge{int32(i), at[c] - 1})
			hasParent[at[c]-1] = true
		}
	}
	// Pass 2: root edges for nodes the root directly parents, and the BFS
	// fallback for nodes with no materialized direct parent at all.
	rootOrd := members[0]
	var mark []uint32
	var epoch uint32
	var frontier, next, found []int32
	for i := 1; i < len(members); i++ {
		o := members[i]
		if o < 0 {
			edges = append(edges, edge{0, int32(i)})
			continue
		}
		parents := nodes[o].ParentOrds()
		if _, ok := slices.BinarySearch(parents, rootOrd); ok {
			edges = append(edges, edge{0, int32(i)})
			continue
		}
		if hasParent[i] {
			continue
		}
		if mark == nil {
			mark = make([]uint32, len(nodes))
		}
		epoch++
		mark[o] = epoch
		frontier = append(frontier[:0], parents...)
		found = found[:0]
		for len(frontier) > 0 && len(found) == 0 {
			next = next[:0]
			for _, p := range frontier {
				if mark[p] == epoch {
					continue
				}
				mark[p] = epoch
				if at[p] != 0 {
					found = append(found, p)
					continue
				}
				next = append(next, nodes[p].ParentOrds()...)
			}
			frontier, next = next, frontier
		}
		if len(found) == 0 {
			edges = append(edges, edge{0, int32(i)})
		}
		for _, p := range found {
			edges = append(edges, edge{at[p] - 1, int32(i)})
		}
	}
	h.spellEdges(keys, members, edges)
}

// spellEdges turns the edge list into each node's sorted, deduplicated
// Parents and Children key lists, all cut from one shared arena.
func (h *Hierarchy) spellEdges(keys []string, members []int32, edges []edge) {
	m := len(members)
	// rank orders positions like their keys: the ordinal, or past every
	// ordinal for nodes the index does not hold (only ever root children,
	// which are re-sorted by key below).
	rank := func(i int32) int32 {
		if members[i] >= 0 {
			return members[i]
		}
		return int32(len(keys)) + i
	}
	keyOf := func(r int32) string {
		if int(r) < len(keys) {
			return keys[r]
		}
		return h.list[int(r)-len(keys)].Key
	}
	// Lists for position i: children in [2i], parents in [2i+1].
	off := make([]int32, 2*m+1)
	for _, e := range edges {
		off[2*e.parent+1]++
		off[2*e.child+2]++
	}
	for j := 1; j < len(off); j++ {
		off[j] += off[j-1]
	}
	ranks := make([]int32, 2*len(edges))
	fill := slices.Clone(off[:2*m])
	for _, e := range edges {
		ranks[fill[2*e.parent]] = rank(e.child)
		fill[2*e.parent]++
		ranks[fill[2*e.child+1]] = rank(e.parent)
		fill[2*e.child+1]++
	}
	total := 0
	for j := range fill {
		list := ranks[off[j]:fill[j]]
		slices.Sort(list)
		fill[j] = off[j] + int32(len(slices.Compact(list)))
		total += int(fill[j] - off[j])
	}
	arena := make([]string, 0, total)
	spell := func(j int) []string {
		if fill[j] == off[j] {
			return nil
		}
		start := len(arena)
		for _, r := range ranks[off[j]:fill[j]] {
			arena = append(arena, keyOf(r))
		}
		return arena[start:len(arena):len(arena)]
	}
	for i, n := range h.list {
		n.Children = spell(2 * i)
		n.Parents = spell(2*i + 1)
	}
	if slices.Contains(members, -1) {
		sort.Strings(h.list[0].Children)
	}
}

// Generate runs candidate generation and arrangement in one call (the
// "heuristic-hierarchy generation" box of Figure 4) — the interactive hot
// path entry point.
func Generate(ix *index.Index, positives bitset.Set, cfg Config) *Hierarchy {
	defer regenDurations.ObserveSince(time.Now())
	regensTotal.Inc()
	return buildOrds(ix, generateOrds(ix, positives, cfg), positives, cfg)
}
