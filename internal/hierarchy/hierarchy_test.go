package hierarchy

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

func buildIndex(t *testing.T) (*corpus.Corpus, *index.Index) {
	t.Helper()
	c := corpus.New("h", "t")
	texts := []struct {
		text string
		gold corpus.Label
	}{
		{"what is the best way to get to the airport", corpus.Positive},
		{"what is the best way to get to the station", corpus.Positive},
		{"is there a shuttle to the airport", corpus.Positive},
		{"is there a shuttle to the hotel", corpus.Positive},
		{"the shuttle to the airport is free", corpus.Positive},
		{"what is the best way to order food", corpus.Negative},
		{"what is the best way to check in", corpus.Negative},
		{"can i order a pizza to my room", corpus.Negative},
		{"the wifi password is not working", corpus.Negative},
		{"is breakfast included with my room", corpus.Negative},
	}
	for _, s := range texts {
		c.Add(s.text, s.gold)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	reg := grammar.NewRegistry(tokensregex.New())
	b := sketch.NewBuilder(reg, 4)
	ix := index.Build(c, b)
	return c, ix
}

func TestGenerateCandidatesPrefersOverlap(t *testing.T) {
	_, ix := buildIndex(t)
	// P = the two "best way to get to" sentences.
	p := bitset.FromSorted([]int{0, 1})
	cfg := Config{NumCandidates: 20, MaxRuleDepth: 4, MinCoverage: 2}
	keys := GenerateCandidates(ix, p, cfg)
	if len(keys) == 0 {
		t.Fatal("no candidates generated")
	}
	if len(keys) > 20 {
		t.Fatalf("generated %d candidates, budget 20", len(keys))
	}
	// The first candidate must overlap P (greedy best-first by overlap).
	first := keys[0]
	if ix.OverlapBits(first, p) == 0 {
		t.Errorf("first candidate %q has no overlap with P", first)
	}
	// No candidate may violate the constraints.
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("duplicate candidate %q", k)
		}
		seen[k] = true
		if ix.Count(k) < 2 {
			t.Errorf("candidate %q below MinCoverage", k)
		}
		if ix.Node(k).Heuristic.Depth() > 4 {
			t.Errorf("candidate %q exceeds MaxRuleDepth", k)
		}
		if k == grammar.RootKey {
			t.Error("root returned as candidate")
		}
	}
}

func TestGenerateCandidatesDefaultsAndExhaustion(t *testing.T) {
	_, ix := buildIndex(t)
	keys := GenerateCandidates(ix, nil, Config{NumCandidates: 1000000, MinCoverage: 2})
	// Exhausts the reachable index rather than looping forever.
	if len(keys) == 0 || len(keys) > ix.Len() {
		t.Errorf("exhaustive generation returned %d candidates (index %d)", len(keys), ix.Len())
	}
	// Zero config uses the 10K default without panicking.
	keys2 := GenerateCandidates(ix, nil, Config{})
	if len(keys2) == 0 {
		t.Error("default config generated nothing")
	}
}

func TestBuildHierarchyEdgesAndCleanup(t *testing.T) {
	_, ix := buildIndex(t)
	p := bitset.FromSorted([]int{0, 1})
	cfg := Config{NumCandidates: 50, MaxRuleDepth: 4, MinCoverage: 2, Cleanup: true}
	keys := GenerateCandidates(ix, p, cfg)
	h := Build(ix, keys, p, cfg)

	if h.Root() == nil {
		t.Fatal("hierarchy has no root")
	}
	if h.Len() < 2 {
		t.Fatalf("hierarchy too small: %d", h.Len())
	}
	for _, key := range h.NonRootKeys() {
		n := h.Node(key)
		if len(n.Parents) == 0 {
			t.Errorf("node %q has no parents", key)
		}
		// Cleanup: every surviving rule adds at least one new sentence.
		if ix.NewCoverageBits(key, p) == 0 {
			t.Errorf("node %q adds no new positives but survived cleanup", key)
		}
		// Edge symmetry and subset relation.
		for _, pk := range n.Parents {
			parent := h.Node(pk)
			if parent == nil {
				t.Fatalf("dangling parent %q of %q", pk, key)
			}
			found := false
			for _, ck := range parent.Children {
				if ck == key {
					found = true
				}
			}
			if !found {
				t.Errorf("edge asymmetry between %q and %q", key, pk)
			}
			if pk == grammar.RootKey {
				continue
			}
			pset := map[int]bool{}
			for _, id := range parent.Coverage {
				pset[id] = true
			}
			for _, id := range n.Coverage {
				if !pset[id] {
					t.Errorf("hierarchy parent %q does not cover %d covered by %q", pk, id, key)
				}
			}
		}
	}
}

func TestBuildSkipsUnknownKeys(t *testing.T) {
	_, ix := buildIndex(t)
	h := Build(ix, []string{"tokensregex:never seen phrase"}, nil, Config{})
	if h.Len() != 1 {
		t.Errorf("unknown key materialized: %d nodes", h.Len())
	}
}

func TestHierarchyAccessors(t *testing.T) {
	_, ix := buildIndex(t)
	cfg := DefaultConfig()
	cfg.NumCandidates = 30
	h := Generate(ix, bitset.FromSorted([]int{0}), cfg)
	if !h.Contains(grammar.RootKey) {
		t.Error("root missing")
	}
	if h.Node("nope") != nil {
		t.Error("Node(nope) != nil")
	}
	keys := h.Keys()
	if len(keys) != h.Len() {
		t.Errorf("Keys len %d != Len %d", len(keys), h.Len())
	}
	if keys[0] != grammar.RootKey {
		t.Errorf("first key = %q, want root", keys[0])
	}
	if len(h.NonRootKeys()) != h.Len()-1 {
		t.Error("NonRootKeys wrong size")
	}
	for _, key := range keys {
		if h.Node(key).Bits == nil {
			t.Errorf("node %q has no coverage bits", key)
		}
	}
	// A node added by hand gets its bits from the posting list.
	heur, err := grammar.NewRegistry(tokensregex.New()).Parse("never seen phrase")
	if err != nil {
		t.Fatal(err)
	}
	if n := h.Add(heur, []int{2, 5}); n.Bits == nil || n.Bits.Count() != 2 || !n.Bits.Contains(5) {
		t.Errorf("hand-added node bits = %v", n.Bits)
	}
	// Add is idempotent per key.
	n1 := h.Add(grammar.Root(), nil)
	n2 := h.Add(grammar.Root(), nil)
	if n1 != n2 {
		t.Error("Add duplicated the root")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumCandidates != 10000 || !cfg.Cleanup {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}
