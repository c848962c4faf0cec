package traversal

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
)

// buildState constructs a small directions-style corpus, its index and
// hierarchy, and a State whose classifier scores equal the gold labels
// (a perfect classifier).
func buildState(t *testing.T, positiveIDs ...int) (*corpus.Corpus, *State) {
	t.Helper()
	c := corpus.New("tr", "t")
	texts := []struct {
		text string
		gold corpus.Label
	}{
		{"what is the best way to get to the airport", corpus.Positive}, // 0
		{"what is the best way to get to the station", corpus.Positive}, // 1
		{"is there a shuttle to the airport", corpus.Positive},          // 2
		{"is there a shuttle to the hotel", corpus.Positive},            // 3
		{"the shuttle to the airport is free", corpus.Positive},         // 4
		{"which bus goes to the airport", corpus.Positive},              // 5
		{"what is the best way to order food", corpus.Negative},         // 6
		{"what is the best way to check in", corpus.Negative},           // 7
		{"can i order a pizza to my room", corpus.Negative},             // 8
		{"the wifi password is not working", corpus.Negative},           // 9
		{"is breakfast included with my room", corpus.Negative},         // 10
		{"can i get a late checkout", corpus.Negative},                  // 11
	}
	for _, s := range texts {
		c.Add(s.text, s.gold)
	}
	c.Preprocess(corpus.PreprocessOptions{})

	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 4))

	positives := bitset.New(c.Len())
	for _, id := range positiveIDs {
		positives.Add(id)
	}
	hcfg := hierarchy.Config{NumCandidates: 200, MaxRuleDepth: 4, MinCoverage: 2, Cleanup: true}
	h := hierarchy.Generate(ix, positives, hcfg)

	scores := make([]float64, c.Len())
	for id, s := range c.Sentences {
		if s.Gold == corpus.Positive {
			scores[id] = 0.9
		} else {
			scores[id] = 0.1
		}
	}
	return c, &State{
		Hierarchy: h,
		Index:     ix,
		Positives: positives,
		Scores:    scores,
		Queried:   map[string]bool{},
	}
}

// TestBenefitAndAvgBenefit scores hand-added hierarchy nodes, whose
// coverage bits Add materializes from the posting list.
func TestBenefitAndAvgBenefit(t *testing.T) {
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.New()
	h := hierarchy.Build(ix, nil, nil, hierarchy.Config{})
	rule := func(spec string, cov ...int) string {
		heur, err := reg.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		h.Add(heur, cov)
		return heur.Key()
	}
	partial := rule("best way", 0, 1, 2)
	covered := rule("airport", 0)
	dangling := rule("shuttle", 99)
	st := &State{Hierarchy: h, Index: ix, Positives: bitset.FromSorted([]int{0}), Scores: []float64{0.9, 0.8, 0.1, 0.5}}
	if got := st.BenefitOf(partial); got != 0.9 {
		t.Errorf("Benefit = %f, want 0.9 (0.8+0.1)", got)
	}
	if got := st.AvgBenefitOf(partial); got != 0.45 {
		t.Errorf("AvgBenefit = %f, want 0.45", got)
	}
	// Fully covered rule has zero average benefit.
	if got := st.AvgBenefitOf(covered); got != 0 {
		t.Errorf("AvgBenefit of covered rule = %f", got)
	}
	// Out-of-range IDs contribute nothing.
	if got := st.BenefitOf(dangling); got != 0 {
		t.Errorf("Benefit with dangling ID = %f", got)
	}
	// Unknown keys score (0, 0).
	if b, newCov := st.BenefitNewOf("tokensregex:no such rule"); b != 0 || newCov != 0 {
		t.Errorf("unknown key scored (%f, %d)", b, newCov)
	}
}

func TestUniversalSearchPicksPreciseHighBenefit(t *testing.T) {
	_, st := buildState(t, 0)
	us := NewUniversalSearch()
	key, ok := us.Next(st)
	if !ok {
		t.Fatal("no candidate")
	}
	// With a perfect classifier the chosen rule must have average benefit
	// above 0.5 and positive benefit.
	if st.AvgBenefitOf(key) <= MinAvgBenefit {
		t.Errorf("chosen rule %q has avg benefit %.2f", key, st.AvgBenefitOf(key))
	}
	if st.BenefitOf(key) <= 0 {
		t.Errorf("chosen rule %q has benefit %.2f", key, st.BenefitOf(key))
	}
	// Feedback and Reseed are no-ops but must not panic.
	us.Feedback(st, key, true)
	us.Reseed(st, key)
}

func TestUniversalSearchRelaxFallback(t *testing.T) {
	_, st := buildState(t, 0)
	// Make every score low so nothing passes the 0.5 filter.
	for i := range st.Scores {
		st.Scores[i] = 0.05
	}
	strict := &UniversalSearch{Relax: false}
	if _, ok := strict.Next(st); ok {
		t.Error("strict universal search should find nothing")
	}
	relaxed := NewUniversalSearch()
	if _, ok := relaxed.Next(st); !ok {
		t.Error("relaxed universal search should fall back")
	}
}

func TestUniversalSearchSkipsQueried(t *testing.T) {
	_, st := buildState(t, 0)
	us := NewUniversalSearch()
	first, ok := us.Next(st)
	if !ok {
		t.Fatal("no candidate")
	}
	st.Queried[first] = true
	second, ok := us.Next(st)
	if !ok {
		t.Fatal("no second candidate")
	}
	if second == first {
		t.Error("queried rule proposed again")
	}
}

func TestLocalSearchExploresNeighborhood(t *testing.T) {
	seed := "tokensregex:shuttle to the"
	_, st := buildState(t, 2, 3, 4)
	ls := NewLocalSearch(seed)
	st.Queried[seed] = true
	if ls.CandidateCount() != 1 {
		t.Fatalf("initial candidates = %d", ls.CandidateCount())
	}
	// The seed itself is queried: Next falls back to the hierarchy rule with
	// the best overlap with P rather than stalling.
	if key, ok := ls.Next(st); !ok {
		t.Fatal("Next should bootstrap from the hierarchy when the frontier is exhausted")
	} else if st.Index.OverlapBits(key, st.Positives) == 0 {
		t.Errorf("bootstrap pick %q has no overlap with P", key)
	}
	ls.Reseed(st, seed)
	key, ok := ls.Next(st)
	if !ok {
		t.Fatalf("no candidate after reseed (candidates=%d)", ls.CandidateCount())
	}
	// The chosen rule must be a structural neighbor of the seed (parent or
	// child in the index), i.e. share the token "shuttle" or extend the seed.
	if st.Index.Node(key) == nil && st.Hierarchy.Node(key) == nil {
		t.Errorf("chosen rule %q unknown to index and hierarchy", key)
	}

	// Accepting adds parents; rejecting adds children.
	before := ls.CandidateCount()
	ls.Feedback(st, key, true)
	if ls.CandidateCount() == before {
		t.Log("accepting did not grow the candidate set (parents may be exhausted)")
	}
	key2, ok := ls.Next(st)
	if ok {
		st.Queried[key2] = true
		ls.Feedback(st, key2, false)
	}
}

func TestLocalSearchIgnoresRootSeed(t *testing.T) {
	ls := NewLocalSearch(grammar.RootKey, "")
	if ls.CandidateCount() != 0 {
		t.Errorf("root/empty seeds should be ignored: %d", ls.CandidateCount())
	}
	if ls.Name() != "local" {
		t.Errorf("Name = %q", ls.Name())
	}
}

func TestHybridSearchTogglesAfterTau(t *testing.T) {
	_, st := buildState(t, 0)
	hs := NewHybridSearch(2, "tokensregex:best way to get to")
	if !hs.InUniversalMode() {
		t.Fatal("hybrid should start in universal mode")
	}
	// Two consecutive rejected proposals exhaust τ=2 and flip the mode on the
	// third call.
	for i := 0; i < 2; i++ {
		key, ok := hs.Next(st)
		if !ok {
			t.Fatalf("no candidate at attempt %d", i)
		}
		st.Queried[key] = true
		hs.Feedback(st, key, false)
	}
	if _, ok := hs.Next(st); !ok {
		t.Fatal("no candidate after toggle")
	}
	if hs.InUniversalMode() {
		t.Error("hybrid did not toggle to local mode after τ failures")
	}
	// An acceptance resets the attempt counter.
	key, ok := hs.Next(st)
	if ok {
		st.Queried[key] = true
		hs.Feedback(st, key, true)
	}
}

func TestHybridSearchDefaults(t *testing.T) {
	hs := NewHybridSearch(0)
	if hs.Tau != DefaultTau {
		t.Errorf("Tau = %d, want %d", hs.Tau, DefaultTau)
	}
	if hs.Name() != "hybrid" {
		t.Errorf("Name = %q", hs.Name())
	}
}

func TestNewByName(t *testing.T) {
	if New("local", 5).Name() != "local" {
		t.Error("New(local)")
	}
	if New("us", 5).Name() != "universal" {
		t.Error("New(us)")
	}
	if New("hybrid", 5).Name() != "hybrid" {
		t.Error("New(hybrid)")
	}
	if New("anything-else", 5).Name() != "hybrid" {
		t.Error("fallback should be hybrid")
	}
}

func TestPickBestSkipsExhaustedRules(t *testing.T) {
	_, st := buildState(t)
	// Mark every sentence as already positive: every rule adds nothing.
	for id := 0; id < len(st.Scores); id++ {
		st.Positives.Add(id)
	}
	if key, ok := PickBest(st, st.Hierarchy.NonRootKeys(), 0); ok {
		t.Errorf("PickBest returned %q although nothing adds new coverage", key)
	}
}
