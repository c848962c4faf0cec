package traversal

import (
	"repro/internal/hierarchy"
	"repro/internal/obs"
)

// benefitEvals counts the candidate benefits that picks read, by where the
// value came from: the loop's memo, or a kernel pass (a cold memo fill, an
// index-only neighbour, or a state without a memo).
var (
	benefitEvals = obs.Default().CounterVec("darwin_traversal_benefit_evals_total",
		"Candidate benefit evaluations made by traversal picks, by source: memo (cached for the loop's hierarchy, P and scores) or kernel (one and-not-sum pass).", "source")
	memoEvals   = benefitEvals.With("memo")
	kernelEvals = benefitEvals.With("kernel")
)

// evals tallies one pick's benefit evaluations by source.
type evals struct{ memo, kernel uint64 }

// publish adds the tally to the benefit-evaluation counter.
func (ev *evals) publish() {
	if ev.memo > 0 {
		memoEvals.Add(ev.memo)
	}
	if ev.kernel > 0 {
		kernelEvals.Add(ev.kernel)
	}
}

// Memo caches (benefit, |C_r \ P|) for the nodes of one hierarchy under one
// positive set and one score vector. A candidate's benefit depends on
// nothing else (Queried only decides whether it is eligible, and is read
// live), so after a rejected answer every cached value still holds and the
// next pick is a scan of the cache. Values are filled lazily, the first
// time a pick or a Take scores the node.
//
// The holder stamps the memo with the hierarchy and with versions of P and
// the scores that it bumps whenever either changes (see core.Loop); a
// changed stamp drops every value. The zero Memo is empty.
type Memo struct {
	hier       *hierarchy.Hierarchy
	pVer, sVer uint64
	// vals is indexed by hierarchy.Node.Pos; newCov < 0 marks a node not
	// scored yet.
	vals []memoVal
}

type memoVal struct {
	benefit float64
	newCov  int
}

// Stamp readies m to score h's nodes against the P version pVer and the
// scores version sVer, dropping every cached value unless all three match
// the previous stamp.
func (m *Memo) Stamp(h *hierarchy.Hierarchy, pVer, sVer uint64) {
	if m.hier == h && m.pVer == pVer && m.sVer == sVer {
		return
	}
	m.hier, m.pVer, m.sVer = h, pVer, sVer
	n := h.Len()
	if cap(m.vals) < n {
		m.vals = make([]memoVal, n)
	}
	m.vals = m.vals[:n]
	for i := range m.vals {
		m.vals[i].newCov = -1
	}
}

// eval returns (benefit, |C_r \ P|) for a rule key, counting the evaluation
// in ev. A hierarchy node is scored by evalNode; an index-only key (a
// local-search neighbour) is scored by the kernel. Unknown keys and empty
// coverage score (0, 0) without an evaluation.
func (st *State) eval(key string, ev *evals) (float64, int) {
	if hn := st.Hierarchy.Node(key); hn != nil {
		return st.evalNode(hn, ev)
	}
	cov, n := st.lookup(key)
	if n == 0 {
		return 0, 0
	}
	ev.kernel++
	return cov.AndNotSum(st.Positives, st.Scores)
}

// evalNode returns (benefit, |C_r \ P|) for a node of the state's
// hierarchy: from the state's memo when it holds the node, else by one
// kernel pass whose result fills the memo.
func (st *State) evalNode(hn *hierarchy.Node, ev *evals) (float64, int) {
	var v *memoVal
	if m := st.Memo; m != nil && m.hier == st.Hierarchy {
		v = &m.vals[hn.Pos()]
		if v.newCov >= 0 {
			ev.memo++
			return v.benefit, v.newCov
		}
	}
	if hn.Bits.Count() == 0 {
		return 0, 0
	}
	ev.kernel++
	b, newCov := hn.Bits.AndNotSum(st.Positives, st.Scores)
	if v != nil {
		v.benefit, v.newCov = b, newCov
	}
	return b, newCov
}

// Marks is a set of rule keys held as a mask over one hierarchy's node
// positions; keys the hierarchy does not hold are not represented. core.Loop
// keeps its queried keys in one, in step with State.Queried, so a pick tests
// a candidate by position instead of hashing its key. The zero Marks is
// built for no hierarchy.
type Marks struct {
	hier *hierarchy.Hierarchy
	set  []bool
}

// Reset rebuilds m for h from the keys marked in keys.
func (m *Marks) Reset(h *hierarchy.Hierarchy, keys map[string]bool) {
	m.hier = h
	n := h.Len()
	if cap(m.set) < n {
		m.set = make([]bool, n)
	}
	m.set = m.set[:n]
	clear(m.set)
	for key, on := range keys {
		if hn := h.Node(key); hn != nil && on {
			m.set[hn.Pos()] = true
		}
	}
}

// Mark sets (on) or clears key's position; a key the hierarchy does not hold
// is left out.
func (m *Marks) Mark(key string, on bool) {
	if hn := m.hier.Node(key); hn != nil {
		m.set[hn.Pos()] = on
	}
}

// For returns the mask indexed by h's node positions, or nil when m is nil
// or was built for another hierarchy.
func (m *Marks) For(h *hierarchy.Hierarchy) []bool {
	if m == nil || m.hier != h || h == nil {
		return nil
	}
	return m.set
}
