// Package bitset implements the sets of sentence IDs the interactive hot
// path works on: the compressed Adaptive, which holds every index node's
// coverage, and the dense Set of []uint64 words, which holds the positive
// set P and corpus-sized accumulators. Candidate scoring, cleanup and
// traversal reduce to fused Adaptive-vs-Set kernels instead of per-id map
// lookups over posting lists; the dense package kernels below are their
// reference.
//
// Sets are plain slices: a nil Set is a valid empty set, and all binary
// operations tolerate operands of different lengths (missing words are
// treated as zero). Sets are not goroutine-safe for mutation, but any number
// of goroutines may read (And*, Count, Contains, Range, sums) concurrently
// once a set is no longer mutated.
package bitset

import "math/bits"

const wordBits = 64

// Set is a dense bitset. The i-th bit of word i/64 records membership of id i.
type Set []uint64

// New returns a set with capacity for ids in [0, n).
func New(n int) Set {
	if n <= 0 {
		return nil
	}
	return make(Set, (n+wordBits-1)/wordBits)
}

// FromSorted builds a set from a list of non-negative ids (duplicates are
// fine; the list does not actually need to be sorted). The set is sized to
// the largest id present.
func FromSorted(ids []int) Set {
	if len(ids) == 0 {
		return nil
	}
	max := 0
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	s := New(max + 1)
	for _, id := range ids {
		if id >= 0 {
			s[id/wordBits] |= 1 << uint(id%wordBits)
		}
	}
	return s
}

// FromMap builds a set from a map of non-negative ids (negative keys are
// ignored). The set is sized to the largest id present.
func FromMap(ids map[int]bool) Set {
	max := -1
	for id, ok := range ids {
		if ok && id > max {
			max = id
		}
	}
	if max < 0 {
		return nil
	}
	s := New(max + 1)
	for id, ok := range ids {
		if ok && id >= 0 {
			s.Add(id)
		}
	}
	return s
}

// Add sets bit id. The set must have been sized to hold it (New(n) with
// id < n); Add panics on out-of-range ids rather than growing, because every
// caller in the engine knows the corpus size up front.
func (s Set) Add(id int) {
	s[id/wordBits] |= 1 << uint(id%wordBits)
}

// Contains reports whether bit id is set. Out-of-range ids are absent.
func (s Set) Contains(id int) bool {
	if id < 0 {
		return false
	}
	w := id / wordBits
	if w >= len(s) {
		return false
	}
	return s[w]&(1<<uint(id%wordBits)) != 0
}

// Count returns the number of set bits (popcount).
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Grow returns a set that can hold ids in [0, n): s itself when it is already
// large enough, otherwise a fresh copy with a zeroed tail. Live-corpus
// consumers use it to extend their positive sets when the corpus grows.
func (s Set) Grow(n int) Set {
	if words := (n + 63) / 64; words > len(s) {
		out := make(Set, words)
		copy(out, s)
		return out
	}
	return s
}

// Clear zeroes every bit, keeping the capacity.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Range calls fn for every set bit in ascending id order, stopping early if
// fn returns false.
func (s Set) Range(fn func(id int) bool) {
	for i, w := range s {
		base := i * wordBits
		for w != 0 {
			id := base + bits.TrailingZeros64(w)
			if !fn(id) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendTo appends the set's ids in ascending order to dst and returns it.
func (s Set) AppendTo(dst []int) []int {
	for i, w := range s {
		base := i * wordBits
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// And returns a ∩ b as a new set.
func And(a, b Set) Set {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return nil
	}
	out := make(Set, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] & b[i]
	}
	return out
}

// AndNot returns a \ b as a new set.
func AndNot(a, b Set) Set {
	if len(a) == 0 {
		return nil
	}
	out := make(Set, len(a))
	for i, w := range a {
		if i < len(b) {
			out[i] = w &^ b[i]
		} else {
			out[i] = w
		}
	}
	return out
}

// Or returns a ∪ b as a new set sized to the longer operand.
func Or(a, b Set) Set {
	if len(b) > len(a) {
		a, b = b, a
	}
	if len(a) == 0 {
		return nil
	}
	out := make(Set, len(a))
	copy(out, a)
	for i, w := range b {
		out[i] |= w
	}
	return out
}

// Union ors src into dst in place, growing dst if src is longer, and returns
// the (possibly reallocated) destination. It is the accumulator of the batch
// rule-application path: the union coverage of a rule committee is built by
// folding each rule's coverage bitset into one running set.
func Union(dst, src Set) Set {
	if len(src) > len(dst) {
		grown := make(Set, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, w := range src {
		dst[i] |= w
	}
	return dst
}

// AndCount returns |a ∩ b| without materializing the intersection.
func AndCount(a, b Set) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// AndNotCount returns |a \ b| without materializing the difference.
func AndNotCount(a, b Set) int {
	c := 0
	for i, w := range a {
		if i < len(b) {
			c += bits.OnesCount64(w &^ b[i])
		} else {
			c += bits.OnesCount64(w)
		}
	}
	return c
}

// AndNotSum returns Σ_{id ∈ a \ b} w[id] together with |a \ b|, iterating
// ids in ascending order (so float accumulation order matches a scan of the
// sorted posting list — the scoring paths rely on bit-identical sums). Ids
// beyond len(w) contribute zero weight but still count.
func AndNotSum(a, b Set, w []float64) (sum float64, count int) {
	for i, word := range a {
		if i < len(b) {
			word &^= b[i]
		}
		if word == 0 {
			continue
		}
		base := i * wordBits
		count += bits.OnesCount64(word)
		for word != 0 {
			id := base + bits.TrailingZeros64(word)
			if id < len(w) {
				sum += w[id]
			}
			word &= word - 1
		}
	}
	return sum, count
}
