// Adaptive is the compressed counterpart of the dense Set: a roaring-style
// bitset that splits the id space into 65536-id chunks and stores each chunk
// in whichever container is smaller — a sorted []uint16 array while the
// chunk is sparse, a dense 1024-word bitmap once it crosses the promotion
// threshold. Sparse coverage (a rule matching a handful of sentences in a
// million-sentence corpus) then costs bytes proportional to its cardinality
// instead of the corpus size, while hot dense chunks keep word-wise kernels.
//
// Adaptive is the index's per-node coverage representation. The operand p
// of its fused kernels is a dense Set: the positive set is small, mutable
// and corpus-sized, so it stays dense. Every fused kernel (AndNotSum in
// particular) iterates ids in ascending order, so float accumulation is
// bit-identical to the dense package kernels the tests use as the oracle.
package bitset

import (
	"math/bits"
	"sort"
)

const (
	// chunkBits is the log2 of the chunk width: each container covers one
	// aligned range of 1<<chunkBits ids.
	chunkBits = 16
	chunkSize = 1 << chunkBits
	// bitmapWords is the word count of a bitmap container.
	bitmapWords = chunkSize / wordBits
	// ArrayMax is the promotion/demotion crossover: a chunk holding at most
	// this many ids stays a sorted-array container (2 bytes/id ≤ the 8 KiB a
	// bitmap container costs); one more id promotes it to a bitmap, and a
	// removal back down to ArrayMax demotes it again.
	ArrayMax = 4096
)

// container is one chunk's id set: exactly one of array/bitmap is non-nil.
// array holds the low 16 bits of each id, sorted ascending and unique;
// bitmap is a bitmapWords-word dense set with n tracking its cardinality.
type container struct {
	array  []uint16
	bitmap []uint64
	n      int
}

func (c *container) count() int {
	if c.bitmap != nil {
		return c.n
	}
	return len(c.array)
}

// promote converts an array container to a bitmap container.
func (c *container) promote() {
	bm := make([]uint64, bitmapWords)
	for _, lo := range c.array {
		bm[lo/wordBits] |= 1 << uint(lo%wordBits)
	}
	c.bitmap, c.n, c.array = bm, len(c.array), nil
}

// demote converts a bitmap container back to an array container.
func (c *container) demote() {
	arr := make([]uint16, 0, c.n)
	for i, word := range c.bitmap {
		base := i * wordBits
		for word != 0 {
			arr = append(arr, uint16(base+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.array, c.bitmap, c.n = arr, nil, 0
}

// Adaptive is the compressed bitset: sorted chunk keys with one container
// per non-empty chunk. The zero value is an empty set. Like Set, an Adaptive
// is not goroutine-safe for mutation but safe for any number of concurrent
// readers once published.
type Adaptive struct {
	keys []uint32 // sorted chunk indices (id >> chunkBits)
	cs   []*container
	n    int // total cardinality
}

// NewAdaptive returns an empty adaptive set.
func NewAdaptive() *Adaptive { return &Adaptive{} }

// AdaptiveFromSorted builds an adaptive set from sorted, deduplicated,
// non-negative ids (the shape of a corpus-scan result). Each chunk's
// representation is chosen directly from its cardinality — no intermediate
// promotion work.
func AdaptiveFromSorted(ids []int) *Adaptive {
	a := &Adaptive{}
	for start := 0; start < len(ids); {
		key := uint32(ids[start] >> chunkBits)
		end := start
		for end < len(ids) && uint32(ids[end]>>chunkBits) == key {
			end++
		}
		chunk := ids[start:end]
		c := &container{}
		if len(chunk) > ArrayMax {
			bm := make([]uint64, bitmapWords)
			for _, id := range chunk {
				lo := id & (chunkSize - 1)
				bm[lo/wordBits] |= 1 << uint(lo%wordBits)
			}
			c.bitmap, c.n = bm, len(chunk)
		} else {
			arr := make([]uint16, len(chunk))
			for i, id := range chunk {
				arr[i] = uint16(id & (chunkSize - 1))
			}
			c.array = arr
		}
		a.keys = append(a.keys, key)
		a.cs = append(a.cs, c)
		a.n += len(chunk)
		start = end
	}
	return a
}

// find returns the container index for key, or -1.
func (a *Adaptive) find(key uint32) int {
	i := sort.Search(len(a.keys), func(i int) bool { return a.keys[i] >= key })
	if i < len(a.keys) && a.keys[i] == key {
		return i
	}
	return -1
}

// Add inserts id (no-op when present). Unlike Set.Add it grows on demand —
// ingestion extends coverage past the boot-time corpus size. Ids arriving
// in ascending order (index builds and ingest) append in O(1).
func (a *Adaptive) Add(id int) {
	if id < 0 {
		return
	}
	key, lo := uint32(id>>chunkBits), uint16(id&(chunkSize-1))
	if k := len(a.keys) - 1; k >= 0 && a.keys[k] == key {
		if c := a.cs[k]; c.bitmap == nil && len(c.array) < ArrayMax && c.array[len(c.array)-1] < lo {
			c.array = append(c.array, lo)
			a.n++
			return
		}
	}
	i := sort.Search(len(a.keys), func(i int) bool { return a.keys[i] >= key })
	if i == len(a.keys) || a.keys[i] != key {
		a.keys = append(a.keys, 0)
		copy(a.keys[i+1:], a.keys[i:])
		a.keys[i] = key
		a.cs = append(a.cs, nil)
		copy(a.cs[i+1:], a.cs[i:])
		a.cs[i] = &container{array: []uint16{lo}}
		a.n++
		return
	}
	c := a.cs[i]
	if c.bitmap != nil {
		w, mask := lo/wordBits, uint64(1)<<uint(lo%wordBits)
		if c.bitmap[w]&mask == 0 {
			c.bitmap[w] |= mask
			c.n++
			a.n++
		}
		return
	}
	j := sort.Search(len(c.array), func(j int) bool { return c.array[j] >= lo })
	if j < len(c.array) && c.array[j] == lo {
		return
	}
	c.array = append(c.array, 0)
	copy(c.array[j+1:], c.array[j:])
	c.array[j] = lo
	a.n++
	if len(c.array) > ArrayMax {
		c.promote()
	}
}

// Remove deletes id (no-op when absent). A bitmap container falling back to
// ArrayMax ids demotes to an array; an emptied container is dropped.
func (a *Adaptive) Remove(id int) {
	if id < 0 {
		return
	}
	key, lo := uint32(id>>chunkBits), uint16(id&(chunkSize-1))
	i := a.find(key)
	if i < 0 {
		return
	}
	c := a.cs[i]
	if c.bitmap != nil {
		w, mask := lo/wordBits, uint64(1)<<uint(lo%wordBits)
		if c.bitmap[w]&mask == 0 {
			return
		}
		c.bitmap[w] &^= mask
		c.n--
		a.n--
		if c.n <= ArrayMax {
			c.demote()
		}
	} else {
		j := sort.Search(len(c.array), func(j int) bool { return c.array[j] >= lo })
		if j >= len(c.array) || c.array[j] != lo {
			return
		}
		c.array = append(c.array[:j], c.array[j+1:]...)
		a.n--
	}
	if c.count() == 0 {
		a.keys = append(a.keys[:i], a.keys[i+1:]...)
		a.cs = append(a.cs[:i], a.cs[i+1:]...)
	}
}

// Count returns the number of ids in the set.
func (a *Adaptive) Count() int { return a.n }

// Contains reports membership of id (out-of-range ids are absent).
func (a *Adaptive) Contains(id int) bool {
	if id < 0 {
		return false
	}
	i := a.find(uint32(id >> chunkBits))
	if i < 0 {
		return false
	}
	c, lo := a.cs[i], uint16(id&(chunkSize-1))
	if c.bitmap != nil {
		return c.bitmap[lo/wordBits]&(1<<uint(lo%wordBits)) != 0
	}
	j := sort.Search(len(c.array), func(j int) bool { return c.array[j] >= lo })
	return j < len(c.array) && c.array[j] == lo
}

// Range calls fn for every id in ascending order, stopping early when fn
// returns false.
func (a *Adaptive) Range(fn func(id int) bool) {
	for i, key := range a.keys {
		base := int(key) << chunkBits
		c := a.cs[i]
		if c.bitmap != nil {
			for wi, word := range c.bitmap {
				wbase := base + wi*wordBits
				for word != 0 {
					if !fn(wbase + bits.TrailingZeros64(word)) {
						return
					}
					word &= word - 1
				}
			}
			continue
		}
		for _, lo := range c.array {
			if !fn(base + int(lo)) {
				return
			}
		}
	}
}

// AppendTo appends the ids in ascending order to dst and returns it.
func (a *Adaptive) AppendTo(dst []int) []int {
	a.Range(func(id int) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// Clone returns an independent copy.
func (a *Adaptive) Clone() *Adaptive {
	out := &Adaptive{
		keys: append([]uint32(nil), a.keys...),
		cs:   make([]*container, len(a.cs)),
		n:    a.n,
	}
	for i, c := range a.cs {
		cc := &container{n: c.n}
		if c.bitmap != nil {
			cc.bitmap = append([]uint64(nil), c.bitmap...)
		} else {
			cc.array = append([]uint16(nil), c.array...)
		}
		out.cs[i] = cc
	}
	return out
}

// pWords returns the dense operand's words for the chunk at base, clipped to
// what p actually holds (missing words are zero).
func pWords(p Set, base int) []uint64 {
	lo := base / wordBits
	if lo >= len(p) {
		return nil
	}
	hi := lo + bitmapWords
	if hi > len(p) {
		hi = len(p)
	}
	return p[lo:hi]
}

// AndCount returns |a ∩ p|.
func (a *Adaptive) AndCount(p Set) int {
	total := 0
	for i, key := range a.keys {
		base := int(key) << chunkBits
		pw := pWords(p, base)
		if len(pw) == 0 {
			continue
		}
		c := a.cs[i]
		if c.bitmap != nil {
			n := len(pw)
			for wi := 0; wi < n; wi++ {
				total += bits.OnesCount64(c.bitmap[wi] & pw[wi])
			}
			continue
		}
		for _, lo := range c.array {
			w := int(lo) / wordBits
			if w < len(pw) && pw[w]&(1<<uint(lo%wordBits)) != 0 {
				total++
			}
		}
	}
	return total
}

// AndNotCount returns |a \ p|.
func (a *Adaptive) AndNotCount(p Set) int {
	total := 0
	for i, key := range a.keys {
		base := int(key) << chunkBits
		pw := pWords(p, base)
		c := a.cs[i]
		if c.bitmap != nil {
			for wi, word := range c.bitmap {
				if wi < len(pw) {
					word &^= pw[wi]
				}
				total += bits.OnesCount64(word)
			}
			continue
		}
		for _, lo := range c.array {
			w := int(lo) / wordBits
			if w < len(pw) && pw[w]&(1<<uint(lo%wordBits)) != 0 {
				continue
			}
			total++
		}
	}
	return total
}

// AndNotSum returns Σ_{id ∈ a \ p} w[id] together with |a \ p|,
// accumulating in ascending id order (bit-identical to the dense AndNotSum).
// Ids beyond len(w) contribute zero weight but count.
func (a *Adaptive) AndNotSum(p Set, w []float64) (sum float64, count int) {
	for i, key := range a.keys {
		base := int(key) << chunkBits
		pw := pWords(p, base)
		c := a.cs[i]
		if c.bitmap != nil {
			for wi, word := range c.bitmap {
				if wi < len(pw) {
					word &^= pw[wi]
				}
				if word == 0 {
					continue
				}
				wbase := base + wi*wordBits
				count += bits.OnesCount64(word)
				for word != 0 {
					id := wbase + bits.TrailingZeros64(word)
					if id < len(w) {
						sum += w[id]
					}
					word &= word - 1
				}
			}
			continue
		}
		for _, lo := range c.array {
			wi := int(lo) / wordBits
			if wi < len(pw) && pw[wi]&(1<<uint(lo%wordBits)) != 0 {
				continue
			}
			count++
			if id := base + int(lo); id < len(w) {
				sum += w[id]
			}
		}
	}
	return sum, count
}

// OrInto ors the set into dst (a corpus-sized accumulator), growing dst as
// needed, and returns the possibly reallocated destination.
func (a *Adaptive) OrInto(dst Set) Set {
	if len(a.keys) == 0 {
		return dst
	}
	lastKey := a.keys[len(a.keys)-1]
	lastC := a.cs[len(a.cs)-1]
	maxID := int(lastKey) << chunkBits
	if lastC.bitmap != nil {
		for wi := len(lastC.bitmap) - 1; wi >= 0; wi-- {
			if lastC.bitmap[wi] != 0 {
				maxID += wi*wordBits + (wordBits - 1 - bits.LeadingZeros64(lastC.bitmap[wi]))
				break
			}
		}
	} else {
		maxID += int(lastC.array[len(lastC.array)-1])
	}
	if need := maxID/wordBits + 1; need > len(dst) {
		grown := make(Set, need)
		copy(grown, dst)
		dst = grown
	}
	for i, key := range a.keys {
		base := int(key) << chunkBits
		c := a.cs[i]
		if c.bitmap != nil {
			for wi, word := range c.bitmap {
				if word != 0 {
					dst[base/wordBits+wi] |= word
				}
			}
			continue
		}
		for _, lo := range c.array {
			id := base + int(lo)
			dst[id/wordBits] |= 1 << uint(id%wordBits)
		}
	}
	return dst
}

// Bytes reports the payload bytes of the current representation (array
// entries at 2 bytes, bitmap words at 8, plus keys and per-container
// bookkeeping; excludes the Go object headers).
func (a *Adaptive) Bytes() int {
	total := len(a.keys)*4 + len(a.cs)*8
	for _, c := range a.cs {
		if c.bitmap != nil {
			total += bitmapWords * 8
		} else {
			total += len(c.array) * 2
		}
	}
	return total
}

// Containers reports how many chunks currently use each representation —
// the series behind the darwin_bitset_containers{kind} gauge.
func (a *Adaptive) Containers() (arrays, bitmaps int) {
	for _, c := range a.cs {
		if c.bitmap != nil {
			bitmaps++
		} else {
			arrays++
		}
	}
	return arrays, bitmaps
}
