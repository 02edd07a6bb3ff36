package bitset

import "math/bits"

// This file holds the fused hot-path kernels of the search inner
// loops. Each replaces a multi-pass sequence of the primitive
// operations (a CopyFrom+IntersectWith round trip, a Min+Remove pair)
// with a single bounds-check-hoisted pass, 4-word-unrolled: the word
// slices are re-sliced to a common length up front so the compiler
// proves every index in range once, and the unrolled body keeps the
// loop control off the critical path. On the small word counts typical
// of the clique instances (a 300-vertex graph is five words) the pass
// count, not the per-word cost, is what dominates — fusing is worth
// more than vectorising.

// IntersectInto writes a ∩ b into dst (dst = a & b) in one pass,
// without the CopyFrom+IntersectWith round trip. All three sets must
// share a capacity; dst may alias a or b.
func IntersectInto(dst, a, b Set) {
	dw := dst.words
	if len(a.words) != len(dw) || len(b.words) != len(dw) {
		panic("bitset: IntersectInto capacity mismatch")
	}
	aw := a.words[:len(dw)]
	bw := b.words[:len(dw)]
	i := 0
	for ; i+4 <= len(dw); i += 4 {
		dw[i] = aw[i] & bw[i]
		dw[i+1] = aw[i+1] & bw[i+1]
		dw[i+2] = aw[i+2] & bw[i+2]
		dw[i+3] = aw[i+3] & bw[i+3]
	}
	for ; i < len(dw); i++ {
		dw[i] = aw[i] & bw[i]
	}
}

// IntersectIntoCount is IntersectInto fused with a population count:
// dst = a & b, returning |dst|. It replaces the three-pass
// CopyFrom+IntersectWith+Count (or +Empty) sequence of the expansion
// loops. dst may alias a or b.
func IntersectIntoCount(dst, a, b Set) int {
	dw := dst.words
	if len(a.words) != len(dw) || len(b.words) != len(dw) {
		panic("bitset: IntersectIntoCount capacity mismatch")
	}
	aw := a.words[:len(dw)]
	bw := b.words[:len(dw)]
	c := 0
	i := 0
	for ; i+4 <= len(dw); i += 4 {
		w0 := aw[i] & bw[i]
		w1 := aw[i+1] & bw[i+1]
		w2 := aw[i+2] & bw[i+2]
		w3 := aw[i+3] & bw[i+3]
		dw[i], dw[i+1], dw[i+2], dw[i+3] = w0, w1, w2, w3
		c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(dw); i++ {
		w := aw[i] & bw[i]
		dw[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// PopNext removes and returns the smallest element in one pass
// (find-first-set + clear), or returns -1 if the set is empty. It
// fuses the Min+Remove pair of the colouring loops: one scan instead
// of a scan plus an indexed store.
func (s Set) PopNext() int {
	for i, w := range s.words {
		if w != 0 {
			s.words[i] = w & (w - 1)
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ColourClasses is the greedy sequential colouring of the clique
// searches, word-resumed. It colours p under the adjacency rows adj
// (adj[v] is v's neighbourhood, of p's capacity): each colour class
// is grown by repeatedly taking the smallest vertex not yet excluded
// from it and excluding that vertex's neighbours. It appends p's
// elements to order in class order and, for each, to colour the
// number of classes opened so far, returning both slices.
//
// Within a class, vertices are popped in ascending order, so once a
// vertex in word w is popped every lower word of the class is zero:
// find-first-set resumes at w, and the neighbourhood difference starts
// at w too. A new class likewise starts at the lowest non-empty word
// of the uncoloured set.
//
// uncol and class are scratch of p's capacity and must not alias each
// other; their contents afterwards are unspecified. p is read once,
// before either is written, so it may alias one of them (and is then
// consumed).
func ColourClasses(p Set, adj []Set, uncol, class Set, order, colour []int32) ([]int32, []int32) {
	uw := uncol.words
	if len(p.words) != len(uw) || len(class.words) != len(uw) {
		panic("bitset: ColourClasses capacity mismatch")
	}
	cw := class.words[:len(uw)]
	copy(uw, p.words)
	c := int32(0)
	for lo := 0; ; {
		for lo < len(uw) && uw[lo] == 0 {
			lo++
		}
		if lo == len(uw) {
			return order, colour
		}
		c++
		copy(cw[lo:], uw[lo:])
		for w := lo; w < len(cw); {
			x := cw[w]
			if x == 0 {
				w++
				continue
			}
			b := bits.TrailingZeros64(x)
			v := w*wordBits + b
			cw[w] = x & (x - 1)
			uw[w] &^= 1 << uint(b)
			order = append(order, int32(v))
			colour = append(colour, c)
			row := adj[v].words[w:len(cw)]
			rest := cw[w:][:len(row)]
			for i := range row {
				rest[i] &^= row[i]
			}
		}
	}
}
