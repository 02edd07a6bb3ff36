package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// The fused kernels must be bit-for-bit equivalent to a naive
// word-by-word reference at every capacity — including the unroll
// boundary cases (0, 63, 64, 65, 128: empty, one word minus a bit,
// exactly one word, just over, exactly on the 4-word unroll edge
// wants 256/257 too) — and when dst aliases an input.

// kernelCaps are the capacities every property below sweeps: the empty
// set, the word edges, the unroll boundary (4 words = 256 bits) and a
// tail-remainder size.
var kernelCaps = []int{0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300}

// refIntersect is the trusted reference: dst = a & b one word at a
// time with no unrolling or fusion.
func refIntersect(a, b Set) Set {
	dst := New(a.n)
	for i := range dst.words {
		dst.words[i] = a.words[i] & b.words[i]
	}
	return dst
}

func randomSet(n int, rng *rand.Rand) Set {
	s := New(n)
	if n == 0 {
		return s
	}
	// Mix densities so both sparse and dense words appear.
	p := rng.Float64()
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.Add(v)
		}
	}
	return s
}

func TestIntersectIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelCaps {
		for trial := 0; trial < 25; trial++ {
			a, b := randomSet(n, rng), randomSet(n, rng)
			want := refIntersect(a, b)

			dst := New(n)
			IntersectInto(dst, a, b)
			if !dst.Equal(want) {
				t.Fatalf("n=%d trial=%d: IntersectInto = %v, want %v", n, trial, dst, want)
			}

			// Aliased dst = a: the inputs must still be read correctly.
			aCopy := a.Clone()
			IntersectInto(aCopy, aCopy, b)
			if !aCopy.Equal(want) {
				t.Fatalf("n=%d trial=%d: aliased dst=a gave %v, want %v", n, trial, aCopy, want)
			}
			bCopy := b.Clone()
			IntersectInto(bCopy, a, bCopy)
			if !bCopy.Equal(want) {
				t.Fatalf("n=%d trial=%d: aliased dst=b gave %v, want %v", n, trial, bCopy, want)
			}
		}
	}
}

func TestIntersectIntoCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelCaps {
		for trial := 0; trial < 25; trial++ {
			a, b := randomSet(n, rng), randomSet(n, rng)
			want := refIntersect(a, b)

			dst := New(n)
			got := IntersectIntoCount(dst, a, b)
			if !dst.Equal(want) {
				t.Fatalf("n=%d trial=%d: IntersectIntoCount wrote %v, want %v", n, trial, dst, want)
			}
			if got != want.Count() {
				t.Fatalf("n=%d trial=%d: count %d, want %d", n, trial, got, want.Count())
			}

			aCopy := a.Clone()
			if got := IntersectIntoCount(aCopy, aCopy, b); got != want.Count() || !aCopy.Equal(want) {
				t.Fatalf("n=%d trial=%d: aliased count %d set %v, want %d %v",
					n, trial, got, aCopy, want.Count(), want)
			}
		}
	}
}

func TestIntersectIntoCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch did not panic")
		}
	}()
	IntersectInto(New(64), New(128), New(128))
}

func TestPopNextDrainsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelCaps {
		for trial := 0; trial < 25; trial++ {
			s := randomSet(n, rng)
			ref := s.Clone()
			var got []int
			for {
				v := s.PopNext()
				if v == -1 {
					break
				}
				got = append(got, v)
			}
			// PopNext must yield exactly the elements, ascending, and
			// leave the set empty.
			var want []int
			ref.ForEach(func(v int) bool { want = append(want, v); return true })
			if len(got) != len(want) {
				t.Fatalf("n=%d trial=%d: popped %d elements, want %d", n, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial=%d: pop %d = %d, want %d", n, trial, i, got[i], want[i])
				}
			}
			if !s.Empty() {
				t.Fatalf("n=%d trial=%d: set not empty after draining", n, trial)
			}
		}
	}
}

func TestPopNextEmpty(t *testing.T) {
	for _, n := range []int{0, 64, 300} {
		if v := New(n).PopNext(); v != -1 {
			t.Fatalf("PopNext on empty cap-%d set = %d, want -1", n, v)
		}
	}
}

// FuzzIntersectKernels cross-checks both fused intersection kernels
// against the reference on fuzzer-chosen word patterns. The capacity
// is derived from the shorter input so corpus entries of any length
// are meaningful.
func FuzzIntersectKernels(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, []byte{0x0f, 0xf0, 0x55})
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 40), make([]byte, 33))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		nBytes := len(ab)
		if len(bb) < nBytes {
			nBytes = len(bb)
		}
		if nBytes > 128 {
			nBytes = 128
		}
		n := nBytes * 8
		a, b := New(n), New(n)
		for i := 0; i < nBytes; i++ {
			for bit := 0; bit < 8; bit++ {
				if ab[i]&(1<<bit) != 0 {
					a.Add(i*8 + bit)
				}
				if bb[i]&(1<<bit) != 0 {
					b.Add(i*8 + bit)
				}
			}
		}
		want := refIntersect(a, b)
		dst := New(n)
		IntersectInto(dst, a, b)
		if !dst.Equal(want) {
			t.Fatalf("IntersectInto mismatch: %v want %v", dst, want)
		}
		dst2 := New(n)
		if c := IntersectIntoCount(dst2, a, b); c != want.Count() || !dst2.Equal(want) {
			t.Fatalf("IntersectIntoCount %d/%v, want %d/%v", c, dst2, want.Count(), want)
		}
		// PopNext on the intersection must agree with Min.
		probe := want.Clone()
		wantMin := probe.Min()
		if got := dst.PopNext(); got != wantMin && !(got == -1 && wantMin == -1) {
			t.Fatalf("PopNext %d, want Min %d", got, wantMin)
		}
	})
}

// refColour is the trusted greedy colouring: whole-set Min, Remove and
// DifferenceWith on fresh clones, no word resumption.
func refColour(p Set, adj []Set) (order, colour []int32) {
	uncol := p.Clone()
	for c := int32(1); !uncol.Empty(); c++ {
		class := uncol.Clone()
		for !class.Empty() {
			v := class.Min()
			class.Remove(v)
			uncol.Remove(v)
			order = append(order, int32(v))
			colour = append(colour, c)
			class.DifferenceWith(adj[v])
		}
	}
	return order, colour
}

// randomAdj returns n symmetric, loop-free adjacency rows of density
// drawn per graph, so both sparse and dense colourings appear.
func randomAdj(n int, rng *rand.Rand) []Set {
	adj := make([]Set, n)
	for v := range adj {
		adj[v] = New(n)
	}
	p := rng.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				adj[u].Add(v)
				adj[v].Add(u)
			}
		}
	}
	return adj
}

// checkColour runs ColourClasses on p with fresh scratch and with p
// aliasing each scratch set, and compares every result with refColour.
func checkColour(t *testing.T, p Set, adj []Set) {
	t.Helper()
	wantOrder, wantColour := refColour(p, adj)
	n := p.Cap()
	uncol, class := MakePair(n)
	// Stale scratch must not leak into the result.
	uncol.Fill()
	class.Fill()
	keep := p.Clone()
	order, colour := ColourClasses(p, adj, uncol, class, nil, nil)
	if !slices.Equal(order, wantOrder) || !slices.Equal(colour, wantColour) {
		t.Fatalf("n=%d p=%v: ColourClasses = %v/%v, want %v/%v", n, p, order, colour, wantOrder, wantColour)
	}
	if !p.Equal(keep) {
		t.Fatalf("n=%d: ColourClasses modified p", n)
	}
	// Appends after existing elements, reusing the caller's slices.
	order, colour = ColourClasses(p, adj, uncol, class, []int32{-1}, []int32{-1})
	if len(order) != len(wantOrder)+1 || order[0] != -1 || colour[0] != -1 ||
		!slices.Equal(order[1:], wantOrder) || !slices.Equal(colour[1:], wantColour) {
		t.Fatalf("n=%d: appending ColourClasses = %v/%v", n, order, colour)
	}
	// p aliasing the uncoloured scratch, then the class scratch.
	q := p.Clone()
	order, colour = ColourClasses(q, adj, q, class, nil, nil)
	if !slices.Equal(order, wantOrder) || !slices.Equal(colour, wantColour) {
		t.Fatalf("n=%d: p aliasing uncol gave %v/%v, want %v/%v", n, order, colour, wantOrder, wantColour)
	}
	q = p.Clone()
	order, colour = ColourClasses(q, adj, uncol, q, nil, nil)
	if !slices.Equal(order, wantOrder) || !slices.Equal(colour, wantColour) {
		t.Fatalf("n=%d: p aliasing class gave %v/%v, want %v/%v", n, order, colour, wantOrder, wantColour)
	}
}

func TestColourClassesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range kernelCaps {
		for trial := 0; trial < 25; trial++ {
			adj := randomAdj(n, rng)
			checkColour(t, randomSet(n, rng), adj)
			full := New(n)
			full.Fill()
			checkColour(t, full, adj)
		}
	}
}

func TestColourClassesCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch did not panic")
		}
	}()
	ColourClasses(New(64), randomAdj(64, rand.New(rand.NewSource(5))), New(65), New(64), nil, nil)
}

// FuzzColourClasses cross-checks the word-resumed colouring against
// the reference on fuzzer-chosen graphs: the first byte picks the
// capacity (up to 300, crossing every word edge), the next bytes the
// candidate set, and the rest the edges, one bit per vertex pair.
func FuzzColourClasses(f *testing.F) {
	f.Add([]byte{65, 0xff, 0xff}, []byte{0xaa, 0x55, 0x0f})
	f.Add([]byte{1}, []byte{})
	f.Add([]byte{64, 0x01, 0x80}, make([]byte, 600))
	f.Add([]byte{0xff, 0xf0}, []byte{0x3c, 0xc3, 0x99})
	f.Fuzz(func(t *testing.T, set, edges []byte) {
		if len(set) == 0 {
			return
		}
		n := int(set[0]) % 301
		p := New(n)
		for v := 0; v < n; v++ {
			if i := 1 + v/8; i >= len(set) || set[i]&(1<<(v%8)) != 0 {
				p.Add(v)
			}
		}
		adj := make([]Set, n)
		for v := range adj {
			adj[v] = New(n)
		}
		k := 0
		for u := 0; u < n && k/8 < len(edges); u++ {
			for v := u + 1; v < n && k/8 < len(edges); v++ {
				if edges[k/8]&(1<<(k%8)) != 0 {
					adj[u].Add(v)
					adj[v].Add(u)
				}
				k++
			}
		}
		checkColour(t, p, adj)
	})
}
