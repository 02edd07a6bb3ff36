package bitset

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the fused hot-path kernels against the primitive
// multi-pass sequences they replaced in the expansion and colouring
// inner loops. 300 bits is the p_hat300-3 word count (5 words, with a
// partial tail); 1024 is a larger power-of-two shape (16 words, pure
// unrolled body). Recorded in BENCH_engine.json.

func benchSets(n int, seed int64) (a, b, dst Set) {
	rng := rand.New(rand.NewSource(seed))
	a, b, dst = New(n), New(n), New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.7 {
			a.Add(v)
		}
		if rng.Float64() < 0.7 {
			b.Add(v)
		}
	}
	return a, b, dst
}

func BenchmarkHotPathIntersectCount(b *testing.B) {
	for _, n := range []int{300, 1024} {
		x, y, dst := benchSets(n, int64(n))
		b.Run(sizeName(n)+"/fused", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				c += IntersectIntoCount(dst, x, y)
			}
			sink = c
		})
		b.Run(sizeName(n)+"/primitive", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				dst.CopyFrom(x)
				dst.IntersectWith(y)
				c += dst.Count()
			}
			sink = c
		})
	}
}

func BenchmarkHotPathPopNext(b *testing.B) {
	for _, n := range []int{300, 1024} {
		x, _, dst := benchSets(n, int64(n))
		b.Run(sizeName(n)+"/fused", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				dst.CopyFrom(x)
				for v := dst.PopNext(); v != -1; v = dst.PopNext() {
					c += v
				}
			}
			sink = c
		})
		b.Run(sizeName(n)+"/primitive", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				dst.CopyFrom(x)
				for v := dst.Min(); v != -1; v = dst.Min() {
					dst.Remove(v)
					c += v
				}
			}
			sink = c
		})
	}
}

// sink defeats dead-code elimination of the benchmark loops.
var sink int

func sizeName(n int) string {
	if n == 300 {
		return "n300"
	}
	return "n1024"
}

// BenchmarkHotPathColour colours the whole of a 0.5-density graph:
// the word-resumed ColourClasses against the full-width
// PopNext+DifferenceWith loop it replaced.
func BenchmarkHotPathColour(b *testing.B) {
	for _, n := range []int{300, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		adj := make([]Set, n)
		for v := range adj {
			adj[v] = New(n)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					adj[u].Add(v)
					adj[v].Add(u)
				}
			}
		}
		p := New(n)
		p.Fill()
		uncol, class := MakePair(n)
		order, colour := make([]int32, 0, n), make([]int32, 0, n)
		b.Run(sizeName(n)+"/resumed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				order, colour = ColourClasses(p, adj, uncol, class, order[:0], colour[:0])
			}
			sink = len(order)
		})
		b.Run(sizeName(n)+"/primitive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				order, colour = order[:0], colour[:0]
				uncol.CopyFrom(p)
				for c := int32(1); !uncol.Empty(); c++ {
					class.CopyFrom(uncol)
					for v := class.PopNext(); v >= 0; v = class.PopNext() {
						order = append(order, int32(v))
						colour = append(colour, c)
						uncol.Remove(v)
						class.DifferenceWith(adj[v])
					}
				}
			}
			sink = len(order)
		})
	}
}
