package main

import (
	"crypto/sha1"
	"encoding/binary"
	"math/bits"
	"sort"
	"sync"
	"time"

	"yewpar/internal/apps/uts"
	"yewpar/internal/graph"
)

// The paired references. The hosts this benchmark runs on change speed
// by 10-25% over tens of seconds, far more than a program change worth
// catching, and that drift reaches every wall time alike. So each
// timed solve runs next to a reference solver on the same input, and
// the end-to-end metrics are the solve's time over its reference's.
// The references are written here and share no code with the program
// beyond the standard library: a change to the program moves the
// ratios in full, while the host's drift cancels out of them.

// reference solves one input with a reference solver and returns the
// nodes it visited.
type reference func() (nodes int64)

// runReference runs ref on threads goroutines at once, each solving
// the whole input, so that a two-worker solve is paired with two busy
// CPUs. It returns the wall time until the last finishes and the nodes
// they visited together.
func runReference(ref reference, threads int) (time.Duration, int64) {
	var (
		wg    sync.WaitGroup
		nodes = make([]int64, threads)
	)
	start := time.Now()
	for t := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[t] = ref()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	total := int64(0)
	for _, n := range nodes {
		total += n
	}
	return wall, total
}

// refGraph is a graph's adjacency as plain words, its vertices
// relabelled in non-increasing degree order.
type refGraph struct {
	n, words int
	adj      [][]uint64
}

func newRefGraph(g *graph.Graph) *refGraph {
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.Degree(order[a]) > g.Degree(order[b]) })
	r := &refGraph{n: g.N, words: (g.N + 63) / 64, adj: make([][]uint64, g.N)}
	for i, v := range order {
		row := make([]uint64, r.words)
		for j, u := range order {
			if g.HasEdge(v, u) {
				row[j/64] |= 1 << (j % 64)
			}
		}
		r.adj[i] = row
	}
	return r
}

// refClique is one maximum-clique search: greedy-colouring branch and
// bound over bitsets, in the style of Tomita's MCQ and San Segundo's
// BBMC.
type refClique struct {
	g      *refGraph
	best   int
	nodes  int64
	p      [][]uint64 // candidate set per depth
	order  [][]int    // colour order per depth
	bound  [][]int    // colour bound per depth
	uncol  []uint64   // colouring scratch: vertices not yet coloured
	colour []uint64   // colouring scratch: vertices open for the colour
}

// maxClique returns the clique number and the nodes the search visited.
func (g *refGraph) maxClique() (omega int, nodes int64) {
	s := &refClique{g: g, uncol: make([]uint64, g.words), colour: make([]uint64, g.words)}
	root := s.level(0)
	for v := range g.n {
		root[v/64] |= 1 << (v % 64)
	}
	s.expand(0)
	return s.best, s.nodes
}

// level returns depth d's candidate set, growing the per-depth
// buffers on first use.
func (s *refClique) level(d int) []uint64 {
	for len(s.p) <= d {
		s.p = append(s.p, make([]uint64, s.g.words))
		s.order = append(s.order, make([]int, 0, s.g.n))
		s.bound = append(s.bound, make([]int, 0, s.g.n))
	}
	return s.p[d]
}

func (s *refClique) expand(depth int) {
	s.nodes++
	p := s.p[depth]
	s.colourClasses(depth, p)
	order, bound := s.order[depth], s.bound[depth]
	next := s.level(depth + 1)
	p = s.p[depth]
	for i := len(order) - 1; i >= 0; i-- {
		if depth+bound[i] <= s.best {
			return
		}
		v := order[i]
		row := s.g.adj[v]
		nonEmpty := uint64(0)
		for w := range next {
			next[w] = p[w] & row[w]
			nonEmpty |= next[w]
		}
		if nonEmpty == 0 {
			if depth+1 > s.best {
				s.best = depth + 1
			}
		} else {
			s.expand(depth + 1)
		}
		p[v/64] &^= 1 << (v % 64)
	}
}

// colourClasses greedily colours p and leaves its vertices in colour
// order, with each vertex's colour as the bound on the clique it can
// still join.
func (s *refClique) colourClasses(depth int, p []uint64) {
	order, bound := s.order[depth][:0], s.bound[depth][:0]
	copy(s.uncol, p)
	for k := 1; ; k++ {
		copy(s.colour, s.uncol)
		coloured := false
		for w := range s.colour {
			for s.colour[w] != 0 {
				b := bits.TrailingZeros64(s.colour[w])
				v := w*64 + b
				s.colour[w] &^= 1 << b
				s.uncol[w] &^= 1 << b
				row := s.g.adj[v]
				for x := w; x < len(s.colour); x++ {
					s.colour[x] &^= row[x]
				}
				order = append(order, v)
				bound = append(bound, k)
				coloured = true
			}
		}
		if !coloured {
			break
		}
	}
	s.order[depth], s.bound[depth] = order, bound
}

// refUTS counts a binomial UTS tree by walking it: each node's
// children are the SHA-1 of its descriptor and the child's index, and
// a non-root node has m children when its descriptor, read as a
// fraction, falls below q. It is the tree uts.Gen describes, walked by
// code of its own.
func refUTS(s *uts.Space) int64 {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(s.Seed))
	root := sha1.Sum(seed[:])
	count := int64(1)
	for i := range s.B0 {
		count += refUTSWalk(s, utsChild(&root, i))
	}
	return count
}

func refUTSWalk(s *uts.Space, h [sha1.Size]byte) int64 {
	count := int64(1)
	if float64(binary.LittleEndian.Uint64(h[:8])>>11)/float64(1<<53) >= s.Q {
		return count
	}
	for i := range s.M {
		count += refUTSWalk(s, utsChild(&h, i))
	}
	return count
}

func utsChild(parent *[sha1.Size]byte, i int) [sha1.Size]byte {
	var buf [sha1.Size + 4]byte
	copy(buf[:], parent[:])
	binary.LittleEndian.PutUint32(buf[sha1.Size:], uint32(i))
	return sha1.Sum(buf[:])
}
