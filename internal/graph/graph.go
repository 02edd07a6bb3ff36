// Package graph provides the undirected-graph substrate for the search
// applications: adjacency-bitset graphs, DIMACS .clq I/O and the
// deterministic random generators that stand in for the paper's DIMACS
// and finite-geometry instance files.
package graph

import (
	"fmt"
	"sort"

	"yewpar/internal/bitset"
)

// Graph is a simple undirected graph on vertices 0..N-1 with adjacency
// stored as one bitset row per vertex (the representation of the paper's
// Listing 1, enabling word-parallel candidate-set intersection).
type Graph struct {
	N   int
	Adj []bitset.Set
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	g := &Graph{N: n, Adj: make([]bitset.Set, n)}
	for i := range g.Adj {
		g.Adj[i] = bitset.New(n)
	}
	return g
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.Adj[u].Add(v)
	g.Adj[v].Add(u)
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.Adj[u].Contains(v) }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return g.Adj[v].Count() }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	m := 0
	for v := 0; v < g.N; v++ {
		m += g.Degree(v)
	}
	return m / 2
}

// Density returns 2m / n(n-1), the fraction of possible edges present.
func (g *Graph) Density() float64 {
	if g.N < 2 {
		return 0
	}
	return float64(2*g.Edges()) / float64(g.N*(g.N-1))
}

// DegreeOrder returns the vertices sorted by non-increasing degree,
// ties broken by vertex index. It is MCSa's initial vertex order: the
// maximum-clique search space relabels its graph by it once, so the
// greedy colouring meets high-degree vertices first.
func (g *Graph) DegreeOrder() []int {
	order := make([]int, g.N)
	deg := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		order[v] = v
		deg[v] = g.Degree(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return deg[order[i]] > deg[order[j]]
	})
	return order
}

// DegeneracyOrder returns a vertex order computed by repeatedly
// removing a minimum-degree vertex, reversed — so early vertices are
// from the dense cores of the graph. It also returns the degeneracy
// (the largest minimum degree seen). Processing vertices in this
// order tightens greedy colourings, which is why clique solvers
// relabel their input by it.
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	deg := make([]int, g.N)
	removed := make([]bool, g.N)
	for v := 0; v < g.N; v++ {
		deg[v] = g.Degree(v)
	}
	removal := make([]int, 0, g.N)
	for len(removal) < g.N {
		best := -1
		for v := 0; v < g.N; v++ {
			if removed[v] {
				continue
			}
			if best < 0 || deg[v] < deg[best] {
				best = v
			}
		}
		if deg[best] > degeneracy {
			degeneracy = deg[best]
		}
		removed[best] = true
		removal = append(removal, best)
		g.Adj[best].ForEach(func(u int) bool {
			if !removed[u] {
				deg[u]--
			}
			return true
		})
	}
	order = make([]int, g.N)
	for i, v := range removal {
		order[g.N-1-i] = v
	}
	return order, degeneracy
}

// Relabel returns a copy of g with vertex i renamed to perm[i].
// perm must be a permutation of 0..N-1.
func (g *Graph) Relabel(perm []int) *Graph {
	if len(perm) != g.N {
		panic("graph: Relabel permutation length mismatch")
	}
	h := New(g.N)
	for u := 0; u < g.N; u++ {
		g.Adj[u].ForEach(func(v int) bool {
			if u < v {
				h.AddEdge(perm[u], perm[v])
			}
			return true
		})
	}
	return h
}

// InducedSubgraph returns the subgraph induced by the given vertices
// (renumbered 0..len(vs)-1 in the given order) together with the map
// from new index to original vertex.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, []int) {
	h := New(len(vs))
	for i, u := range vs {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(u, vs[j]) {
				h.AddEdge(i, j)
			}
		}
	}
	orig := make([]int, len(vs))
	copy(orig, vs)
	return h, orig
}

// IsClique reports whether the given vertex set is pairwise adjacent.
func (g *Graph) IsClique(vs bitset.Set) bool {
	ok := true
	vs.ForEach(func(u int) bool {
		vs.ForEach(func(v int) bool {
			if u != v && !g.HasEdge(u, v) {
				ok = false
			}
			return ok
		})
		return ok
	})
	return ok
}

// Complement returns the complement graph (no self-loops).
func (g *Graph) Complement() *Graph {
	h := New(g.N)
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if !g.HasEdge(u, v) {
				h.AddEdge(u, v)
			}
		}
	}
	return h
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d density=%.3f}", g.N, g.Edges(), g.Density())
}
