package maxclique

import (
	"testing"
	"testing/quick"

	"yewpar/internal/bitset"
	"yewpar/internal/core"
	"yewpar/internal/graph"
)

// bruteForceMaxClique enumerates all subsets (n <= 20).
func bruteForceMaxClique(g *graph.Graph) int {
	best := 0
	for mask := 0; mask < 1<<g.N; mask++ {
		vs := bitset.New(g.N)
		for v := 0; v < g.N; v++ {
			if mask&(1<<v) != 0 {
				vs.Add(v)
			}
		}
		if c := vs.Count(); c > best && g.IsClique(vs) {
			best = c
		}
	}
	return best
}

func TestFigureOneGraph(t *testing.T) {
	g, names := FigureOneGraph()
	if g.N != 8 || g.Edges() != 13 {
		t.Fatalf("figure 1 graph: n=%d m=%d", g.N, g.Edges())
	}
	clique, stats := Solve(g, core.Sequential, core.Config{})
	if clique.Count() != 4 {
		t.Fatalf("max clique size = %d, want 4", clique.Count())
	}
	if !g.IsClique(clique) {
		t.Fatal("returned set is not a clique")
	}
	// The unique maximum clique of Figure 1 is {a, d, f, g}.
	want := map[string]bool{"a": true, "d": true, "f": true, "g": true}
	clique.ForEach(func(v int) bool {
		if !want[names[v]] {
			t.Errorf("unexpected clique member %s", names[v])
		}
		return true
	})
	if stats.Nodes == 0 {
		t.Fatal("no nodes visited")
	}
}

func TestGreedyColourProperties(t *testing.T) {
	g := graph.Random(40, 0.5, 3)
	p := bitset.New(40)
	p.Fill()
	order, colour := GreedyColour(g, p)
	if len(order) != 40 || len(colour) != 40 {
		t.Fatalf("lengths %d/%d", len(order), len(colour))
	}
	// colour is non-decreasing and counts colours used so far
	for i := 1; i < len(colour); i++ {
		if colour[i] < colour[i-1] {
			t.Fatal("colour sequence decreases")
		}
		if colour[i] > colour[i-1]+1 {
			t.Fatal("colour sequence skips")
		}
	}
	// vertices in the same colour class are pairwise non-adjacent
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			if colour[i] == colour[j] && g.HasEdge(int(order[i]), int(order[j])) {
				t.Fatalf("colour class %d contains edge (%d,%d)", colour[i], order[i], order[j])
			}
		}
	}
	// every candidate appears exactly once
	seen := bitset.New(40)
	for _, v := range order {
		if seen.Contains(int(v)) {
			t.Fatalf("vertex %d coloured twice", v)
		}
		seen.Add(int(v))
	}
}

func TestColourBoundDominatesCliqueNumber(t *testing.T) {
	// #colours >= max clique within any candidate set
	f := func(seed int64) bool {
		g := graph.Random(14, 0.5, seed)
		p := bitset.New(14)
		p.Fill()
		_, colour := GreedyColour(g, p)
		if len(colour) == 0 {
			return true
		}
		return int(colour[len(colour)-1]) >= bruteForceMaxClique(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, p := range []float64{0.2, 0.5, 0.8} {
			g := graph.Random(14, p, seed)
			want := bruteForceMaxClique(g)
			clique, _ := Solve(g, core.Sequential, core.Config{})
			if clique.Count() != want {
				t.Errorf("seed %d p %.1f: clique %d, want %d", seed, p, clique.Count(), want)
			}
			if !g.IsClique(clique) {
				t.Errorf("seed %d p %.1f: not a clique", seed, p)
			}
		}
	}
}

func TestAllSkeletonsAgree(t *testing.T) {
	g := graph.Random(60, 0.6, 11)
	want, _ := Solve(g, core.Sequential, core.Config{})
	for _, coord := range []core.Coordination{core.DepthBounded, core.StackStealing, core.Budget} {
		for _, cfg := range []core.Config{
			{Workers: 4},
			{Workers: 8, Localities: 3, DCutoff: 2, Budget: 50, Chunked: true},
		} {
			clique, _ := Solve(g, coord, cfg)
			if clique.Count() != want.Count() {
				t.Errorf("%v: clique %d, want %d", coord, clique.Count(), want.Count())
			}
			if !g.IsClique(clique) {
				t.Errorf("%v: returned non-clique", coord)
			}
		}
	}
}

func TestHandcodedMatchesSkeleton(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		g := graph.Random(50, 0.7, seed)
		skel, _ := Solve(g, core.Sequential, core.Config{})
		seq, _ := SeqHandcoded(g)
		par, _ := ParHandcoded(g, 4)
		if seq.Count() != skel.Count() {
			t.Errorf("seed %d: handcoded seq %d, skeleton %d", seed, seq.Count(), skel.Count())
		}
		if par.Count() != skel.Count() {
			t.Errorf("seed %d: handcoded par %d, skeleton %d", seed, par.Count(), skel.Count())
		}
		if !g.IsClique(seq) || !g.IsClique(par) {
			t.Errorf("seed %d: handcoded returned non-clique", seed)
		}
	}
}

func TestHandcodedEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.New(0)
	if c, _ := SeqHandcoded(empty); c.Count() != 0 {
		t.Fatal("empty graph clique non-empty")
	}
	if c, _ := ParHandcoded(empty, 2); c.Count() != 0 {
		t.Fatal("empty graph clique non-empty (par)")
	}
	single := graph.New(1)
	if c, _ := SeqHandcoded(single); c.Count() != 1 {
		t.Fatalf("single-vertex clique = %d, want 1", c.Count())
	}
	edgeless := graph.New(5)
	if c, _ := SeqHandcoded(edgeless); c.Count() != 1 {
		t.Fatalf("edgeless clique = %d, want 1", c.Count())
	}
}

func TestDecisionSatisfiable(t *testing.T) {
	g, planted := graph.PlantedClique(80, 0.3, 9, 5)
	_ = planted
	for _, coord := range []core.Coordination{core.Sequential, core.DepthBounded, core.StackStealing, core.Budget} {
		clique, found, _ := Decide(g, 9, coord, core.Config{Workers: 4})
		if !found {
			t.Errorf("%v: planted 9-clique not found", coord)
			continue
		}
		if clique.Count() < 9 {
			t.Errorf("%v: witness has %d vertices", coord, clique.Count())
		}
		if !g.IsClique(clique) {
			t.Errorf("%v: witness not a clique", coord)
		}
	}
}

func TestDecisionUnsatisfiable(t *testing.T) {
	g := graph.Random(40, 0.3, 17)
	max, _ := Solve(g, core.Sequential, core.Config{})
	k := max.Count() + 1
	for _, coord := range []core.Coordination{core.Sequential, core.DepthBounded, core.StackStealing, core.Budget} {
		_, found, _ := Decide(g, k, coord, core.Config{Workers: 4})
		if found {
			t.Errorf("%v: found impossible %d-clique", coord, k)
		}
	}
}

func TestDecisionPrunesAgainstTarget(t *testing.T) {
	g := graph.Random(40, 0.5, 23)
	// Impossibly large target: the colour bound should prune hard, so
	// far fewer nodes than the optimisation search of the same graph.
	_, found, stats := Decide(g, 39, core.Sequential, core.Config{})
	if found {
		t.Fatal("absurd clique found")
	}
	if stats.Prunes == 0 {
		t.Error("decision bound never pruned")
	}
}

func TestRootNode(t *testing.T) {
	g := graph.Random(10, 0.5, 1)
	s := NewSpace(g)
	root := Root(s)
	if root.Size != 0 || root.Cands.Count() != 10 || !root.Clique.Empty() {
		t.Fatalf("bad root: %+v", root)
	}
	if UpperBound(s, root) < int64(bruteForceMaxClique(g)) {
		t.Fatal("root bound not admissible")
	}
}

func TestSpaceSearchOrder(t *testing.T) {
	// rows is G relabelled by the MCSa initial order: label is
	// graph.DegreeOrder, and search vertices i, j are adjacent exactly
	// when label[i], label[j] are.
	for _, g := range []*graph.Graph{graph.Random(70, 0.5, 2), graph.New(5), graph.New(0)} {
		s := NewSpace(g)
		for i, v := range g.DegreeOrder() {
			if int(s.label[i]) != v {
				t.Fatalf("label[%d] = %d, want DegreeOrder %d", i, s.label[i], v)
			}
		}
		for i := 0; i < g.N; i++ {
			for j := 0; j < g.N; j++ {
				if s.rows[i].Contains(j) != g.HasEdge(int(s.label[i]), int(s.label[j])) {
					t.Fatalf("rows[%d] has %d = %v, G disagrees", i, j, s.rows[i].Contains(j))
				}
			}
		}
	}
}

func TestGenChildOrderIsReverseColour(t *testing.T) {
	g := graph.Random(20, 0.5, 9)
	s := NewSpace(g)
	root := Root(s)
	// The root's candidates are every search vertex; the generator
	// yields them in reverse colour order of the search-order rows.
	order, colour := greedyColour(s.rows, root.Cands)
	gen := Gen(s, root)
	i := len(order) - 1
	for gen.HasNext() {
		child := gen.Next()
		v := int(s.label[order[i]])
		if child.Size != 1 || !child.Clique.Contains(v) {
			t.Fatalf("child %d should be the clique {%d}, got %v", len(order)-1-i, v, child.Clique)
		}
		// The extension bound is the MCSa colour[i] - 1: v's own colour
		// class cannot survive the candidate intersection.
		if child.Bound != int(colour[i])-1 {
			t.Fatalf("child bound %d, want colour-1 %d", child.Bound, int(colour[i])-1)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("generator yielded %d children, want %d", len(order)-1-i, len(order))
	}
}

func TestGenChildCandidatesSound(t *testing.T) {
	// every candidate of a child, read through the search order, is
	// adjacent in G to all clique members
	g := graph.Random(30, 0.5, 13)
	s := NewSpace(g)
	gen := Gen(s, Root(s))
	for gen.HasNext() {
		child := gen.Next()
		child.Cands.ForEach(func(c int) bool {
			child.Clique.ForEach(func(m int) bool {
				if !g.HasEdge(int(s.label[c]), m) {
					t.Fatalf("candidate %d (G vertex %d) not adjacent to clique member %d", c, s.label[c], m)
				}
				return true
			})
			return true
		})
	}
}

func TestSequentialVisitsHandcodedTree(t *testing.T) {
	// The skeleton and the hand-coded solver search the same order
	// with the same bound, so they visit exactly the same nodes; the
	// skeleton's count also holds the root.
	for seed := int64(30); seed < 36; seed++ {
		for _, p := range []float64{0.3, 0.6, 0.9} {
			g := graph.Random(60, p, seed)
			_, stats := Solve(g, core.Sequential, core.Config{})
			_, nodes := SeqHandcoded(g)
			if stats.Nodes != nodes+1 {
				t.Errorf("seed %d p %.1f: skeleton visited %d nodes, hand-coded %d (+1 root)", seed, p, stats.Nodes, nodes)
			}
		}
	}
}

// tiedGraphs are small graphs in which many vertices share a degree,
// so the order's index tie-break decides the search labels.
func tiedGraphs() []*graph.Graph {
	cycle := graph.New(12) // every vertex degree 2
	for v := 0; v < 12; v++ {
		cycle.AddEdge(v, (v+1)%12)
	}
	// Two disjoint K4s and a K5 joined by a path: ties inside every
	// block, and the unique maximum clique at the highest labels.
	blocks := graph.New(13)
	for _, b := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11, 12}} {
		for i := range b {
			for j := i + 1; j < len(b); j++ {
				blocks.AddEdge(b[i], b[j])
			}
		}
	}
	blocks.AddEdge(3, 4)
	blocks.AddEdge(7, 8)
	gs := []*graph.Graph{cycle, blocks}
	for seed := int64(0); seed < 4; seed++ {
		gs = append(gs, graph.Random(16, 0.5, seed))
	}
	return gs
}

func TestWitnessesAreCliquesOfInputGraph(t *testing.T) {
	// Every solver returns its witness in G's labels: a clique of the
	// input graph as given, of size ω.
	for gi, g := range tiedGraphs() {
		want := bruteForceMaxClique(g)
		check := func(name string, c bitset.Set) {
			t.Helper()
			if c.Count() != want || !g.IsClique(c) {
				t.Errorf("graph %d %s: witness %v (size %d) is not a maximum clique of G (ω=%d)", gi, name, c, c.Count(), want)
			}
		}
		for _, coord := range []core.Coordination{core.Sequential, core.DepthBounded, core.StackStealing, core.Budget} {
			c, _ := Solve(g, coord, core.Config{Workers: 3, DCutoff: 1, Budget: 4})
			check(coord.String(), c)
			k, found, _ := Decide(g, want, coord, core.Config{Workers: 3, DCutoff: 1, Budget: 4})
			if !found {
				t.Errorf("graph %d %v: %d-clique not found", gi, coord, want)
			}
			check(coord.String()+" decide", k)
		}
		seq, _ := SeqHandcoded(g)
		check("SeqHandcoded", seq)
		par, _ := ParHandcoded(g, 3)
		check("ParHandcoded", par)
	}
}

func BenchmarkSolveSeqSkeleton(b *testing.B) {
	g := graph.Random(80, 0.7, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(g, core.Sequential, core.Config{})
	}
}

func BenchmarkSolveSeqHandcoded(b *testing.B) {
	g := graph.Random(80, 0.7, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SeqHandcoded(g)
	}
}
