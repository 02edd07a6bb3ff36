package maxclique

import (
	"sync"
	"sync/atomic"

	"yewpar/internal/bitset"
	"yewpar/internal/graph"
)

// This file holds the search-specific comparators of the paper's
// Table 1: a hand-written sequential maximum-clique solver (the
// stand-in for McCreesh's C++ MCSa1) and a hand-written parallel
// version spawning one task per depth-1 subtree (the stand-in for the
// OpenMP implementation). Both run the same algorithm as the skeleton
// version but specialise everything the skeletons keep generic:
// candidate sets live in per-depth scratch buffers, nodes are never
// copied, and there are no generator objects.

// hcState is the per-worker state of the hand-coded solvers. It
// searches the Space's search-order rows, like the skeleton, and keeps
// current in G's labels. The incumbent is abstracted over two closures
// so the sequential solver can use a plain int and the parallel one an
// atomic shared between workers.
type hcState struct {
	s            *Space
	current      bitset.Set     // clique under construction, G labels
	uncol, class bitset.Set     // colouring scratch (not reentrant)
	levels       []hcLevel      // per-depth scratch, grown on first use
	nodes        int64          // search nodes visited
	best         func() int     // incumbent read
	report       func(size int) // incumbent strengthen (clique = current)
}

// hcLevel is one depth's scratch: the shrinking candidate set, the
// child candidate set, and the colour order and bounds.
type hcLevel struct {
	local, next   bitset.Set
	order, colour []int32
}

func newHCState(s *Space, best func() int, report func(int)) *hcState {
	st := &hcState{s: s, current: bitset.New(s.G.N), best: best, report: report}
	st.uncol, st.class = bitset.MakePair(s.G.N)
	return st
}

func (st *hcState) expand(size int, p bitset.Set, depth int) {
	n := st.s.G.N
	if depth == len(st.levels) {
		local, next := bitset.MakePair(n)
		st.levels = append(st.levels, hcLevel{local, next, make([]int32, 0, n), make([]int32, 0, n)})
	}
	// Copied out: deeper calls may grow st.levels. The order and colour
	// slices hold up to n entries, so colouring never reallocates them.
	lv := st.levels[depth]
	order, colour := bitset.ColourClasses(p, st.s.rows, st.uncol, st.class, lv.order[:0], lv.colour[:0])
	lv.local.CopyFrom(p)
	for i := len(order) - 1; i >= 0; i-- {
		// Each child is visited as the skeleton visits it: counted,
		// offered as incumbent, then bound-tested, so both solvers
		// report the same number of nodes for the same tree.
		v := int(order[i])
		u := int(st.s.label[v])
		st.current.Add(u)
		st.nodes++
		st.report(size + 1)
		if size+int(colour[i]) <= st.best() {
			st.current.Remove(u)
			return // every remaining candidate has a lower colour bound
		}
		lv.local.Remove(v)
		if bitset.IntersectIntoCount(lv.next, lv.local, st.s.rows[v]) > 0 {
			st.expand(size+1, lv.next, depth+1)
		}
		st.current.Remove(u)
	}
}

// SeqHandcoded finds a maximum clique with the specialised sequential
// solver, searching the same order as the skeleton. It returns the
// clique, in g's labels, and the number of search nodes visited.
func SeqHandcoded(g *graph.Graph) (bitset.Set, int64) {
	bestSet := bitset.New(g.N)
	best := 0
	var st *hcState
	st = newHCState(NewSpace(g),
		func() int { return best },
		func(size int) {
			if size > best {
				best = size
				bestSet.CopyFrom(st.current)
			}
		})
	if g.N > 0 {
		all := bitset.New(g.N)
		all.Fill()
		st.expand(0, all, 0)
	}
	return bestSet, st.nodes
}

// parTask is one depth-1 subtree of the hand-coded parallel solver;
// v and cands are in search labels.
type parTask struct {
	v     int
	cands bitset.Set
	bound int32
}

// ParHandcoded finds a maximum clique with the hand-written parallel
// solver: the root's children (in heuristic colour order) become tasks
// consumed by a fixed worker pool sharing an atomic incumbent — the
// direct analogue of the paper's OpenMP `task`-per-depth-1-node
// comparator.
func ParHandcoded(g *graph.Graph, workers int) (bitset.Set, int64) {
	if workers < 1 {
		workers = 1
	}
	bestSet := bitset.New(g.N)
	if g.N == 0 {
		return bestSet, 0
	}
	s := NewSpace(g)
	all := bitset.New(g.N)
	all.Fill()
	order, colour := greedyColour(s.rows, all)

	var best atomic.Int64
	var mu sync.Mutex
	var nodes atomic.Int64

	// Heuristic order: highest colour class first, like the skeleton.
	tasks := make(chan parTask, len(order))
	remaining := all.Clone()
	for i := len(order) - 1; i >= 0; i-- {
		v := int(order[i])
		remaining.Remove(v)
		cands := remaining.Clone()
		cands.IntersectWith(s.rows[v])
		tasks <- parTask{v: v, cands: cands, bound: colour[i]}
	}
	close(tasks)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st *hcState
			st = newHCState(s,
				func() int { return int(best.Load()) },
				func(size int) {
					if int64(size) <= best.Load() {
						return
					}
					// Objective and witness must move together, so the
					// strengthen is re-checked under the lock.
					mu.Lock()
					if int64(size) > best.Load() {
						best.Store(int64(size))
						bestSet.CopyFrom(st.current)
					}
					mu.Unlock()
				})
			for t := range tasks {
				if 1+int(t.bound) <= int(best.Load()) {
					continue // whole subtree dominated
				}
				st.current.Clear()
				st.current.Add(int(s.label[t.v]))
				st.nodes++
				st.report(1)
				if !t.cands.Empty() {
					st.expand(1, t.cands, 0)
				}
			}
			nodes.Add(st.nodes)
		}()
	}
	wg.Wait()
	return bestSet, nodes.Load()
}
