package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

// sizes fixes how much input one run draws from its seed. The full
// sizes were chosen so that the median over a run's pool moves little
// from seed to seed: sparser G(300, 0.5) graphs vary less in search
// effort than the denser graphs of the paper's tables (CV of about
// 0.17 against 0.3 per graph), and binomial UTS trees with m·q = 0.97
// and a wide root vary about 8% in size where the classic
// m·q = 0.996 shape varies 90%.
type sizes struct {
	graphs int     // clique graphs per pool
	n      int     // vertices per graph
	p      float64 // edge probability
	trees  int     // UTS trees per pool
	b0     int     // UTS root branching factor
}

var fullSizes = sizes{graphs: 64, n: 300, p: 0.5, trees: 32, b0: 9000}

const (
	utsM      = 4
	utsQ      = 0.2425
	utsBudget = 1000
	// parCutoff is clique-par's Depth-Bounded spawn depth: the root's
	// children become tasks, enough for two workers on these graphs.
	parCutoff = 1
	// linkGrace arms the v8 resumable sessions on every uts-tcp link;
	// a fault-free run must never need them.
	linkGrace = 5 * time.Second
)

// deriveSeed maps (run seed, stream, index) to an instance seed, so
// every graph and tree depends on the run seed and nothing else.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", stream, seed, i)
	return int64(h.Sum64() >> 1)
}

func drawGraphs(seed int64, sz sizes) []*graph.Graph {
	gs := make([]*graph.Graph, sz.graphs)
	for i := range gs {
		gs[i] = graph.Random(sz.n, sz.p, deriveSeed(seed, "graph", i))
	}
	return gs
}

func drawTrees(seed int64, sz sizes) []*uts.Space {
	ts := make([]*uts.Space, sz.trees)
	for i := range ts {
		ts[i] = &uts.Space{Shape: uts.Binomial, B0: sz.b0, M: utsM, Q: utsQ, Seed: deriveSeed(seed, "uts", i)}
	}
	return ts
}

// parallelFor runs f(0), …, f(n-1) on GOMAXPROCS goroutines. Set-up
// uses it for the independent reference answers.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// countTree is the UTS reference: a plain recursive count over the
// application's generator, with no skeleton involved.
func countTree(s *uts.Space, n uts.Node) int64 {
	c := int64(1)
	for g := uts.Gen(s, n); g.HasNext(); {
		c += countTree(s, g.Next())
	}
	return c
}

// solveOut is one solve as seen from outside the program.
type solveOut struct {
	wall  time.Duration
	stats core.Stats
	err   error // wrong answer, returned error, or fault machinery fired
}

// instance is one workload's drawn inputs with their references.
type instance interface {
	size() int
	// solve runs pool entry i; tc, when non-nil, traces the solve.
	solve(i int, tc *tracer) solveOut
	// handcoded runs the hand-written base of the skeleton tax on
	// pool entry i and returns its wall time.
	handcoded(i int) time.Duration
	// reference returns pool entry i's paired reference solver.
	reference(i int) reference
	close()
}

// cliqueInst is a pool of graphs with their SeqHandcoded ω.
type cliqueInst struct {
	coord  core.Coordination
	cfg    core.Config
	spaces []*maxclique.Space
	omega  []int64
	refs   []*refGraph
}

func setupClique(coord core.Coordination, cfg core.Config) func(int64, sizes) (instance, error) {
	return func(seed int64, sz sizes) (instance, error) {
		gs := drawGraphs(seed, sz)
		c := &cliqueInst{coord: coord, cfg: cfg, spaces: make([]*maxclique.Space, len(gs)), omega: make([]int64, len(gs)), refs: make([]*refGraph, len(gs))}
		parallelFor(len(gs), func(i int) {
			best, _ := maxclique.SeqHandcoded(gs[i])
			c.spaces[i] = maxclique.NewSpace(gs[i])
			c.omega[i] = int64(best.Count())
			c.refs[i] = newRefGraph(gs[i])
		})
		return c, nil
	}
}

func (c *cliqueInst) size() int { return len(c.spaces) }
func (c *cliqueInst) close()    {}

func (c *cliqueInst) solve(i int, tc *tracer) solveOut {
	s := c.spaces[i]
	cfg := c.cfg
	workers := cfg.Workers
	if c.coord == core.Sequential {
		workers = 1
	}
	cfg.Trace = tc.newTrace(workers)
	id := tc.beginSolve()
	start := time.Now()
	res := core.Opt(c.coord, s, maxclique.Root(s), maxclique.OptProblem(), cfg)
	wall := time.Since(start)
	tc.endSolve(id, start, wall, workers, c.coord == core.Sequential)
	out := solveOut{wall: wall, stats: res.Stats}
	got := int64(res.Best.Clique.Count())
	switch {
	case !res.Found || got != c.omega[i] || res.Objective != c.omega[i]:
		out.err = fmt.Errorf("graph %d: clique of %d (objective %d), reference ω = %d", i, got, res.Objective, c.omega[i])
	case !s.G.IsClique(res.Best.Clique):
		out.err = fmt.Errorf("graph %d: returned vertex set is not a clique", i)
	}
	return out
}

func (c *cliqueInst) reference(i int) reference {
	return func() int64 {
		_, nodes := c.refs[i].maxClique()
		return nodes
	}
}

func (c *cliqueInst) handcoded(i int) time.Duration {
	start := time.Now()
	if c.coord == core.Sequential {
		maxclique.SeqHandcoded(c.spaces[i].G)
	} else {
		maxclique.ParHandcoded(c.spaces[i].G, c.cfg.Workers)
	}
	return time.Since(start)
}

// deployment is one in-process uts-tcp deployment: a coordinator and
// one worker locality joined by a 127.0.0.1 connection. A transport
// serves exactly one search, so every solve needs a fresh one.
type deployment [2]dist.Transport

var wireOpts = dist.WireOptions{Topology: dist.TopologyMesh, LinkGrace: linkGrace, RegTimeout: 30 * time.Second}

func deploy() (deployment, error) {
	var d deployment
	l, err := dist.NewListenerOpts("127.0.0.1:0", "perfbench", wireOpts)
	if err != nil {
		return d, fmt.Errorf("listen: %w", err)
	}
	var derr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		d[1], derr = dist.DialOpts(l.Addr(), "perfbench", wireOpts)
	}()
	d[0], err = l.Wait(1)
	<-done
	if err != nil || derr != nil {
		l.Close()
		d.close()
		return deployment{}, fmt.Errorf("deploy: coordinator %v, worker %v", err, derr)
	}
	return d, nil
}

func (d deployment) close() {
	for _, tr := range d {
		if tr != nil {
			tr.Close()
		}
	}
}

// utsInst is a pool of UTS trees with their reference node counts.
type utsInst struct {
	spaces []*uts.Space
	want   []int64
	next   *deployment // brought up by set-up, consumed by the first solve
	deploy []float64   // bring-up times, ms
}

func setupUTS(seed int64, sz sizes) (instance, error) {
	u := &utsInst{spaces: drawTrees(seed, sz)}
	u.want = make([]int64, len(u.spaces))
	parallelFor(len(u.spaces), func(i int) {
		u.want[i] = countTree(u.spaces[i], uts.Root(u.spaces[i]))
	})
	d, err := u.bringUp()
	if err != nil {
		return nil, err
	}
	u.next = &d
	return u, nil
}

func (u *utsInst) bringUp() (deployment, error) {
	start := time.Now()
	d, err := deploy()
	u.deploy = append(u.deploy, float64(time.Since(start).Nanoseconds())/1e6)
	return d, err
}

func (u *utsInst) size() int { return len(u.spaces) }

func (u *utsInst) close() {
	if u.next != nil {
		u.next.close()
		u.next = nil
	}
}

// handcoded times the reference count: the single-core loop a user
// would write without the skeletons.
func (u *utsInst) handcoded(i int) time.Duration {
	start := time.Now()
	countTree(u.spaces[i], uts.Root(u.spaces[i]))
	return time.Since(start)
}

func (u *utsInst) reference(i int) reference {
	return func() int64 { return refUTS(u.spaces[i]) }
}

func (u *utsInst) solve(i int, tc *tracer) solveOut {
	var d deployment
	if u.next != nil {
		d, u.next = *u.next, nil
	} else {
		var err error
		if d, err = u.bringUp(); err != nil {
			return solveOut{err: err}
		}
	}
	defer d.close()
	s := u.spaces[i]
	var codec core.Codec[uts.Node] = uts.Codec()
	if tc != nil {
		codec = tracedCodec[uts.Node]{inner: codec, tc: tc}
	}
	var (
		res  [2]core.EnumResult[int64]
		errs [2]error
		end  time.Time
		wg   sync.WaitGroup
	)
	id := tc.beginSolve()
	start := time.Now()
	for r := range d {
		cfg := core.Config{Workers: 1, Budget: utsBudget, Trace: tc.newTrace(1)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[r], errs[r] = core.DistEnum(d[r], codec, core.Budget, s, uts.Root(s), uts.CountProblem(), cfg)
			if r == 0 {
				end = time.Now()
			}
		}()
	}
	wg.Wait()
	wall := end.Sub(start)
	tc.endSolve(id, start, wall, len(d), false)
	st := res[0].Stats
	out := solveOut{wall: wall, stats: st}
	switch {
	case errs[0] != nil || errs[1] != nil:
		out.err = fmt.Errorf("tree %d: coordinator %v, worker %v", i, errs[0], errs[1])
	case res[0].Value != u.want[i]:
		out.err = fmt.Errorf("tree %d: counted %d nodes, reference %d", i, res[0].Value, u.want[i])
	case st.Deaths != 0 || st.ReplayedTasks != 0:
		out.err = fmt.Errorf("tree %d: fault-free run saw %d deaths, %d replayed tasks", i, st.Deaths, st.ReplayedTasks)
	}
	return out
}
