package maxclique

import (
	"sync"
	"testing"

	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

// distSolve runs one DistOpt over the given rank-indexed transports.
// Each rank builds its own Space from g, as separate processes do, so
// the search order is derived independently on every locality.
func distSolve(t *testing.T, trs []dist.Transport, g *graph.Graph, coord core.Coordination) core.OptResult[Node] {
	t.Helper()
	results := make([]core.OptResult[Node], len(trs))
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := NewSpace(g)
			results[r], errs[r] = core.DistOpt(trs[r], Codec(), coord, s, Root(s), OptProblem(),
				core.Config{Workers: 2, DCutoff: 1, Budget: 4})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%v rank %d: %v", coord, r, err)
		}
	}
	return results[0]
}

// tcpTransports brings up an in-process 1-coordinator + 2-worker TCP
// deployment and returns its transports indexed by rank.
func tcpTransports(t *testing.T) []dist.Transport {
	t.Helper()
	l, err := dist.NewListener("127.0.0.1:0", "maxclique-witness")
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]dist.Transport, 3)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var derr error
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := dist.Dial(l.Addr(), "maxclique-witness")
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				derr = err
				return
			}
			trs[tr.Rank()] = tr
		}()
	}
	hub, err := l.Wait(2)
	wg.Wait()
	if err != nil || derr != nil {
		t.Fatalf("tcp deployment: %v / %v", err, derr)
	}
	trs[0] = hub
	return trs
}

func TestDistWitnessesAreCliquesOfInputGraph(t *testing.T) {
	// Rank 0's witness crosses the codec from whichever locality found
	// it; it must still be a maximum clique of G in G's labels.
	for gi, g := range tiedGraphs() {
		want := bruteForceMaxClique(g)
		for _, coord := range []core.Coordination{core.DepthBounded, core.StackStealing, core.Budget} {
			for _, transport := range []string{"loopback", "tcp"} {
				var trs []dist.Transport
				if transport == "loopback" {
					trs = dist.NewLoopback(3, dist.LoopbackOptions{}).Transports()
				} else {
					trs = tcpTransports(t)
				}
				res := distSolve(t, trs, g, coord)
				for _, tr := range trs {
					tr.Close()
				}
				c := res.Best.Clique
				if !res.Found || c.Count() != want || int(res.Objective) != want || !g.IsClique(c) {
					t.Errorf("graph %d %v %s: witness %v (size %d, objective %d) is not a maximum clique of G (ω=%d)",
						gi, coord, transport, c, c.Count(), res.Objective, want)
				}
			}
		}
	}
}
