package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/uts"
	"yewpar/internal/bitset"
	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// sink keeps the compiler from discarding the timed kernel calls.
var sink int

// perUnit times op in batches of at least 100µs until d has elapsed
// (five batches at least) and returns the median over batches of
// nanoseconds per unit of work; op returns the units it did.
func perUnit(d time.Duration, op func() int) float64 {
	var samples []float64
	deadline := time.Now().Add(d)
	for len(samples) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		units := 0
		for time.Since(start) < 100*time.Microsecond {
			units += op()
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(units))
	}
	return median(samples)
}

// sampleDepth2 collects up to limit nodes evenly spread over depths 1
// and 2 of a search tree, expanding at most `wide` depth-1 parents.
func sampleDepth2[S, N any](space S, root N, gen core.GenFactory[S, N], wide, limit int) []N {
	children := func(n N) []N {
		var out []N
		for g := gen(space, n); g.HasNext(); {
			out = append(out, g.Next())
		}
		return out
	}
	level1 := children(root)
	var level2 []N
	for _, n := range spread(level1, wide) {
		level2 = append(level2, children(n)...)
	}
	return append(spread(level1, limit/2), spread(level2, limit-limit/2)...)
}

// spread returns at most k elements of xs, evenly spaced.
func spread[T any](xs []T, k int) []T {
	if len(xs) <= k {
		return xs
	}
	out := make([]T, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k]
	}
	return out
}

// probeLayers times the public kernels of each layer on inputs drawn
// from the run's seed: the pool's first graphs and first UTS tree.
// Every workload reports every layer; the predictions file says which
// workloads' solves actually run each one.
func probeLayers(seed int64, sz sizes, clique bool, budget time.Duration) (map[string]metric, error) {
	m := make(map[string]metric)
	slice := budget / 10
	gs := drawGraphs(seed, sizes{graphs: min(sz.graphs, 4), n: sz.n, p: sz.p})
	rng := rand.New(rand.NewSource(deriveSeed(seed, "pairs", 0)))

	// bitset: the fused kernels on the graphs' own adjacency rows.
	var rows []bitset.Set
	for _, g := range gs {
		rows = append(rows, g.Adj...)
	}
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(len(rows)), rng.Intn(len(rows))}
	}
	dst := bitset.New(sz.n)
	m["bitset.intersect_count_ns"] = metric{perUnit(slice, func() int {
		for _, p := range pairs {
			sink += bitset.IntersectIntoCount(dst, rows[p[0]], rows[p[1]])
		}
		return len(pairs)
	}), "ns"}
	words := (sz.n + 63) / 64
	// Computed, not measured: two rows read and one written per call.
	m["bitset.intersect_gbps_computed"] = metric{float64(3*8*words) / m["bitset.intersect_count_ns"].Value, "GB/s"}
	m["bitset.popnext_ns_per_bit"] = metric{perUnit(slice, func() int {
		bits := 0
		for _, r := range rows[:min(64, len(rows))] {
			dst.CopyFrom(r)
			for dst.PopNext() >= 0 {
				bits++
			}
		}
		return bits
	}), "ns/bit"}

	// apps.maxclique: expansion and colouring on nodes down to depth 2.
	s := maxclique.NewSpace(gs[0])
	cnodes := sampleDepth2(s, maxclique.Root(s), maxclique.Gen, 8, 128)
	m["apps.maxclique.expand_ns_per_child"] = metric{perUnit(slice, func() int {
		kids := 0
		for _, n := range cnodes {
			for g := maxclique.Gen(s, n); g.HasNext(); g.Next() {
				kids++
			}
		}
		return kids
	}), "ns/child"}
	m["apps.maxclique.colour_ns"] = metric{perUnit(slice, func() int {
		for _, n := range cnodes {
			order, _ := maxclique.GreedyColour(s.G, n.Cands)
			sink += len(order)
		}
		return len(cnodes)
	}), "ns"}

	// apps.uts and codec.uts on nodes of the first tree down to depth 2.
	ts := drawTrees(seed, sizes{trees: 1, b0: sz.b0})[0]
	unodes := sampleDepth2(ts, uts.Root(ts), uts.Gen, 256, 512)
	m["apps.uts.expand_ns_per_child"] = metric{perUnit(slice, func() int {
		kids := 0
		for _, n := range unodes {
			for g := uts.Gen(ts, n); g.HasNext(); g.Next() {
				kids++
			}
		}
		return kids
	}), "ns/child"}
	codec := uts.Codec()
	var buf []byte
	encoded := make([][]byte, len(unodes))
	bytes := 0
	for i, n := range unodes {
		b, err := codec.Encode(n)
		if err != nil {
			return nil, fmt.Errorf("uts codec: %w", err)
		}
		encoded[i] = b
		bytes += len(b)
	}
	m["codec.uts.bytes_per_node"] = metric{float64(bytes) / float64(len(unodes)), "B/node"}
	m["codec.uts.encode_ns"] = metric{perUnit(slice, func() int {
		for _, n := range unodes {
			buf, _ = codec.EncodeTo(buf[:0], n)
		}
		return len(unodes)
	}), "ns"}
	m["codec.uts.decode_ns"] = metric{perUnit(slice, func() int {
		for _, b := range encoded {
			n, _ := codec.Decode(b)
			sink += n.Depth
		}
		return len(encoded)
	}), "ns"}

	// dist: steal round trips on a separate pair serving the workload's
	// own encoded nodes.
	payloads := encoded
	if clique {
		payloads = payloads[:0:0]
		for _, n := range cnodes {
			b, err := maxclique.Codec().Encode(n)
			if err != nil {
				return nil, fmt.Errorf("maxclique codec: %w", err)
			}
			payloads = append(payloads, b)
		}
	}
	rtt, deployMs, err := stealRTT(payloads, 3*slice)
	if err != nil {
		return nil, err
	}
	m["dist.steal_rtt_us.p50"] = metric{rtt, "us"}
	m["dist.deploy_ms"] = metric{deployMs, "ms"}
	return m, nil
}

// probeVictim serves the same payloads round-robin, forever. The
// extras of a batched steal reply arrive through OnTask and are
// dropped: the probe times round trips and nothing waits on them.
type probeVictim struct {
	payloads [][]byte
	next     atomic.Int64
}

func (v *probeVictim) ServeSteal(int) (dist.WireTask, bool) {
	i := v.next.Add(1)
	return dist.WireTask{Payload: v.payloads[int(i)%len(v.payloads)], Depth: 1}, true
}
func (*probeVictim) OnBound(int, int64)   {}
func (*probeVictim) OnCancel(int)         {}
func (*probeVictim) OnTask(dist.WireTask) {}
func (*probeVictim) OnAck(int, uint64)    {}

// stealRTT brings up probe deployments with the uts-tcp wire options
// and times Transport.Steal from the worker rank against the
// coordinator for about d. It returns the median round trip in µs and
// the median bring-up time in ms.
func stealRTT(payloads [][]byte, d time.Duration) (float64, float64, error) {
	var ups []float64
	var dep deployment
	for range 5 {
		dep.close()
		start := time.Now()
		var err error
		if dep, err = deploy(); err != nil {
			return 0, 0, err
		}
		ups = append(ups, float64(time.Since(start).Nanoseconds())/1e6)
	}
	defer dep.close()
	victim := &probeVictim{payloads: payloads}
	dep[0].Start(victim)
	dep[1].Start(&probeVictim{payloads: payloads})
	var rtts []float64
	deadline := time.Now().Add(d)
	for len(rtts) < 20 || time.Now().Before(deadline) {
		start := time.Now()
		_, ok, err := dep[1].Steal(0)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("probe steal: ok=%v err=%v", ok, err)
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(rtts), median(ups), nil
}
