package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"yewpar/internal/core"
)

// workloadDef names a workload and how its inputs are set up.
type workloadDef struct {
	name    string
	clique  bool
	threads int // CPUs a solve keeps busy; its reference runs on as many
	setup   func(seed int64, sz sizes) (instance, error)
}

var workloads = []workloadDef{
	{"clique-seq", true, 1, setupClique(core.Sequential, core.Config{})},
	{"clique-par", true, 2, setupClique(core.DepthBounded, core.Config{Workers: 2, Localities: 1, DCutoff: parCutoff})},
	{"uts-tcp", false, 2, setupUTS},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line plus the report lines that
// precede it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes  []string
	errors []string
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// record counts one solve's outcome.
func (r *result) record(out solveOut) {
	r.Attempted++
	if out.err != nil {
		r.Failed++
		if len(r.errors) < 5 {
			r.errors = append(r.errors, out.err.Error())
		}
	}
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.note("fail_frac = %g (%d of %d solves failed)", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
}

// setupRepeated sets the workload up `times` times and keeps the last
// instance; set-up time is their median.
func setupRepeated(w workloadDef, seed int64, sz sizes, times int) (instance, float64, error) {
	var inst instance
	var durs []float64
	for i := 0; i < times; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setup(seed, sz); err != nil {
			return nil, 0, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	return inst, median(durs), nil
}

// runTimed is the untraced run: it solves the pool round-robin for d
// and reports the end-to-end metrics. Each solve runs between two runs
// of its reference on the same input, and is compared with their mean,
// so a drift in host speed across the three cancels too.
func runTimed(inst instance, threads int, setupS float64, d time.Duration) *result {
	r := newResult()
	var walls, refWalls, rel []float64
	var nodes, refNodes int64
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % inst.size()
		before, refN := runReference(inst.reference(k), threads)
		out := inst.solve(k, nil)
		after, _ := runReference(inst.reference(k), threads)
		refWall := (before + after) / 2
		r.record(out)
		walls = append(walls, float64(out.wall.Nanoseconds())/1e6)
		refWalls = append(refWalls, float64(refWall.Nanoseconds())/1e6)
		rel = append(rel, float64(out.wall)/float64(refWall))
		nodes += out.stats.Nodes
		refNodes += refN
	}
	r.finish()
	tv, pct, beyond := tail(rel)
	r.set("solve_rel.p50", "ratio", median(rel))
	r.set("solve_rel.tail", "ratio", tv)
	r.note("solve_rel is each solve's wall time over the mean of its two paired reference runs (%d reference thread(s) on the same input); solve_rel.tail is p%.2f: %d of %d solves beyond it", threads, pct, beyond, len(rel))
	r.set("node_rate_rel", "ratio", ratio(float64(nodes)/sum(walls), float64(refNodes)/sum(refWalls)))
	r.set("ok_frac", "frac", 1-ratio(float64(r.Failed), float64(r.Attempted)))
	r.set("setup_s", "s", setupS)
	rss, src := peakRSSMB()
	r.set("rss_peak_mb", "MB", rss)
	r.note("rss_peak_mb from %s", src)
	wt, _, _ := tail(walls)
	r.note("wall times, which carry the host's drift: solve_ms.p50 = %.4g ms, solve_ms.tail = %.4g ms, nodes_per_s = %.4g; reference p50 = %.4g ms",
		median(walls), wt, float64(nodes)/sum(walls)*1e3, median(refWalls))
	return r
}

// runTraced is the traced run. It alternates an untraced solve, a
// traced solve and the hand-coded base on each pool entry, after
// timing each layer's kernels on the seed's inputs.
func runTraced(w workloadDef, inst instance, seed int64, sz sizes, d time.Duration, spans string) (*result, error) {
	r := newResult()
	start := time.Now()
	probe := max(d/6, 500*time.Millisecond)
	layer, err := probeLayers(seed, sz, w.clique, probe)
	if err != nil {
		return nil, err
	}
	tc := newTracer()
	var (
		plain, traced, hand []float64
		tot                 core.Stats
		allocBytes          uint64
		ms                  runtime.MemStats
		sameNodes           = true
	)
	deadline := start.Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % inst.size()
		runPlain := func() solveOut {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			out := inst.solve(k, nil)
			runtime.ReadMemStats(&ms)
			allocBytes += ms.TotalAlloc - before
			return out
		}
		var p, t solveOut
		// Alternate which variant goes first so neither always runs on
		// a heap the other just grew.
		if i%2 == 0 {
			p, t = runPlain(), inst.solve(k, tc)
		} else {
			t, p = inst.solve(k, tc), runPlain()
		}
		r.record(p)
		r.record(t)
		if w.name == "clique-seq" && p.stats.Nodes != t.stats.Nodes {
			sameNodes = false
			r.Failed++
			r.errors = append(r.errors, fmt.Sprintf("graph %d: traced run visited %d nodes, untraced %d", k, t.stats.Nodes, p.stats.Nodes))
		}
		plain = append(plain, float64(p.wall.Nanoseconds())/1e6)
		traced = append(traced, float64(t.wall.Nanoseconds())/1e6)
		hand = append(hand, float64(inst.handcoded(k).Nanoseconds())/1e6)
		addStats(&tot, p.stats)
	}
	r.finish()
	if u, ok := inst.(*utsInst); ok {
		layer["dist.deploy_ms"] = metric{median(u.deploy), "ms"}
		r.note("dist.deploy_ms: median of %d uts-tcp deployments", len(u.deploy))
	}
	n := float64(len(plain))
	for name, v := range layer {
		r.Metrics[name] = v
	}
	r.set("core.skeleton_tax", "ratio", sum(plain)/sum(hand))
	r.set("core.nodes", "count/solve", float64(tot.Nodes)/n)
	r.set("core.prunes", "count/solve", float64(tot.Prunes)/n)
	r.set("core.spawns", "count/solve", float64(tot.Spawns)/n)
	r.set("core.backtracks", "count/solve", float64(tot.Backtracks)/n)
	r.set("core.local_steals", "count/solve", float64(tot.LocalSteals)/n)
	r.set("core.steal_ok_frac", "frac", ratio(float64(tot.StealsOK), float64(tot.StealsOK+tot.StealsFail)))
	r.set("core.prefetch_hit_rate", "frac", tot.PrefetchHitRate())
	r.set("core.pool_peak_tasks", "count/solve", float64(tot.PoolPeakTasks)/n)
	r.set("core.broadcasts", "count/solve", float64(tot.Broadcasts)/n)
	r.set("core.alloc_bytes_per_node", "B/node", ratio(float64(allocBytes), float64(tot.Nodes)))
	r.set("core.busy_frac", "frac", ratio(tc.busy, tc.capacity))
	r.set("core.idle_ms", "ms", median(tc.idle))
	r.set("core.task_ms.p50", "ms", median(tc.taskMs))
	r.set("core.tasks", "count/solve", float64(len(tc.taskMs))/float64(max(tc.solves, 1)))
	r.set("codec.busy_frac", "frac", ratio(tc.codecNs/1e6, sum(tc.walls)))
	tasks := float64(tot.BatchTasks)
	r.set("dist.frames_per_task", "frames/task", ratio(float64(tot.Frames), tasks))
	r.set("dist.bytes_per_task", "B/task", ratio(float64(tot.WireBytes), tasks))
	r.set("dist.batch_occupancy", "tasks/reply", tot.BatchOccupancy())
	r.set("dist.deaths", "count", float64(tot.Deaths))
	r.set("dist.replayed_tasks", "count", float64(tot.ReplayedTasks))
	r.set("dist.resumes", "count", float64(tot.LinkResumes))
	r.set("trace.overhead", "ratio", ratio(median(traced), median(plain)))

	r.note("traced run: %d untraced + %d traced solves, %d hand-coded base runs", len(plain), len(traced), len(hand))
	if w.name == "clique-seq" {
		r.note("traced node counts equal untraced on every graph: %v", sameNodes)
	}
	r.note("self time per traced solve, first %d solves:%s", keptSolves, formatSelf(tc.selfTimes()))
	if err := tc.write(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans of the first %d traced solves written to %s", keptSolves, spans)
	return r, nil
}

// addStats sums the per-solve counters the traced run reports. The
// pool peak is summed too: the report divides by the solve count.
func addStats(s *core.Stats, o core.Stats) {
	s.Nodes += o.Nodes
	s.Prunes += o.Prunes
	s.Spawns += o.Spawns
	s.Backtracks += o.Backtracks
	s.LocalSteals += o.LocalSteals
	s.StealsOK += o.StealsOK
	s.StealsFail += o.StealsFail
	s.PrefetchHits += o.PrefetchHits
	s.PoolPeakTasks += o.PoolPeakTasks
	s.Broadcasts += o.Broadcasts
	s.Frames += o.Frames
	s.WireBytes += o.WireBytes
	s.BatchTasks += o.BatchTasks
	s.BatchReplies += o.BatchReplies
	s.Deaths += o.Deaths
	s.ReplayedTasks += o.ReplayedTasks
	s.LinkResumes += o.LinkResumes
}

// peakRSSMB reads the process's peak resident set (VmHWM), falling
// back to the Go runtime's total obtained memory where /proc is
// missing.
func peakRSSMB() (float64, string) {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024, "VmHWM"
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20), "runtime MemStats.Sys"
}
