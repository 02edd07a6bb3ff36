package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"yewpar/internal/core"
)

// span is one traced interval, in nanoseconds since the run's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a solve
	Solve  int    `json:"solve"`
}

// keptSolves bounds the spans kept in memory, and written out at the
// end, to those of the first traced solves: a uts-tcp solve alone
// yields thousands of task spans. The aggregate task and codec
// metrics cover every traced solve.
const keptSolves = 4

// tracer keeps the spans of a traced run in memory. Spans come from
// the benchmark's own side of each layer boundary: the solve call,
// the codec (through tracedCodec) and the per-task events the engine
// records in core.Config.Trace. A nil *tracer traces nothing.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	cur     int // span index of the solve in progress, -1 if not kept
	solves  int
	pending []pendingTrace

	walls    []float64 // traced solve wall times, ms
	idle     []float64 // per solve: workers × wall − busy, ms
	taskMs   []float64
	busy     float64 // Σ task time, ns
	capacity float64 // Σ workers × wall, ns
	codecNs  float64
}

type pendingTrace struct {
	t       *core.Trace
	created time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

func (tc *tracer) since(t time.Time) int64 { return t.Sub(tc.epoch).Nanoseconds() }

// newTrace returns a core.Trace for one locality of the next solve.
func (tc *tracer) newTrace(workers int) *core.Trace {
	if tc == nil {
		return nil
	}
	t := core.NewTrace(workers)
	tc.mu.Lock()
	tc.pending = append(tc.pending, pendingTrace{t, time.Now()})
	tc.mu.Unlock()
	return t
}

// beginSolve opens the solve span that codec and task spans attach
// to, for the first keptSolves solves; later solves get id -1 and
// count only in the aggregates.
func (tc *tracer) beginSolve() int {
	if tc == nil {
		return -1
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.cur = -1
	if tc.solves < keptSolves {
		tc.spans = append(tc.spans, span{Name: "solve", Parent: -1, Solve: tc.solves})
		tc.cur = len(tc.spans) - 1
	}
	return tc.cur
}

// endSolve closes the solve span and folds in the task events of the
// traces handed out since beginSolve. The Sequential coordination
// records no task events: its single worker runs the whole tree as
// one task, so seqTask records the solve itself as that task.
func (tc *tracer) endSolve(id int, start time.Time, wall time.Duration, workers int, seqTask bool) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if id >= 0 {
		tc.spans[id].Start, tc.spans[id].End = tc.since(start), tc.since(start.Add(wall))
	}
	solve := tc.solves
	var busy int64
	addTask := func(s, e int64) {
		tc.keep(span{Name: "core.task", Start: s, End: e, Parent: id, Solve: solve})
		busy += e - s
		tc.taskMs = append(tc.taskMs, float64(e-s)/1e6)
	}
	if seqTask {
		addTask(tc.since(start), tc.since(start.Add(wall)))
	}
	for _, p := range tc.pending {
		base := tc.since(p.created)
		for _, e := range p.t.Events() {
			addTask(base+e.Start.Nanoseconds(), base+e.End.Nanoseconds())
		}
	}
	tc.pending = tc.pending[:0]
	capNs := float64(workers) * float64(wall.Nanoseconds())
	tc.busy += float64(busy)
	tc.capacity += capNs
	tc.idle = append(tc.idle, (capNs-float64(busy))/1e6)
	tc.walls = append(tc.walls, float64(wall.Nanoseconds())/1e6)
	tc.cur = -1
	tc.solves++
}

func (tc *tracer) keep(s span) {
	if s.Solve < keptSolves {
		tc.spans = append(tc.spans, s)
	}
}

// codecSpan records one codec call of the solve in progress.
func (tc *tracer) codecSpan(name string, start, end time.Time) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.keep(span{Name: name, Start: tc.since(start), End: tc.since(end), Parent: tc.cur, Solve: tc.solves})
	tc.codecNs += float64(end.Sub(start).Nanoseconds())
}

// selfTimes returns each span name's self time per kept solve in ms:
// its duration minus the part of it that its children cover.
func (tc *tracer) selfTimes() map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range tc.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for i, s := range tc.spans {
		self[s.Name] += float64(s.End-s.Start-covered(s.Start, s.End, children[i])) / 1e6
	}
	for k := range self {
		self[k] /= float64(max(min(tc.solves, keptSolves), 1))
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := max(iv[0], at), min(iv[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// write stores the kept spans as JSON lines.
func (tc *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tc.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedCodec forwards to the application codec and records a span
// around every call. Only the codec is wrapped: the transport is not,
// because the engine type-asserts its optional extensions, and the
// generator is not, because the engine relies on its recycling
// interfaces.
type tracedCodec[N any] struct {
	inner core.Codec[N]
	tc    *tracer
}

func (c tracedCodec[N]) Encode(n N) ([]byte, error) {
	start := time.Now()
	b, err := c.inner.Encode(n)
	c.tc.codecSpan("codec.encode", start, time.Now())
	return b, err
}

func (c tracedCodec[N]) EncodeTo(dst []byte, n N) ([]byte, error) {
	start := time.Now()
	b, err := c.inner.EncodeTo(dst, n)
	c.tc.codecSpan("codec.encode", start, time.Now())
	return b, err
}

func (c tracedCodec[N]) Decode(b []byte) (N, error) {
	start := time.Now()
	n, err := c.inner.Decode(b)
	c.tc.codecSpan("codec.decode", start, time.Now())
	return n, err
}

// formatSelf renders per-solve self times for the report.
func formatSelf(self map[string]float64) string {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		s += fmt.Sprintf(" %s=%.3fms", k, self[k])
	}
	return s
}
