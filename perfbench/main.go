// Command perfbench is yewpar's repository benchmark. It draws one
// workload's inputs from a seed, sets them up (with independent
// reference answers), solves them for a fixed time through the
// program's public entry points, checks every answer, and prints a
// report followed by one JSON verdict line.
//
// With -trace 0 the verdict carries the end-to-end metrics; with
// -trace 1 a separate traced run carries the per-layer metrics and
// writes its spans under -out. BENCHMARK.json at the repository root
// lists both sets; predictions.json beside this file says which
// end-to-end metric each layer metric should move, on which workload.
//
// Build and run it from the repository root with
//
//	python3 perfbench/run.py --workload clique-seq --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRuns is how many times a timed run sets up, reporting the
// median as setup_s.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: clique-seq, clique-par or uts-tcp")
	seed := fs.Int64("seed", 1, "workload seed; the same seed draws the same inputs")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "0: untraced run with end-to-end metrics; 1: traced run with per-layer metrics")
	commit := fs.String("commit", "unknown", "commit or source digest of the measured tree")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload clique-seq|clique-par|uts-tcp, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	facts := hostFacts(w.name, *seed, *trace, *commit)
	d := time.Duration(*seconds) * time.Second

	var r *result
	if *trace == 0 {
		inst, setupS, err := setupRepeated(w, *seed, fullSizes, setupRuns)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		r = runTimed(inst, w.threads, setupS, d)
		inst.close()
	} else {
		inst, _, err := setupRepeated(w, *seed, fullSizes, 1)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		spans := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		r, err = runTraced(w, inst, *seed, fullSizes, d, spans)
		inst.close()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	if err := report(stdout, facts, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// report prints the host facts, the notes, every metric with its unit
// and, last, the JSON verdict line.
func report(w io.Writer, facts map[string]any, r *result) error {
	hf, err := json.Marshal(facts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# host %s\n", hf)
	for _, e := range r.errors {
		fmt.Fprintf(w, "# FAILED: %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "# %s = %.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostFacts records what every speed claim needs next to it.
func hostFacts(workload string, seed int64, trace int, commit string) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
