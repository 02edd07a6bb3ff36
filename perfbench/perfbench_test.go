package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/uts"
)

// tinySizes keeps the tests to seconds; the code paths are the full
// benchmark's.
var tinySizes = sizes{graphs: 2, n: 60, p: 0.5, trees: 2, b0: 200}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) (endToEnd, perLayer []declared, names []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return b.EndToEnd, b.PerLayer, names
}

func setupTiny(t *testing.T, name string) (workloadDef, instance) {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", name)
	}
	inst, _, err := setupRepeated(w, 7, tinySizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	return w, inst
}

// checkPrinted asserts that the report prints exactly the declared
// metrics, each with its declared unit, in the human lines and in the
// final JSON line.
func checkPrinted(t *testing.T, r *result, want []declared) {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, hostFacts("test", 7, 0, "test"), r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var verdict map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &verdict); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := verdict[k]; !ok {
			t.Errorf("verdict lacks %q", k)
		}
	}
	if len(verdict) != 4 {
		t.Errorf("verdict has %d keys, want 4", len(verdict))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(verdict["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range want {
		m, ok := metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not printed", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
		if !strings.Contains(out.String(), "# "+d.Name+" = ") {
			t.Errorf("metric %s missing from the report lines", d.Name)
		}
	}
	if len(metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(metrics), len(want))
	}
}

func TestEveryDeclaredMetricIsPrintedWithItsUnit(t *testing.T) {
	endToEnd, perLayer, names := loadBenchmarkJSON(t)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, inst := setupTiny(t, name)
			timed := runTimed(inst, w.threads, 0.5, 200*time.Millisecond)
			if !timed.Correct {
				t.Fatalf("timed run failed: %v", timed.errors)
			}
			checkPrinted(t, timed, endToEnd)
			traced, err := runTraced(w, inst, 7, tinySizes, 200*time.Millisecond, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run failed: %v", traced.errors)
			}
			checkPrinted(t, traced, perLayer)
		})
	}
}

func TestWrongReferenceRaisesFailFrac(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, inst := setupTiny(t, w.name)
			switch in := inst.(type) {
			case *cliqueInst:
				in.omega[0]++
			case *utsInst:
				in.want[0]++
			default:
				t.Fatalf("unknown instance %T", inst)
			}
			r := runTimed(inst, w.threads, 0.5, 100*time.Millisecond)
			if r.Failed == 0 || r.Correct {
				t.Fatalf("a wrong reference went unnoticed: %d of %d failed", r.Failed, r.Attempted)
			}
			if ok := r.Metrics["ok_frac"].Value; ok >= 1 {
				t.Fatalf("ok_frac = %v with %d failures", ok, r.Failed)
			}
		})
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	sameGraphs := func(x, y int64) bool {
		gx, gy := drawGraphs(x, tinySizes), drawGraphs(y, tinySizes)
		for i := range gx {
			for v := range gx[i].Adj {
				if !gx[i].Adj[v].Equal(gy[i].Adj[v]) {
					return false
				}
			}
		}
		return true
	}
	if !sameGraphs(1, 1) {
		t.Error("seed 1 drew different graphs twice")
	}
	if sameGraphs(1, 2) {
		t.Error("seeds 1 and 2 drew the same graphs")
	}

	treeSizes := func(seed int64) []int64 {
		inst, err := setupUTS(seed, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		return inst.(*utsInst).want
	}
	one, oneAgain, two := treeSizes(1), treeSizes(1), treeSizes(2)
	for i := range one {
		if one[i] != oneAgain[i] {
			t.Errorf("seed 1 drew trees of %d and %d nodes at %d", one[i], oneAgain[i], i)
		}
		if one[i] == two[i] {
			t.Errorf("seeds 1 and 2 drew trees of the same size (%d nodes) at %d", one[i], i)
		}
	}
}

// The paired references time the same inputs as the solves they sit
// next to, so they must solve the same problems.
func TestReferencesSolveTheSameInputs(t *testing.T) {
	for i, g := range drawGraphs(3, sizes{graphs: 6, n: 90, p: 0.6}) {
		best, _ := maxclique.SeqHandcoded(g)
		if omega, nodes := newRefGraph(g).maxClique(); omega != best.Count() || nodes < 1 {
			t.Errorf("graph %d: reference ω = %d in %d nodes, SeqHandcoded ω = %d", i, omega, nodes, best.Count())
		}
	}
	for i, s := range drawTrees(3, tinySizes) {
		if got, want := refUTS(s), countTree(s, uts.Root(s)); got != want {
			t.Errorf("tree %d: reference walk counted %d nodes, uts.Gen %d", i, got, want)
		}
	}
	if wall, nodes := runReference(func() int64 { return 5 }, 2); nodes != 10 || wall <= 0 {
		t.Errorf("two reference threads reported %d nodes in %v, want 10 in > 0", nodes, wall)
	}
}

func TestCommandRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for a bad invocation: %q", out.String())
	}
}
