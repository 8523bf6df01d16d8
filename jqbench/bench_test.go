package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "jqos/internal/coding.(*Recoverer).NextDeadline", "jqos.(*DCNode).armTimer"}, "coding"},
		{[]string{"runtime.mallocgc", "jqos.(*Flow).SendFlagged", "main.(*source).fire"}, "jqos"},
		{[]string{"runtime.memmove", "main.checkPayload", "main.(*run).onDeliver", "jqos.(*Host).process"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "jqos/internal/netem.(*Simulator).At"}, "gc"},
		{[]string{"jqos/internal/dataset.Lookup"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestFoldCPUProfile folds a real CPU profile of this test binary.
func TestFoldCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	w, err := foldCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if w["harness"] == 0 {
		t.Errorf("busy loop in the benchmark's package not charged to harness: %v", w)
	}
	checkSumsToOne(t, "cpu", shares(w))
}

// TestTracedCodingSteady is the layer-fold self-check: on coding-steady
// the shares sum to 100%, coding takes the largest CPU share and the
// scheduler (off in that workload) none.
func TestTracedCodingSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	res, err := traced(findWorkload("coding-steady"), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run reported incorrect output (failed=%d)", res.Failed)
	}
	cpu, alloc := map[string]float64{}, map[string]float64{}
	for _, l := range layers {
		cpu[l] = res.Metrics[l+".cpu_share"].Value
		if l != "gc" {
			alloc[l] = res.Metrics[l+".alloc_share"].Value
		}
	}
	checkSumsToOne(t, "cpu", cpu)
	checkSumsToOne(t, "alloc", alloc)
	for l, v := range cpu {
		if l != "coding" && v >= cpu["coding"] {
			t.Errorf("%s.cpu_share %.3f >= coding.cpu_share %.3f", l, v, cpu["coding"])
		}
	}
	if cpu["sched"] > 0.005 {
		t.Errorf("sched.cpu_share = %.4f on a workload without a scheduler", cpu["sched"])
	}
	checkNames(t, res, "per_layer")
}

// TestEndToEndNames checks an untraced run prints exactly the
// end-to-end metrics BENCHMARK.json lists.
func TestEndToEndNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	res, err := untraced(findWorkload("mesh-contended"), 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("run reported incorrect output (failed=%d)", res.Failed)
	}
	checkNames(t, res, "end_to_end")
}

// TestSameSeedSameSimResult: two untraced runs and one traced run of a
// seed must agree on every sim-time result — tracing may not change
// behaviour, and a seed must reproduce its run.
func TestSameSeedSameSimResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, wl := range workloads {
		sim := func(traced bool) simResult {
			r, err := setup(wl, 7, traced)
			if err != nil {
				t.Fatal(err)
			}
			return r.measure(0, false, nil, nil).sim
		}
		a := sim(false)
		if d := a.diff(sim(false)); len(d) > 0 {
			t.Errorf("%s: same-seed untraced runs differ in %v", wl.name, d)
		}
		if d := a.diff(sim(true)); len(d) > 0 {
			t.Errorf("%s: traced run differs from untraced in %v", wl.name, d)
		}
	}
}

func checkSumsToOne(t *testing.T, what string, s map[string]float64) {
	t.Helper()
	var sum float64
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s shares sum to %v, want 1", what, sum)
	}
}

// checkNames compares a result's metric names and units with the
// BENCHMARK.json section that declares them.
func checkNames(t *testing.T, res result, section string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &declared); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, m := range declared {
		want = append(want, m.Name+" "+m.Unit)
	}
	for n, m := range res.Metrics {
		got = append(got, n+" "+m.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the run printed %d:\n%v\n%v", section, len(want), len(got), want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: declared %q, printed %q", section, want[i], got[i])
		}
	}
}
