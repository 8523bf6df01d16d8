// Command jqbench is the end-to-end benchmark of the emulated J-QoS
// packet path: Flow.Send, ingress admission and pacer, DC egress
// scheduler, netem links, transit DC forward/encode/recover, host
// receiver. It drives seeded open-loop workloads through the public jqos
// API and prints every metric by name with its unit; the last line of
// standard output is one JSON object.
//
//	bash jqbench/run.sh --workload coding-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a separate traced run (CPU and alloc
// profiles folded by package, wall timers around public calls, sim-time
// latency spans). It exits non-zero if any output is wrong.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"jqos/internal/telemetry"
)

// An untraced run builds and warms its world at least minSetups times
// and until minSetupWall has passed (at most maxSetups); setup_s is the
// median. All set-ups should reach the same sim state.
const (
	minSetups    = 5
	maxSetups    = 25
	minSetupWall = 4 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "wall seconds to time (at least)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: jqbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	if *trace == 1 {
		runtime.MemProfileRate = 16 << 10
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = traced(wl, *seed, dur)
	} else {
		res, err = untraced(wl, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jqbench:", err)
		os.Exit(2)
	}
	printTable(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jqbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// setup builds a world and warms it to steady state.
func setup(wl *workload, seed int64, traced bool) (*run, error) {
	r, err := newRun(wl, seed, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	r.warmup()
	return r, nil
}

// untraced measures the end-to-end metrics.
func untraced(wl *workload, seed int64, dur time.Duration) (result, error) {
	var r *run
	var times []float64
	var first digest
	diverged := 0
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < minSetupWall); i++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = setup(wl, seed, false)
		if err != nil {
			return result{}, err
		}
		el := time.Since(t0)
		total += el
		times = append(times, el.Seconds())
		if dg := r.digest(); i == 0 {
			first = dg
		} else if dg != first {
			diverged++
			fmt.Fprintf(os.Stderr, "warning: set-up %d of seed %d reached sim state %+v, set-up 1 reached %+v\n", i+1, seed, dg, first)
		}
	}
	t := r.measure(dur, true, nil, nil)
	r.checkSamples(t.sim)
	q := t.sim
	sent := float64(q.Sent)
	m := map[string]metric{
		"setup_s":             {median(times), "s"},
		"pkts_per_s":          {median(append([]float64(nil), t.windowRate[:t.qWindows]...)), "1/s"},
		"allocs_per_pkt":      {float64(t.qMallocs) / float64(t.qPkts), "count"},
		"alloc_bytes_per_pkt": {float64(t.qAllocBytes) / float64(t.qPkts), "B"},
		"live_heap_mb":        {float64(t.liveHeap) / (1 << 20), "MiB"},
		"ontime_frac":         {float64(q.OnTime) / sent, "fraction"},
		"undelivered_frac":    {float64(q.Sent-q.Delivered) / sent, "fraction"},
		"delivery_ms_p50":     {ms(q.LatP50), "ms"},
		"delivery_ms_p999":    {ms(q.LatP999), "ms"},
		"recovery_ms_p99":     {ms(q.RecP99), "ms"},
		"cloud_bytes_per_pkt": {float64(q.EgressBytes) / sent, "B"},
	}
	fmt.Printf("%s seed %d: %d set-ups (%.3f–%.3f s), %d of them diverged from the first in sim time; %d pkts timed over %.2f s wall in %d windows; quality window %d sends, %d delivery samples (p50/p99.9), %d recovery samples (p99)\n",
		wl.name, seed, len(times), times[0], times[len(times)-1], diverged, t.pkts, t.wall.Seconds(), len(t.windowRate), q.Sent, q.LatN, q.RecN)
	return r.result(m), nil
}

// traced runs the workload twice: once untraced up to the quality
// horizon, once with tracing on (trace sampling, wall timers around the
// public calls, CPU and alloc profiles) for the full timed window. The
// two should agree exactly in sim time; check.sim_divergent_fields counts
// the sim-time results where they do not. That count is reported, not
// fatal: map-ordered timer emits in jqos make same-seed runs of the
// coding paths differ slightly even without tracing.
func traced(wl *workload, seed int64, dur time.Duration) (result, error) {
	base, err := setup(wl, seed, false)
	if err != nil {
		return result{}, err
	}
	bt := base.measure(0, false, nil, nil)
	base = nil
	runtime.GC()

	r, err := setup(wl, seed, true)
	if err != nil {
		return result{}, err
	}
	var cpu bytes.Buffer
	var mem0 map[[32]uintptr]int64
	var profErr error
	t := r.measure(dur, false, func() {
		mem0 = memStacks()
		profErr = pprof.StartCPUProfile(&cpu)
	}, func() {
		pprof.StopCPUProfile()
	})
	if profErr != nil {
		return result{}, fmt.Errorf("cpu profile: %w", profErr)
	}
	allocW := foldAllocs(mem0, memStacks())
	cpuW, err := foldCPU(cpu.Bytes())
	if err != nil {
		return result{}, err
	}
	r.checkSamples(t.sim)
	divergent := t.sim.diff(bt.sim)
	if len(divergent) > 0 {
		fmt.Fprintf(os.Stderr, "warning: traced and untraced runs of seed %d differ in sim time: %v\n", seed, divergent)
	}

	q, c := t.sim, t.sim.Layers
	sent := float64(q.Sent)
	qsec := wl.quality.Seconds()
	m := map[string]metric{
		"netem.events_per_pkt":          {float64(c.Steps) / sent, "count"},
		"netem.pending_events_p50":      {median(r.pending), "count"},
		"coding.batches_held_p50":       {median(r.batches), "count"},
		"coding.parity_per_src":         {ratio(c.EncParity, c.EncData), "count"},
		"coding.recovered_per_nack":     {ratio(c.RecUseful, c.RecNACKs), "count"},
		"recovery.nacks_per_pkt":        {ratio(c.RxNACKs, c.LongSent), "count"},
		"sched.drop_frac":               {ratio(c.Dropped, c.Enqueued), "fraction"},
		"sched.queued_pkts_p50":         {median(r.queued), "count"},
		"feedback.signals_per_s":        {float64(c.Signals) / qsec, "1/s"},
		"feedback.rate_cuts_per_s":      {float64(c.RateCuts) / qsec, "1/s"},
		"tenant.quota_drops_per_s":      {float64(c.Quota) / qsec, "1/s"},
		"routing.recomputes":            {float64(c.Recomputes), "count"},
		"routing.sources_per_recompute": {ratio(c.Sources, c.Recomputes), "count"},
		"routing.reroutes":              {float64(c.Reroutes), "count"},
		"routing.epoch_advances":        {float64(c.Epochs), "count"},
		"forward.old_epoch_resolves":    {float64(c.OldEpoch), "count"},
		"forward.no_route":              {float64(c.NoRoute), "count"},
		"cache.items_held_p50":          {median(r.cacheItems), "count"},
		"telemetry.snapshot_us_p50":     {medianInt(r.snapNs) / 1e3, "us"},
		"telemetry.snapshot_allocs":     {median(r.snapAllocs), "count"},
		"jqos.send_us_p50":              {medianInt(r.sendNs) / 1e3, "us"},
		"jqos.register_close_us_p50":    {medianInt(r.regCloseNs) / 1e3, "us"},
		"jqos.window_ns_per_pkt_first":  {t.windowNsPkt[0], "ns"},
		"jqos.window_ns_per_pkt_last":   {t.windowNsPkt[len(t.windowNsPkt)-1], "ns"},
		"trace.pkts_per_s_ratio":        {tracedRatio(t, bt), "ratio"},
		"check.sim_divergent_fields":    {float64(len(divergent)), "count"},
	}
	cpuS, allocS := shares(cpuW), shares(allocW)
	for _, l := range layers {
		m[l+".cpu_share"] = metric{cpuS[l], "fraction"}
		if l != "gc" {
			m[l+".alloc_share"] = metric{allocS[l], "fraction"}
		}
	}
	for name, v := range spanMeans(r) {
		m[name] = metric{v, "ms"}
	}
	fmt.Printf("%s seed %d (traced): %d pkts over %.2f s wall; CPU fold over %d layers, alloc fold over %d\n",
		wl.name, seed, t.pkts, t.wall.Seconds(), len(cpuW), len(allocW))
	return r.result(m), nil
}

// tracedRatio compares the traced run's packets per wall second with the
// untraced run's over the windows both timed.
func tracedRatio(t, base timing) float64 {
	n := base.windowsInSim
	if n > len(t.windowRate) {
		n = len(t.windowRate)
	}
	a := median(append([]float64(nil), t.windowRate[:n]...))
	b := median(append([]float64(nil), base.windowRate[:n]...))
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMeans reads the sim-time latency spans of the traced flows from
// Snapshot().Attribution: mean milliseconds per sampled delivery.
func spanMeans(r *run) map[string]float64 {
	att := r.d.Snapshot().Attribution
	comps := []struct {
		name string
		i    telemetry.SpanComponent
	}{
		{"span.admission_ms", telemetry.SpanAdmission}, {"span.pacer_ms", telemetry.SpanPacer},
		{"span.queue_ms", telemetry.SpanQueue}, {"span.propagation_ms", telemetry.SpanPropagation},
		{"span.recovery_ms", telemetry.SpanRecovery},
	}
	var samples uint64
	var ns [telemetry.NumSpanComponents]int64
	for _, f := range att.Flows {
		samples += f.Profile.Samples
		for _, c := range comps {
			ns[c.i] += f.Profile.Ns[c.i]
		}
	}
	out := make(map[string]float64, len(comps))
	for _, c := range comps {
		if samples > 0 {
			out[c.name] = float64(ns[c.i]) / float64(samples) / 1e6
		} else {
			out[c.name] = 0
		}
	}
	return out
}

// checkSamples enforces that every reported percentile has at least ten
// samples beyond it.
func (r *run) checkSamples(q simResult) {
	if q.Sent == 0 {
		r.fail("no packets sent in the quality window")
	}
	if beyond(q.LatN, 0.999) < 10 {
		r.fail("delivery_ms_p999 has %d samples beyond it (need 10)", beyond(q.LatN, 0.999))
	}
	if beyond(q.RecN, 0.99) < 10 {
		r.fail("recovery_ms_p99 has %d samples beyond it (need 10)", beyond(q.RecN, 0.99))
	}
}

func (r *run) result(m map[string]metric) result {
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func printTable(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
