package main

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"jqos/internal/telemetry"
)

// chunk is the sim-time step of the timed loop; windowChunks chunks make
// one timing window.
const (
	chunk        = 100 * time.Millisecond
	windowChunks = 10
)

// simResult is everything a run measures in simulated time. A seed
// should reproduce it exactly, with or without tracing.
type simResult struct {
	Sent, Delivered, OnTime uint64
	LatN, RecN              int
	LatP50, LatP999, RecP99 int64
	EgressBytes             uint64
	Layers                  counters
}

// diff names the fields in which two results differ.
func (q simResult) diff(o simResult) []string {
	var out []string
	a, b := reflect.ValueOf(q), reflect.ValueOf(o)
	var walk func(prefix string, a, b reflect.Value)
	walk = func(prefix string, a, b reflect.Value) {
		for i := 0; i < a.NumField(); i++ {
			name := prefix + a.Type().Field(i).Name
			if a.Field(i).Kind() == reflect.Struct {
				walk(name+".", a.Field(i), b.Field(i))
			} else if !a.Field(i).Equal(b.Field(i)) {
				out = append(out, name)
			}
		}
	}
	walk("", a, b)
	return out
}

// counters are the per-layer work counts read from public Stats and
// Snapshot surfaces; the benchmark reports their deltas over the
// quality window.
type counters struct {
	Steps                    uint64
	EncData, EncParity       uint64
	RecNACKs, RecUseful      uint64
	RxNACKs, LongSent        uint64
	Enqueued, Dropped        uint64
	Signals, RateCuts, Quota uint64
	Recomputes, Sources      uint64
	Reroutes, Epochs         uint64
	OldEpoch, NoRoute        uint64
}

func (c counters) minus(o counters) counters {
	return counters{
		c.Steps - o.Steps, c.EncData - o.EncData, c.EncParity - o.EncParity,
		c.RecNACKs - o.RecNACKs, c.RecUseful - o.RecUseful,
		c.RxNACKs - o.RxNACKs, c.LongSent - o.LongSent,
		c.Enqueued - o.Enqueued, c.Dropped - o.Dropped,
		c.Signals - o.Signals, c.RateCuts - o.RateCuts, c.Quota - o.Quota,
		c.Recomputes - o.Recomputes, c.Sources - o.Sources,
		c.Reroutes - o.Reroutes, c.Epochs - o.Epochs,
		c.OldEpoch - o.OldEpoch, c.NoRoute - o.NoRoute,
	}
}

// capture takes a snapshot, checks the deployment's books against the
// benchmark's, and reads every layer's counters.
func (r *run) capture() (counters, uint64) {
	s := r.snapshot()
	r.checkBooks(s)
	var c counters
	c.Steps = r.sim.Steps()
	for _, id := range r.dcs {
		n := r.d.DC(id)
		es := n.Encoder().Stats()
		c.EncData += es.DataPackets
		c.EncParity += es.CrossCoded + es.InCoded
		rs := n.Recoverer().Stats()
		c.RecNACKs += rs.NACKs
		c.RecUseful += rs.InStreamServed + rs.CoopRecovered + rs.PendingMatched
		fs := n.Forwarder().Stats()
		c.OldEpoch += fs.OldEpochResolves
		c.NoRoute += fs.NoRoute
	}
	for _, src := range r.long {
		c.LongSent += src.sent
		if rx := r.d.Host(src.dst).Receiver(src.f.ID()); rx != nil {
			c.RxNACKs += rx.Stats().NACKsSent()
		}
	}
	for _, q := range s.Queues {
		for _, cl := range q.PerClass {
			c.Enqueued += cl.EnqueuedPackets
			c.Dropped += cl.DroppedPackets
		}
	}
	c.Signals = s.Feedback.SignalsSent + s.Feedback.SignalsLocal
	c.RateCuts = s.Feedback.RateCuts + s.Feedback.TenantCuts
	for _, t := range s.Tenants {
		c.Quota += t.QuotaDropped
	}
	c.Recomputes = s.Routing.Recomputes
	c.Sources = s.Routing.SourcesRecomputed
	c.Reroutes = s.Routing.Reroutes
	c.Epochs = s.Routing.EpochAdvances
	return c, s.Totals.EgressBytes
}

// checkBooks compares a snapshot's per-flow rows with the benchmark's
// own send and delivery counts.
func (r *run) checkBooks(s *telemetry.Snapshot) {
	var sent uint64
	for _, fs := range s.Flows {
		id := int(fs.ID)
		if id >= len(r.byFlow) || r.byFlow[id] == nil || r.byFlow[id].f.ID() != fs.ID {
			r.fail("snapshot lists flow %d, which the benchmark never registered", id)
			continue
		}
		src := r.byFlow[id]
		sent += src.sent
		if fs.Sent != src.sent {
			r.fail("flow %d: snapshot says %d sent, benchmark sent %d", id, fs.Sent, src.sent)
		}
		if fs.Delivered > fs.Sent {
			r.fail("flow %d: %d delivered > %d sent", id, fs.Delivered, fs.Sent)
		}
		if fs.Delivered != src.delivered {
			r.fail("flow %d: snapshot says %d delivered, benchmark saw %d", id, fs.Delivered, src.delivered)
		}
	}
	if s.Totals.Sent != sent {
		r.fail("Totals.Sent is %d, benchmark sent %d on open flows", s.Totals.Sent, sent)
	}
}

// warmup starts the workload and runs it to steady state.
func (r *run) warmup() {
	r.start()
	r.sim.RunUntil(r.wl.warm)
}

// digest summarizes the sim state after warm-up; repeated set-ups of one
// seed must agree on it exactly.
type digest struct {
	Steps, Sent, Egress uint64
	Pending             int
}

func (r *run) digest() digest {
	return digest{r.sim.Steps(), r.sentTotal, r.d.TotalEgressBytes(), r.sim.Pending()}
}

// timing is what the wall clock saw during the timed window.
type timing struct {
	windowRate  []float64 // application packets per wall second, per window
	windowNsPkt []float64 // wall ns per application packet, per window
	pkts        uint64
	wall        time.Duration
	liveHeap    uint64
	// The same over the quality window alone: a fixed sim span, so the
	// same work on every machine.
	qWindows              int
	qPkts                 uint64
	qMallocs, qAllocBytes uint64
	sim                   simResult
	simDone               bool
	windowsInSim          int // windows that end at or before the horizon
}

// measure runs the timed window from the end of warm-up: 100 ms sim
// chunks, timed one by one, until at least `seconds` of wall time have
// passed and the quality horizon is reached. onStart and onStop bracket
// the timed loop (the traced run starts and stops its profiler there).
// Work the benchmark does between chunks — snapshots at the window
// edges, the forced GC for live heap — is outside the clock, and the
// allocation counts stop before it.
func (r *run) measure(seconds time.Duration, liveHeap bool, onStart, onStop func()) timing {
	var t timing
	c0, e0 := r.capture()
	r.qStart = r.sim.Now()
	r.qEnd = r.qStart + r.wl.quality
	r.horizon = r.qEnd + r.wl.drain
	r.openWindow()
	var cEnd counters
	var eEnd uint64

	runtime.GC()
	var m0, mq runtime.MemStats
	runtime.ReadMemStats(&m0)
	sent0Q := r.sentTotal
	if onStart != nil {
		onStart()
	}
	var winWall time.Duration
	var winPkts uint64
	for n := 1; ; n++ {
		next := r.qStart + time.Duration(n)*chunk
		sent0 := r.sentTotal
		t0 := time.Now()
		r.sim.RunUntil(next)
		el := time.Since(t0)
		winWall += el
		winPkts += r.sentTotal - sent0
		t.wall += el
		t.pkts += r.sentTotal - sent0
		if n%windowChunks == 0 {
			t.windowRate = append(t.windowRate, float64(winPkts)/winWall.Seconds())
			t.windowNsPkt = append(t.windowNsPkt, float64(winWall.Nanoseconds())/float64(winPkts))
			if next <= r.horizon {
				t.windowsInSim++
			}
			winWall, winPkts = 0, 0
		}
		if next == r.qEnd {
			runtime.ReadMemStats(&mq)
			t.qWindows = len(t.windowRate)
			t.qPkts = r.sentTotal - sent0Q
			t.qMallocs = mq.Mallocs - m0.Mallocs
			t.qAllocBytes = mq.TotalAlloc - m0.TotalAlloc
			r.closeWindow()
			cEnd, eEnd = r.capture()
			if liveHeap {
				runtime.GC()
				runtime.ReadMemStats(&mq)
				t.liveHeap = mq.HeapAlloc
			}
		}
		if next == r.horizon {
			r.qPhase = 3
			t.sim = r.finishSim(cEnd.minus(c0), eEnd-e0)
			t.simDone = true
		}
		if t.simDone && t.wall >= seconds && n%windowChunks == 0 {
			break
		}
		if next >= r.qStart+r.wl.maxSim-r.wl.warm {
			break
		}
	}
	if onStop != nil {
		onStop()
	}

	r.capture() // final books check
	return t
}

// finishSim computes the window's delivery metrics.
func (r *run) finishSim(layers counters, egress uint64) simResult {
	q := r.q
	q.Layers = layers
	q.EgressBytes = egress
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	sort.Slice(r.rec, func(i, j int) bool { return r.rec[i] < r.rec[j] })
	q.LatN, q.RecN = len(r.lat), len(r.rec)
	q.LatP50 = quantile(r.lat, 0.5)
	q.LatP999 = quantile(r.lat, 0.999)
	q.RecP99 = quantile(r.rec, 0.99)
	return q
}

// quantile is the nearest-rank quantile of sorted values (0 when empty).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// beyond is how many samples lie above the nearest-rank quantile q.
func beyond(n int, q float64) int { return n - 1 - rank(n, q) }

// median of float samples (0 when empty); the input is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}
