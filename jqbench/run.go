package main

import (
	"fmt"
	"runtime"
	"time"

	"jqos"
	"jqos/internal/netem"
	"jqos/internal/telemetry"
)

// tickEvery is the sim-time cadence of the benchmark's sampler; on
// polling workloads every pollTicks-th tick also takes a snapshot, a
// once-per-sim-second operator poll.
const (
	tickEvery = 100 * time.Millisecond
	pollTicks = 10
)

// run is one built world plus the benchmark's bookkeeping for it. All of
// it runs on the simulator goroutine.
type run struct {
	wl  *workload
	d   *jqos.Deployment
	sim *netem.Simulator
	dcs []jqos.NodeID

	// traced runs set FlowSpec.TraceSampling on the long-lived flows and
	// wrap the benchmark's public calls with wall clocks.
	traced bool

	long   []*source
	byFlow []*source // indexed by FlowID
	churn  *churner
	faults *faultPlayer

	// poll makes the sampler call Deployment.Snapshot once per sim
	// second, as a jqos-stat poller would.
	poll bool

	attempted uint64
	sentTotal uint64
	failed    uint64
	errs      []string

	// Quality window [qStart, qEnd) of sends; deliveries count up to
	// horizon. Everything in it is simulated time, so a seed reproduces
	// it exactly.
	qStart, qEnd, horizon time.Duration
	qPhase                int // 0 before, 1 open, 2 draining, 3 closed
	q                     simResult
	lat, rec              []int64
	pending, batches      []float64
	cacheItems, queued    []float64

	// Traced runs: wall timings of public calls.
	sendNs, snapNs, regCloseNs []int64
	snapAllocs                 []float64

	ticks  int
	tickFn func()
}

// newRun builds a workload's world from seed, with the benchmark's
// bookkeeping preallocated so driving it allocates only inside jqos.
func newRun(wl *workload, seed int64, traced bool) (*run, error) {
	d := jqos.NewDeploymentWithConfig(seed, wl.config())
	r := &run{wl: wl, d: d, sim: d.Sim(), traced: traced,
		byFlow: make([]*source, 0, 1<<14)}
	r.tickFn = r.tick
	if err := wl.build(r, seed); err != nil {
		return nil, err
	}
	var rate float64
	for _, s := range r.long {
		rate += float64(time.Second) / float64(s.every)
	}
	if c := r.churn; c != nil {
		rate += float64(c.life) / float64(c.every) * float64(time.Second) / float64(c.gap)
	}
	est := int(rate * wl.quality.Seconds())
	r.lat = make([]int64, 0, est+est/4)
	r.rec = make([]int64, 0, est/8)
	n := int(wl.maxSim/tickEvery) + 1
	r.pending = make([]float64, 0, n)
	r.batches = make([]float64, 0, n)
	r.cacheItems = make([]float64, 0, n)
	r.queued = make([]float64, 0, n)
	if traced {
		r.sendNs = make([]int64, 0, 1<<20)
		r.snapNs = make([]int64, 0, n+8)
		r.snapAllocs = make([]float64, 0, n+8)
		r.regCloseNs = make([]int64, 0, 1<<14)
	}
	return r, nil
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// attach indexes a source by its flow ID for the delivery handler.
func (r *run) attach(s *source) {
	id := int(s.f.ID())
	for id >= len(r.byFlow) {
		r.byFlow = append(r.byFlow, nil)
	}
	r.byFlow[id] = s
	if r.qPhase == 1 {
		s.openWindow()
	}
}

// watch installs the delivery handler on a destination host.
func (r *run) watch(host jqos.NodeID) {
	r.d.Host(host).SetDeliveryHandler(r.onDeliver)
}

// onDeliver checks every delivery and records the window's latencies.
func (r *run) onDeliver(del jqos.Delivery) {
	p := del.Packet
	id, seq := int(p.ID.Flow), uint64(p.ID.Seq)
	if id >= len(r.byFlow) || r.byFlow[id] == nil || r.byFlow[id].f.ID() != p.ID.Flow {
		r.fail("delivery of flow %d, which the benchmark never registered", id)
		return
	}
	s := r.byFlow[id]
	if seq == 0 || seq > s.sent {
		r.fail("flow %d: delivered seq %d, only %d sent", id, seq, s.sent)
		return
	}
	if !s.got.add(seq) {
		r.fail("flow %d: seq %d delivered twice", id, seq)
		return
	}
	s.delivered++
	if err := checkPayload(p.Payload, s.size, p.ID.Flow, seq); err != nil {
		r.fail("flow %d seq %d: %v", id, seq, err)
	}
	if r.qPhase == 0 || r.qPhase == 3 || !s.inWindow(seq) {
		return
	}
	lat := int64(del.At - p.Sent)
	r.q.Delivered++
	if time.Duration(lat) <= s.budget {
		r.q.OnTime++
	}
	r.lat = append(r.lat, lat)
	if del.Recovered {
		r.rec = append(r.rec, int64(del.RecoveryDelay))
	}
}

// tick samples in-flight state every tickEvery of sim time and, on
// polling workloads, takes the operator's snapshot.
func (r *run) tick() {
	var s *telemetry.Snapshot
	r.ticks++
	if r.poll && r.ticks%pollTicks == 0 {
		s = r.snapshot()
	}
	if r.qPhase == 1 {
		r.pending = append(r.pending, float64(r.sim.Pending()))
		var batches, items int
		for _, dc := range r.dcs {
			n := r.d.DC(dc)
			batches += n.Recoverer().Batches()
			items += n.Cache().Len()
		}
		r.batches = append(r.batches, float64(batches))
		r.cacheItems = append(r.cacheItems, float64(items))
		if s != nil {
			queued := 0
			for _, qs := range s.Queues {
				queued += qs.QueuedPackets
			}
			r.queued = append(r.queued, float64(queued))
		}
	}
	r.sim.At(r.sim.Now()+tickEvery, r.tickFn)
}

// snapshot calls Deployment.Snapshot, timing it on traced runs.
func (r *run) snapshot() *telemetry.Snapshot {
	r.attempted++
	if !r.traced {
		return r.d.Snapshot()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s := r.d.Snapshot()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.snapNs = appendCapped(r.snapNs, int64(el))
	if len(r.snapAllocs) < cap(r.snapAllocs) {
		r.snapAllocs = append(r.snapAllocs, float64(m1.Mallocs-m0.Mallocs))
	}
	return s
}

// start schedules the workload's traffic, churn, faults and sampler
// from sim time zero.
func (r *run) start() {
	for _, s := range r.long {
		s.start(s.next, 0)
	}
	if r.churn != nil {
		r.sim.At(r.churn.next, r.churn.fn)
	}
	if r.faults != nil && len(r.faults.ops) > 0 {
		r.sim.At(r.faults.ops[0].at, r.faults.fn)
	}
	r.sim.At(tickEvery, r.tickFn)
}

// openWindow starts the quality window at the current sim time.
func (r *run) openWindow() {
	r.qPhase = 1
	for _, s := range r.byFlow {
		if s != nil && s.f != nil && !s.f.Closed() {
			s.openWindow()
		}
	}
}

// closeWindow ends the quality window: later sends no longer count, and
// deliveries keep counting until the horizon.
func (r *run) closeWindow() {
	r.qPhase = 2
	for _, s := range r.byFlow {
		if s != nil {
			r.q.Sent += s.closeWindow()
		}
	}
}

// onClose folds a closing churn flow's window sends into the window.
func (r *run) onClose(s *source) {
	if r.qPhase == 1 || r.qPhase == 2 {
		r.q.Sent += s.closeWindow()
	}
}

// churner registers a short-lived flow every `every` of sim time, lets it
// send for `life`, and closes it `linger` after its last send. Slots are
// reused, so the churn allocates only inside jqos.
type churner struct {
	r       *run
	every   time.Duration
	life    time.Duration
	linger  time.Duration
	size    int
	gap     time.Duration // send interval of a churn flow
	specFor func(i int) jqos.FlowSpec
	slots   []*churnSlot
	next    time.Duration
	n       int
	fn      func()
}

type churnSlot struct {
	c       *churner
	src     *source
	regNs   int64
	closeFn func()
}

func newChurner(r *run, every, life, linger time.Duration, size int, gap time.Duration, specFor func(int) jqos.FlowSpec) *churner {
	c := &churner{r: r, every: every, life: life, linger: linger, size: size, gap: gap, specFor: specFor, next: every}
	c.fn = c.spawn
	n := int((life+linger)/every) + 2
	for i := 0; i < n; i++ {
		sl := &churnSlot{c: c}
		sl.closeFn = sl.close
		c.slots = append(c.slots, sl)
	}
	return c
}

func (c *churner) spawn() {
	r := c.r
	now := r.sim.Now()
	sl := c.slots[c.n%len(c.slots)]
	spec := c.specFor(c.n)
	c.n++
	t0 := time.Now()
	f, err := r.d.RegisterFlow(spec)
	reg := time.Since(t0)
	r.attempted++
	if err != nil {
		r.fail("RegisterFlow: %v", err)
	} else {
		if sl.src != nil && !sl.src.f.Closed() {
			r.fail("churn slot reused while its flow is open")
		}
		if sl.src == nil {
			sl.src = newSource(r, f, spec.Budget, c.size, c.gap)
			sl.src.got = newBitset(int(c.life/c.gap) + 1)
		} else {
			sl.src.bind(f)
		}
		sl.regNs = int64(reg)
		sl.src.start(now, now+c.life)
		r.sim.At(now+c.life+c.linger, sl.closeFn)
	}
	c.next = now + c.every
	r.sim.At(c.next, c.fn)
}

func (sl *churnSlot) close() {
	r := sl.c.r
	t0 := time.Now()
	sl.src.f.Close()
	el := time.Since(t0)
	r.attempted++
	r.onClose(sl.src)
	if r.traced {
		r.regCloseNs = appendCapped(r.regCloseNs, sl.regNs+int64(el))
	}
}

// faultOp is one link mutation of the fault timeline.
type faultOp struct {
	at   time.Duration
	a, b jqos.NodeID
	kind faultKind
	lat  time.Duration
	loss float64
}

type faultKind uint8

const (
	opDisconnect faultKind = iota
	opReconnect
	opSet
)

// faultPlayer applies a precomputed fault timeline, one event per op.
type faultPlayer struct {
	r   *run
	ops []faultOp
	i   int
	fn  func()
}

func (p *faultPlayer) apply() {
	op := p.ops[p.i]
	l := p.r.d.Link(op.a, op.b)
	switch op.kind {
	case opDisconnect:
		l.Disconnect()
	case opReconnect:
		l.Reconnect()
	case opSet:
		l.Set(op.lat, op.loss)
	}
	p.r.attempted++
	p.i++
	if p.i < len(p.ops) {
		p.r.sim.At(p.ops[p.i].at, p.fn)
	}
}
