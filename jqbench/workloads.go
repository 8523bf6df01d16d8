package main

import (
	"math/rand"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/netem"
)

// workload is one seeded input set. Every world, flow mix and fault
// timeline is defined here, in the benchmark's own files, so an edit to a
// test harness elsewhere cannot change what the benchmark measures.
type workload struct {
	name string
	// warm is the sim time run before timing starts: long enough for
	// coded batches (BatchTTL), caches (CacheTTL), probers and routing
	// trees to fill.
	warm time.Duration
	// quality is the sim span of sends whose delivery metrics are
	// reported; drain is how long after it deliveries still count.
	quality time.Duration
	drain   time.Duration
	// maxSim bounds the simulated time of one run (sizes preallocation).
	maxSim time.Duration
	config func() jqos.Config
	build  func(r *run, seed int64) error
}

var workloads = []*workload{
	{
		name:    "coding-steady",
		warm:    4 * time.Second,
		quality: 30 * time.Second,
		drain:   2 * time.Second,
		maxSim:  600 * time.Second,
		config:  codingConfig,
		build:   buildCodingSteady,
	},
	{
		name:    "mesh-contended",
		warm:    4 * time.Second,
		quality: 120 * time.Second,
		drain:   2 * time.Second,
		maxSim:  1200 * time.Second,
		config:  meshConfig,
		build:   buildMeshContended,
	},
	{
		name:    "fault-churn",
		warm:    4 * time.Second,
		quality: faultRounds * 27 * time.Second,
		drain:   2 * time.Second,
		maxSim:  1800 * time.Second,
		config:  faultConfig,
		build:   buildFaultChurn,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// flowClass is one application type: payload size and send interval.
type flowClass struct {
	size  int
	every time.Duration
}

var (
	voice = flowClass{80, 20 * time.Millisecond}
	web   = flowClass{512, 10 * time.Millisecond}
	video = flowClass{1200, 5 * time.Millisecond}
)

// addLong registers a long-lived flow and its open-loop source, with a
// seeded phase so flows do not send in lockstep.
func addLong(r *run, rng *rand.Rand, spec jqos.FlowSpec, c flowClass) error {
	if r.traced {
		spec.TraceSampling = 0.05
	}
	f, err := r.d.RegisterFlow(spec)
	if err != nil {
		return err
	}
	s := newSource(r, f, spec.Budget, c.size, c.every)
	s.got = newBitset(int(r.wl.maxSim/c.every) + 1)
	s.dst = spec.Dst
	s.next = time.Duration(rng.Int63n(int64(c.every)))
	r.long = append(r.long, s)
	r.watch(spec.Dst)
	return nil
}

// inputRand is the benchmark's own input generator, a stream apart from
// the simulator's (which jqos seeds with the same value).
func inputRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x6a716f73))
}

// jitterDur returns base plus a seeded offset in [0, spread).
func jitterDur(rng *rand.Rand, base, spread time.Duration) time.Duration {
	return base + time.Duration(rng.Int63n(int64(spread)))
}

// codingConfig: the paper's defaults with adaptation off (every flow is
// fixed).
func codingConfig() jqos.Config {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	return cfg
}

// buildCodingSteady: two DCs (US-East, EU), 24 fixed coding flows in a
// voice/web/video mix over lossy direct paths with a 150 ms budget,
// plus a light churn of short coding calls. No scheduler, feedback or
// faults.
func buildCodingSteady(r *run, seed int64) error {
	rng := inputRand(seed)
	d := r.d
	a := d.AddDC("us-east", dataset.RegionUSEast)
	b := d.AddDC("eu", dataset.RegionEU)
	d.ConnectDCs(a, b, 38*time.Millisecond)
	r.dcs = []jqos.NodeID{a, b}

	// Each sender's first mile drops 0.3% of packets before the direct
	// and cloud copies part (netem.SharedFate), so those are lost beyond
	// recovery; past it the direct path loses 3% in short bursts, which
	// the coding service repairs.
	pair := func() (jqos.NodeID, jqos.NodeID) {
		firstMile := netem.NewSharedFate(netem.Bernoulli{P: 0.003})
		src := d.AddHost(a, 5*time.Millisecond, jqos.WithAccessLossModel(firstMile))
		dst := d.AddHost(b, 8*time.Millisecond)
		d.SetDirectPath(src, dst,
			netem.UniformJitter{Base: jitterDur(rng, 52*time.Millisecond, 6*time.Millisecond), Jitter: 2 * time.Millisecond},
			netem.Composite{firstMile, netem.NewGilbertElliott(0.03, 1.5)})
		return src, dst
	}
	classes := []flowClass{voice, web, video}
	for i := 0; i < 24; i++ {
		src, dst := pair()
		err := addLong(r, rng, jqos.FlowSpec{
			Src: src, Dst: dst, Budget: 150 * time.Millisecond,
			Service: jqos.ServiceCoding, ServiceFixed: true,
		}, classes[i%3])
		if err != nil {
			return err
		}
	}
	var pairs [][2]jqos.NodeID
	for i := 0; i < 4; i++ {
		src, dst := pair()
		r.watch(dst)
		pairs = append(pairs, [2]jqos.NodeID{src, dst})
	}
	r.churn = newChurner(r, 500*time.Millisecond, 2*time.Second, 500*time.Millisecond, voice.size, voice.every,
		func(i int) jqos.FlowSpec {
			p := pairs[i%len(pairs)]
			return jqos.FlowSpec{Src: p[0], Dst: p[1], Budget: 150 * time.Millisecond,
				Service: jqos.ServiceCoding, ServiceFixed: true}
		})
	return nil
}

// meshCapacity is the accounting and serialization rate of every
// mesh-contended link, in bytes per second.
const meshCapacity = 1_000_000

// meshConfig: capacity-limited links, WFQ (forwarding 8 : caching 1)
// with a shallow watermark band, and congestion feedback.
func meshConfig() jqos.Config {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	cfg.LinkCapacity = meshCapacity
	cfg.Scheduler = jqos.SchedulerConfig{
		Weights: map[jqos.Service]int{
			jqos.ServiceForwarding: 8,
			jqos.ServiceCaching:    1,
		},
		QueueBytes:    32 << 10,
		LowWatermark:  0.125,
		HighWatermark: 0.5,
	}
	cfg.Feedback.Enabled = true
	return cfg
}

// buildMeshContended: four DCs with alternate paths, capacity-limited
// links, the WFQ scheduler (forwarding 8 : caching 1) with congestion
// feedback, and two tenants — a quota-bound greedy pair and an
// interactive budgeted flow — plus caching bulk. Every flow is a fixed
// forwarding or caching flow, so coding is idle. The sampler polls
// Deployment.Snapshot once per sim second, as jqos-stat does.
func buildMeshContended(r *run, seed int64) error {
	rng := inputRand(seed)
	d := r.d
	a := d.AddDC("us-east", dataset.RegionUSEast)
	b := d.AddDC("us-west", dataset.RegionUSWest)
	c := d.AddDC("eu", dataset.RegionEU)
	e := d.AddDC("asia", dataset.RegionAsia)
	r.dcs = []jqos.NodeID{a, b, c, e}
	connect := func(x, y jqos.NodeID, lat time.Duration) {
		d.ConnectDCs(x, y, lat)
		d.Network().LinkBetween(x, y).Rate = meshCapacity
		d.Network().LinkBetween(y, x).Rate = meshCapacity
	}
	connect(a, b, 28*time.Millisecond)
	connect(b, c, 32*time.Millisecond)
	connect(a, c, 68*time.Millisecond)
	connect(c, e, 22*time.Millisecond)
	connect(a, e, 88*time.Millisecond)

	pair := func(x, y jqos.NodeID, direct time.Duration) (jqos.NodeID, jqos.NodeID) {
		src := d.AddHost(x, 5*time.Millisecond)
		dst := d.AddHost(y, 8*time.Millisecond)
		d.SetDirectPath(src, dst,
			netem.UniformJitter{Base: jitterDur(rng, direct, 4*time.Millisecond), Jitter: 2 * time.Millisecond},
			netem.NewGilbertElliott(0.03, 3))
		return src, dst
	}
	const pairTenant, soloTenant = jqos.TenantID(1), jqos.TenantID(2)
	if err := d.RegisterTenant(jqos.TenantContract{
		ID: pairTenant, Name: "greedy-pair", Rate: 800_000, Burst: 32 << 10,
	}); err != nil {
		return err
	}
	if err := d.RegisterTenant(jqos.TenantContract{
		ID: soloTenant, Name: "interactive", Rate: 400_000, Burst: 32 << 10,
	}); err != nil {
		return err
	}
	src, dst := pair(a, c, 60*time.Millisecond)
	if err := addLong(r, rng, jqos.FlowSpec{
		Src: src, Dst: dst, Budget: 150 * time.Millisecond,
		Service: jqos.ServiceForwarding, ServiceFixed: true,
		Rate: 200_000, Burst: 16 << 10, Tenant: soloTenant,
	}, flowClass{400, 4 * time.Millisecond}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		src, dst := pair(a, c, 60*time.Millisecond)
		if err := addLong(r, rng, jqos.FlowSpec{
			Src: src, Dst: dst, Budget: 500 * time.Millisecond,
			Service: jqos.ServiceForwarding, ServiceFixed: true,
			Rate: 500_000, Burst: 16 << 10, Tenant: pairTenant,
		}, flowClass{1200, 2 * time.Millisecond}); err != nil {
			return err
		}
	}
	bulk := [][2]jqos.NodeID{{b, e}, {a, e}, {b, c}, {c, b}}
	for _, p := range bulk {
		src, dst := pair(p[0], p[1], 90*time.Millisecond)
		if err := addLong(r, rng, jqos.FlowSpec{
			Src: src, Dst: dst, Budget: time.Second,
			Service: jqos.ServiceCaching, ServiceFixed: true,
		}, flowClass{1000, 5 * time.Millisecond}); err != nil {
			return err
		}
	}
	var pairs [][2]jqos.NodeID
	for i := 0; i < 4; i++ {
		src, dst := pair(b, e, 70*time.Millisecond)
		r.watch(dst)
		pairs = append(pairs, [2]jqos.NodeID{src, dst})
	}
	r.churn = newChurner(r, 500*time.Millisecond, 2*time.Second, 500*time.Millisecond, web.size, web.every,
		func(i int) jqos.FlowSpec {
			p := pairs[i%len(pairs)]
			return jqos.FlowSpec{Src: p[0], Dst: p[1], Budget: 200 * time.Millisecond,
				Service: jqos.ServiceForwarding, ServiceFixed: true}
		})
	r.poll = true
	return nil
}

// faultConfig: the defaults with a one-second adaptation loop, so the
// adaptive flows move service under faults.
func faultConfig() jqos.Config {
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = time.Second
	return cfg
}

// faultRounds is how many full rounds of the fault rotation (9 links × 3
// kinds, one fault per sim-second) fault-churn's quality window covers.
const faultRounds = 6

// faultLink is one inter-DC link of the fault-churn mesh.
type faultLink struct {
	a, b jqos.NodeID
	lat  time.Duration
}

// buildFaultChurn: a 6-DC partial mesh (ring plus chords, so every
// single-link fault leaves an alternate path) under a seeded fault every
// sim-second — disconnect/reconnect, degrade/restore and flaps, spread
// evenly over the links — with caching, forwarding, coding and adaptive flows and a
// fast churn of short flows.
func buildFaultChurn(r *run, seed int64) error {
	rng := inputRand(seed)
	d := r.d
	var dcs []jqos.NodeID
	for i, reg := range []dataset.Region{dataset.RegionUSEast, dataset.RegionUSWest, dataset.RegionEU,
		dataset.RegionNorthEU, dataset.RegionAsia, dataset.RegionOceania} {
		dcs = append(dcs, d.AddDC("dc-"+string(rune('a'+i)), reg))
	}
	r.dcs = dcs
	var links []faultLink
	connect := func(x, y int, lat time.Duration) {
		d.ConnectDCs(dcs[x], dcs[y], lat)
		links = append(links, faultLink{dcs[x], dcs[y], lat})
	}
	connect(0, 1, 25*time.Millisecond)
	connect(1, 2, 30*time.Millisecond)
	connect(2, 3, 20*time.Millisecond)
	connect(3, 4, 35*time.Millisecond)
	connect(4, 5, 30*time.Millisecond)
	connect(5, 0, 40*time.Millisecond)
	connect(0, 2, 45*time.Millisecond)
	connect(1, 4, 50*time.Millisecond)
	connect(2, 5, 55*time.Millisecond)

	pair := func(x, y int) (jqos.NodeID, jqos.NodeID) {
		src := d.AddHost(dcs[x], 5*time.Millisecond)
		dst := d.AddHost(dcs[y], 8*time.Millisecond)
		d.SetDirectPath(src, dst,
			netem.UniformJitter{Base: jitterDur(rng, 90*time.Millisecond, 6*time.Millisecond), Jitter: 2 * time.Millisecond},
			netem.NewGilbertElliott(0.02, 3))
		return src, dst
	}
	type longFlow struct {
		x, y      int
		svc       jqos.Service
		fix       bool
		c         flowClass
		cloudOnly bool // forwarding without the direct copy (PathSwitch)
	}
	mix := []longFlow{
		{0, 3, jqos.ServiceCaching, true, web, false},
		{1, 4, jqos.ServiceCaching, true, web, false},
		{2, 5, jqos.ServiceForwarding, true, voice, true},
		{0, 4, jqos.ServiceForwarding, true, web, true},
		{3, 1, jqos.ServiceForwarding, true, web, false},
		{3, 0, jqos.ServiceCoding, true, web, false},
		{4, 1, jqos.ServiceCoding, true, web, false},
		{5, 2, jqos.ServiceCoding, true, voice, false},
		{1, 3, jqos.ServiceCoding, false, web, false},
		{2, 0, jqos.ServiceCoding, false, voice, false},
		{5, 3, jqos.ServiceCaching, false, web, false},
	}
	for _, m := range mix {
		src, dst := pair(m.x, m.y)
		spec := jqos.FlowSpec{Src: src, Dst: dst, Budget: 200 * time.Millisecond}
		if m.fix {
			spec.Service, spec.ServiceFixed, spec.PathSwitch = m.svc, true, m.cloudOnly
		} else {
			spec.ServiceFloor = m.svc
		}
		if err := addLong(r, rng, spec, m.c); err != nil {
			return err
		}
	}
	var pairs [][2]jqos.NodeID
	for i := 0; i < 6; i++ {
		src, dst := pair(i, (i+3)%6)
		r.watch(dst)
		pairs = append(pairs, [2]jqos.NodeID{src, dst})
	}
	services := []jqos.Service{jqos.ServiceForwarding, jqos.ServiceCaching, jqos.ServiceCoding}
	r.churn = newChurner(r, 100*time.Millisecond, time.Second, 500*time.Millisecond, voice.size, voice.every,
		func(i int) jqos.FlowSpec {
			p := pairs[i%len(pairs)]
			return jqos.FlowSpec{Src: p[0], Dst: p[1], Budget: 200 * time.Millisecond,
				Service: services[i%len(services)], ServiceFixed: true}
		})
	r.faults = &faultPlayer{r: r, ops: faultTimeline(rng, links, r.wl.warm%time.Second+500*time.Millisecond, r.wl.warm, r.wl.maxSim)}
	r.faults.fn = r.faults.apply
	return nil
}

// faultTimeline generates one fault per sim-second from start to end.
// Every (link, kind) pair — kinds being disconnect, degrade and flap —
// comes up once per round, in a seeded order, so every seed spreads the
// same mix of faults evenly over the links; the seed also picks the
// offset inside each second and the durations. Faults never overlap, so
// the mesh always keeps a path.
//
// A fresh round starts at roundStart (the end of warm-up), so a quality
// window that lasts a whole number of rounds sees each pair equally often.
func faultTimeline(rng *rand.Rand, links []faultLink, start, roundStart, end time.Duration) []faultOp {
	var ops []faultOp
	var round []int
	for t := start; t < end; t += time.Second {
		if len(round) == 0 || (t >= roundStart && t-time.Second < roundStart) {
			round = rng.Perm(3 * len(links))
		}
		pick := round[0]
		round = round[1:]
		l := links[pick/3]
		at := jitterDur(rng, t, 200*time.Millisecond)
		switch pick % 3 {
		case 0:
			ops = append(ops,
				faultOp{at: at, a: l.a, b: l.b, kind: opDisconnect},
				faultOp{at: at + jitterDur(rng, 300*time.Millisecond, 300*time.Millisecond), a: l.a, b: l.b, kind: opReconnect})
		case 1:
			ops = append(ops,
				faultOp{at: at, a: l.a, b: l.b, kind: opSet, lat: 2 * l.lat, loss: 0.05},
				faultOp{at: at + jitterDur(rng, 400*time.Millisecond, 300*time.Millisecond), a: l.a, b: l.b, kind: opSet, lat: l.lat})
		default:
			for k := 0; k < 2; k++ {
				down := at + time.Duration(k)*200*time.Millisecond
				ops = append(ops,
					faultOp{at: down, a: l.a, b: l.b, kind: opDisconnect},
					faultOp{at: down + jitterDur(rng, 60*time.Millisecond, 40*time.Millisecond), a: l.a, b: l.b, kind: opReconnect})
			}
		}
	}
	return ops
}
