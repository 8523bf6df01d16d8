package coding

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jqos/internal/core"
	"jqos/internal/wire"
)

// The deadline heaps are checked against the map scans they replaced,
// which live on here only as oracles.

// scanRecovererDeadline is the pre-heap Recoverer.NextDeadline.
func scanRecovererDeadline(r *Recoverer) (core.Time, bool) {
	var min core.Time
	found := false
	consider := func(d core.Time) {
		if !found || d < min {
			min, found = d, true
		}
	}
	for _, b := range r.batches {
		consider(b.expires)
	}
	for _, rec := range r.recoveries {
		if !rec.done {
			consider(rec.deadline)
		}
	}
	for _, p := range r.pending {
		consider(p.expires)
	}
	return min, found
}

// recovererState is what a Recoverer's OnTimer leaves behind. Finished
// recoveries count as absent: the heap drops them lazily, the scan did
// so on every timer.
type recovererState struct {
	batches, byPacket, attempts, liveRecoveries, pending, recent int
	stats                                                        RecovererStats
}

func stateOf(r *Recoverer) recovererState {
	s := recovererState{
		batches:  r.Batches(),
		byPacket: len(r.byPacket),
		attempts: len(r.attempts),
		pending:  len(r.pending),
		recent:   len(r.recent),
		stats:    r.Stats(),
	}
	for _, rec := range r.recoveries {
		if !rec.done {
			s.liveRecoveries++
		}
	}
	return s
}

// scanExpiry predicts, without mutating r, the state the pre-heap
// Recoverer.OnTimer(now) would leave.
func scanExpiry(r *Recoverer, now core.Time) recovererState {
	s := recovererState{stats: r.Stats()}
	refs := map[core.PacketID]int{}
	for _, b := range r.batches {
		if b.expires > now {
			s.batches++
			for _, src := range b.meta.Sources {
				refs[core.PacketID{Flow: src.Flow, Seq: src.Seq}]++
			}
		}
	}
	s.byPacket = len(refs)
	for id := range r.attempts {
		_, indexed := r.byPacket[id]
		if !indexed || refs[id] > 0 {
			s.attempts++
		}
	}
	for _, rec := range r.recoveries {
		switch {
		case rec.done:
		case rec.deadline <= now:
			s.stats.CoopFailed++
		default:
			s.liveRecoveries++
		}
	}
	for _, p := range r.pending {
		if p.expires <= now {
			s.stats.PendingExpired++
			s.stats.Unrecoverable++
		} else {
			s.pending++
		}
	}
	for _, until := range r.recent {
		if until > now {
			s.recent++
		}
	}
	return s
}

// codedMsg is one parity packet as DC2 receives it.
type codedMsg struct {
	hdr   wire.Header
	meta  wire.Coded
	shard []byte
}

// parityCorpus encodes a few flows' traffic with a real encoder so the
// recoverer sees decodable batches, and returns the parity and payloads.
func parityCorpus(t *testing.T) ([]codedMsg, map[core.PacketID][]byte) {
	t.Helper()
	cfg := EncoderConfig{K: 3, CrossParity: 2, InBlock: 2, InParity: 1, CrossQueues: 2, CrossTimeout: 30e6, InTimeout: 50e6}
	enc := mustEncoder(t, cfg)
	payloads := map[core.PacketID][]byte{}
	var emits []core.Emit
	for seq := 1; seq <= 12; seq++ {
		for flow := 1; flow <= 4; flow++ {
			p := payloadFor(flow, seq)
			payloads[core.PacketID{Flow: core.FlowID(flow), Seq: core.Seq(seq)}] = p
			emits = append(emits, enc.OnData(0, dc2, core.NodeID(100+flow), core.FlowID(flow), core.Seq(seq), p)...)
		}
	}
	emits = append(emits, enc.Flush(0)...)
	corpus := make([]codedMsg, len(emits))
	for i, em := range emits {
		hdr, meta, shard := decodeEmit(t, em)
		corpus[i] = codedMsg{hdr: hdr, meta: meta, shard: shard}
	}
	return corpus, payloads
}

// TestRecovererDeadlineHeapMatchesScan drives a Recoverer with seeded
// random engine calls and a randomly advancing clock. After every call
// the heap's NextDeadline must equal the scan over the same state, and
// every OnTimer must leave what the scan-based expiry would.
func TestRecovererDeadlineHeapMatchesScan(t *testing.T) {
	corpus, payloads := parityCorpus(t)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecoverer(dc2, RecovererConfig{
			BatchTTL: 200e6, RecoveryDeadline: 50e6, PendingTTL: 80e6, VerifyFirst: seed%2 == 0,
		})
		randomID := func() core.PacketID {
			// Seq 13..14 are never coded: their NACKs park and expire.
			return core.PacketID{Flow: core.FlowID(1 + rng.Intn(4)), Seq: core.Seq(1 + rng.Intn(14))}
		}
		var now core.Time
		timers := 0
		for step := 0; step < 4000; step++ {
			switch rng.Intn(10) {
			case 0:
				now += core.Time(rng.Intn(300)) * core.Time(time.Millisecond)
			case 1, 2:
				now += core.Time(rng.Intn(20)) * core.Time(time.Millisecond)
			}
			switch op := rng.Intn(12); {
			case op < 4:
				m := corpus[rng.Intn(len(corpus))]
				r.OnCoded(now, &m.hdr, &m.meta, m.shard)
			case op < 7:
				var flags uint16
				if rng.Intn(2) == 0 {
					flags = wire.FlagWantVerify
				}
				r.OnNACK(now, core.NodeID(100+rng.Intn(4)), randomID(), flags)
			case op < 8:
				hdr := wire.Header{Type: wire.TypeVerifyResp}
				id := randomID()
				hdr.Flow, hdr.Seq = id.Flow, id.Seq
				if rng.Intn(2) == 0 {
					hdr.Flags = wire.FlagStillWanted
				}
				r.OnVerifyResp(now, &hdr)
			case op < 10:
				// Answer a live recovery (picked in a fixed order) or, now
				// and then, name a random one.
				m := corpus[rng.Intn(len(corpus))]
				src := m.meta.Sources
				ref := wire.CoopRef{Batch: m.meta.Batch, Want: core.PacketID{Flow: src[0].Flow, Seq: src[0].Seq}}
				var live []recoveryKey
				for k, rec := range r.recoveries {
					if !rec.done && r.batches[k.batch] != nil {
						live = append(live, k)
					}
				}
				if len(live) > 0 && rng.Intn(4) > 0 {
					slices.SortFunc(live, func(a, b recoveryKey) int {
						if a.batch != b.batch {
							return cmp.Compare(a.batch, b.batch)
						}
						if a.want.Flow != b.want.Flow {
							return cmp.Compare(a.want.Flow, b.want.Flow)
						}
						return cmp.Compare(a.want.Seq, b.want.Seq)
					})
					k := live[rng.Intn(len(live))]
					ref = wire.CoopRef{Batch: k.batch, Want: k.want}
					src = r.batches[k.batch].meta.Sources
				}
				helper := src[rng.Intn(len(src))]
				hdr := wire.Header{Type: wire.TypeCoopResp, Flow: helper.Flow, Seq: helper.Seq}
				r.OnCoopResp(now, &hdr, &ref, payloads[hdr.ID()])
			default:
				want := scanExpiry(r, now)
				r.OnTimer(now)
				timers++
				if got := stateOf(r); got != want {
					t.Fatalf("seed %d step %d: OnTimer(%v) left %+v, scan expiry leaves %+v", seed, step, now, got, want)
				}
			}
			wantAt, wantOK := scanRecovererDeadline(r)
			gotAt, gotOK := r.NextDeadline()
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("seed %d step %d: NextDeadline = %v,%v, scan = %v,%v", seed, step, gotAt, gotOK, wantAt, wantOK)
			}
		}
		st := r.Stats()
		if timers == 0 || st.CoopRecovered == 0 || st.CoopFailed == 0 || st.PendingExpired == 0 || st.PendingMatched == 0 {
			t.Fatalf("seed %d exercised too little: %+v", seed, st)
		}
	}
}

// scanEncoderDeadline is the pre-heap Encoder.NextDeadline.
func scanEncoderDeadline(e *Encoder) (core.Time, bool) {
	var min core.Time
	found := false
	consider := func(d core.Time) {
		if d == 0 {
			return
		}
		if !found || d < min {
			min, found = d, true
		}
	}
	for _, q := range e.inQs {
		if len(q.pkts) > 0 {
			consider(q.deadline)
		}
	}
	for _, set := range e.cross {
		for _, q := range set {
			if len(q.pkts) > 0 {
				consider(q.deadline)
			}
		}
	}
	return min, found
}

// openQueue is an open queue as the scan sees it: its deadline, when it
// opened (its heap stamp) and its oldest packet.
type openQueue struct {
	deadline core.Time
	opened   uint64
	first    wire.SourceRef
	in       bool
}

// scanDue lists the queues OnTimer(now) must flush, in (deadline, open)
// order.
func scanDue(e *Encoder, now core.Time) []openQueue {
	var due []openQueue
	for _, q := range e.inQs {
		if len(q.pkts) > 0 && q.deadline <= now {
			due = append(due, openQueue{q.deadline, q.timer, q.pkts[0].ref, true})
		}
	}
	for _, set := range e.cross {
		for _, q := range set {
			if len(q.pkts) > 0 && q.deadline <= now {
				due = append(due, openQueue{q.deadline, q.timer, q.pkts[0].ref, false})
			}
		}
	}
	slices.SortFunc(due, func(a, b openQueue) int {
		if a.deadline != b.deadline {
			return cmp.Compare(a.deadline, b.deadline)
		}
		return cmp.Compare(a.opened, b.opened)
	})
	return due
}

// flushedBatches reads back, in emit order, the first source and kind of
// each batch in a list of parity emits.
func flushedBatches(t *testing.T, emits []core.Emit) []openQueue {
	t.Helper()
	var out []openQueue
	last := uint64(0)
	for _, em := range emits {
		_, meta, _ := decodeEmit(t, em)
		if meta.Batch != last {
			last = meta.Batch
			out = append(out, openQueue{first: meta.Sources[0], in: meta.Kind == wire.InStream})
		}
	}
	return out
}

// TestEncoderDeadlineHeapMatchesScan drives an Encoder with seeded random
// data, flow teardowns and timer ticks. NextDeadline must equal the scan
// after every call, and OnTimer must flush exactly the due queues, in
// (deadline, open) order.
func TestEncoderDeadlineHeapMatchesScan(t *testing.T) {
	cfg := EncoderConfig{K: 4, CrossParity: 2, InBlock: 3, InParity: 1, CrossQueues: 3, CrossTimeout: 30e6, InTimeout: 50e6}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := mustEncoder(t, cfg)
		var now core.Time
		flushes := 0
		for step := 0; step < 4000; step++ {
			if rng.Intn(4) == 0 {
				now += core.Time(rng.Intn(25)) * core.Time(time.Millisecond)
			}
			switch op := rng.Intn(10); {
			case op < 6:
				flow := core.FlowID(1 + rng.Intn(8))
				dst := dc2 + core.NodeID(rng.Intn(2))
				e.OnDataPolicy(now, dst, core.NodeID(100+flow), flow, core.Seq(step), uint32(rng.Intn(2)), payloadFor(int(flow), step))
			case op < 7:
				e.ForgetFlow(core.FlowID(1 + rng.Intn(8)))
			default:
				due := scanDue(e, now)
				before := e.Stats().TimerFlushes
				got := flushedBatches(t, e.OnTimer(now))
				if n := e.Stats().TimerFlushes - before; n != uint64(len(due)) {
					t.Fatalf("seed %d step %d: %d timer flushes, scan found %d due queues", seed, step, n, len(due))
				}
				for i := range due {
					due[i].deadline, due[i].opened = 0, 0
				}
				if !slices.Equal(got, due) {
					t.Fatalf("seed %d step %d: flushed %v, want (deadline, open) order %v", seed, step, got, due)
				}
				flushes += len(due)
			}
			wantAt, wantOK := scanEncoderDeadline(e)
			gotAt, gotOK := e.NextDeadline()
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("seed %d step %d: NextDeadline = %v,%v, scan = %v,%v", seed, step, gotAt, gotOK, wantAt, wantOK)
			}
		}
		if flushes == 0 {
			t.Fatalf("seed %d: no timer flush exercised", seed)
		}
	}
}

// BenchmarkRecovererTimers is the DC2 timer path with ~2k cached
// batches: each op refreshes one batch with a repeated parity shard (as
// every further shard of a batch does), then asks for the next deadline
// and runs the timer. The clock advances so each batch is refreshed just
// before it would expire, keeping the cache at its size.
func BenchmarkRecovererTimers(b *testing.B) {
	const batches = 2048
	cfg := DefaultRecovererConfig()
	r := NewRecoverer(dc2, cfg)
	step := cfg.BatchTTL / (batches + 1)
	msgs := make([]codedMsg, batches)
	shard := make([]byte, 64)
	for i := range msgs {
		m := &msgs[i]
		m.hdr = wire.Header{Type: wire.TypeCoded, Service: core.ServiceCoding}
		m.meta = wire.Coded{
			Batch: uint64(i + 1), Kind: wire.CrossStream, K: 2, R: 1, ShardLen: 64,
			Sources: []wire.SourceRef{{Flow: core.FlowID(i), Seq: 1, Receiver: 100}, {Flow: core.FlowID(i), Seq: 2, Receiver: 101}},
		}
		m.shard = shard
	}
	var now core.Time
	for i := range msgs {
		r.OnCoded(now, &msgs[i].hdr, &msgs[i].meta, msgs[i].shard)
		now += step
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &msgs[i%batches]
		r.OnCoded(now, &m.hdr, &m.meta, m.shard)
		if _, ok := r.NextDeadline(); !ok {
			b.Fatal("no deadline with batches cached")
		}
		r.OnTimer(now)
		now += step
	}
	b.StopTimer()
	if r.Batches() != batches {
		b.Fatalf("cache holds %d batches, want %d", r.Batches(), batches)
	}
}
