// Package coding implements CR-WAN, the J-QoS coding service (§4): the DC1
// encoder that batches concurrent user streams and emits in-stream and
// cross-stream Reed-Solomon parity over the inter-DC path, and the DC2
// recovery engine that answers receiver NACKs via cached parity and the
// cooperative recovery protocol (§4.4).
//
// Timers: both engines keep their deadlines (open queues; cached batches,
// cooperative recoveries and parked NACKs) in a min-heap checked lazily
// against live state, so NextDeadline is O(1) amortised and OnTimer pops
// only what is due. Engine time must not run backwards (the simulator's
// clock and the endpoints' monotonic clock do not). A caller may re-arm
// its clock only when NextDeadline moves earlier: a tick that finds
// nothing due is harmless.
package coding

import (
	"fmt"

	"jqos/internal/core"
	"jqos/internal/rs"
	"jqos/internal/wire"
)

// EncoderConfig carries the coding-plan parameters of §4.1–4.2.
type EncoderConfig struct {
	// K is the maximum number of flows combined in one cross-stream
	// batch (paper default k ≤ 10, deployment k = 6).
	K int
	// CrossParity is the number of cross-stream coded packets generated
	// per batch (r's numerator; paper default 2, for straggler
	// protection).
	CrossParity int
	// InBlock is the in-stream block size: one in-stream parity packet
	// per InBlock data packets of a flow (s = InParity/InBlock).
	// Zero disables in-stream coding (Skype case study runs s = 0).
	InBlock int
	// InParity is the number of parity packets per in-stream block
	// (usually 1).
	InParity int
	// CrossQueues is the number of concurrently open cross-stream
	// batches per destination DC (Algorithm 1's queue set).
	CrossQueues int
	// CrossTimeout bounds how long a cross-stream batch stays open
	// (the temporal constraint of §4.1).
	CrossTimeout core.Time
	// InTimeout bounds how long an in-stream block stays open.
	InTimeout core.Time
}

// DefaultEncoderConfig mirrors the PlanetLab deployment parameters
// (§6.2.1: r = 2/6, s = 1/5).
func DefaultEncoderConfig() EncoderConfig {
	return EncoderConfig{
		K:            6,
		CrossParity:  2,
		InBlock:      5,
		InParity:     1,
		CrossQueues:  4,
		CrossTimeout: 30e6, // 30ms in core.Time (nanoseconds)
		InTimeout:    50e6,
	}
}

func (c EncoderConfig) validate() error {
	if c.K < 1 || c.K > 200 {
		return fmt.Errorf("coding: K=%d out of range", c.K)
	}
	if c.CrossParity < 1 {
		return fmt.Errorf("coding: CrossParity=%d must be ≥1", c.CrossParity)
	}
	if c.InBlock < 0 || (c.InBlock > 0 && c.InParity < 1) {
		return fmt.Errorf("coding: in-stream config %d/%d invalid", c.InParity, c.InBlock)
	}
	if c.CrossQueues < 1 {
		return fmt.Errorf("coding: CrossQueues=%d must be ≥1", c.CrossQueues)
	}
	if c.CrossTimeout <= 0 || (c.InBlock > 0 && c.InTimeout <= 0) {
		return fmt.Errorf("coding: timeouts must be positive")
	}
	return nil
}

// Alpha returns the nominal coding overhead ratio r+s: cloud bytes per
// data byte.
func (c EncoderConfig) Alpha() float64 {
	a := float64(c.CrossParity) / float64(c.K)
	if c.InBlock > 0 {
		a += float64(c.InParity) / float64(c.InBlock)
	}
	return a
}

// EncoderStats counts the encoder's work.
type EncoderStats struct {
	DataPackets  uint64
	CrossBatches uint64
	InBatches    uint64
	CrossCoded   uint64
	InCoded      uint64
	Evicted      uint64 // single-flow queue clears (Algorithm 1 line 18)
	TimerFlushes uint64
	DataBytes    uint64
	CodedBytes   uint64
}

// Overhead returns observed coded/data byte ratio.
func (s EncoderStats) Overhead() float64 {
	if s.DataBytes == 0 {
		return 0
	}
	return float64(s.CodedBytes) / float64(s.DataBytes)
}

// srcPkt is one enqueued data packet copy.
type srcPkt struct {
	ref     wire.SourceRef
	payload []byte
}

// timer, on both queue kinds, is the push stamp of the queue's live
// deadline-heap entry, 0 while the queue is empty: an entry with another
// stamp is stale.
type inQueue struct {
	flow     core.FlowID
	dc2      core.NodeID
	pkts     []srcPkt
	deadline core.Time
	timer    uint64
}

type crossQueue struct {
	dc2      core.NodeID
	pkts     []srcPkt
	flows    map[core.FlowID]bool
	deadline core.Time
	opened   core.Time
	timer    uint64
}

func (q *crossQueue) reset() {
	q.pkts = q.pkts[:0]
	for f := range q.flows {
		delete(q.flows, f)
	}
	q.deadline = 0
	q.timer = 0
}

// queueTimer names the queue behind one deadline-heap entry: exactly one
// of in and cross is set.
type queueTimer struct {
	in    *inQueue
	cross *crossQueue
}

// crossKey groups cross-stream batches: flows are coded together only
// when they share the egress DC (the spatial constraint) AND the path
// policy their parity should ride (policy-aware batching). A parity
// packet can only take one path, so a batch mixing a pinned flow with
// fastest-path flows would drag someone's parity off their policy;
// keying the queue set by (dc2, policy) keeps every batch
// policy-homogeneous and lets the batch's first source flow stand in
// for all of them at pinning time. policy is an opaque discriminator
// computed by the caller (0 = default fastest-path).
type crossKey struct {
	dc2    core.NodeID
	policy uint32
}

// Encoder is the DC1-side CR-WAN engine. It is a sans-IO state machine:
// feed it data packets and timer ticks, collect wire-encoded Emits bound
// for DC2. Not safe for concurrent use — the parallel pipeline (Figure 10)
// shards flows across independent Encoders instead of locking one.
type Encoder struct {
	cfg  EncoderConfig
	self core.NodeID

	inQs map[core.FlowID]*inQueue
	// cross holds Algorithm 1's queue set per (dc2, path policy).
	cross  map[crossKey][]*crossQueue
	rrIdx  map[core.FlowID]int
	codecs map[[2]int]*rs.Codec
	// deadlines holds an entry for every open queue; timer flushes
	// follow it in (deadline, open) order.
	deadlines deadlineHeap[queueTimer]

	batchSeq uint64
	stats    EncoderStats
}

// NewEncoder builds a DC1 encoder with identity self.
func NewEncoder(self core.NodeID, cfg EncoderConfig) (*Encoder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Encoder{
		cfg:    cfg,
		self:   self,
		inQs:   make(map[core.FlowID]*inQueue),
		cross:  make(map[crossKey][]*crossQueue),
		rrIdx:  make(map[core.FlowID]int),
		codecs: make(map[[2]int]*rs.Codec),
	}, nil
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() EncoderConfig { return e.cfg }

// Stats returns a copy of the counters.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// ForgetFlow drops the per-flow encoder state of a torn-down flow: its
// in-stream queue (pending packets are discarded — the receiver is gone)
// and its cross-queue round-robin cursor. Open cross-stream batches may
// still hold the flow's packets; they flush or expire on their own
// bounded timers, so nothing here grows with flow churn.
func (e *Encoder) ForgetFlow(flow core.FlowID) {
	if q := e.inQs[flow]; q != nil {
		q.timer = 0
	}
	delete(e.inQs, flow)
	delete(e.rrIdx, flow)
}

// TrackedFlows returns how many flows hold per-flow encoder state
// (diagnostics; flow teardown must drive it back down).
func (e *Encoder) TrackedFlows() int {
	n := len(e.inQs)
	if m := len(e.rrIdx); m > n {
		n = m
	}
	return n
}

// codec returns (building if needed) the RS codec for (k, m).
func (e *Encoder) codec(k, m int) *rs.Codec {
	key := [2]int{k, m}
	if c, ok := e.codecs[key]; ok {
		return c
	}
	c, err := rs.NewCodec(k, m)
	if err != nil {
		panic("coding: " + err.Error()) // bounded by config validation
	}
	e.codecs[key] = c
	return c
}

// OnData processes one data packet copy arriving from a sender: Algorithm 1.
// dc2 is the egress DC serving the flow's receiver (the spatial constraint:
// only flows sharing dc2 are coded together); receiver is the flow's
// endpoint, recorded in parity metadata for cooperative recovery.
// The payload is copied; the caller keeps ownership. Equivalent to
// OnDataPolicy with the default (fastest-path) policy discriminator.
func (e *Encoder) OnData(now core.Time, dc2, receiver core.NodeID, flow core.FlowID, seq core.Seq, payload []byte) []core.Emit {
	return e.OnDataPolicy(now, dc2, receiver, flow, seq, 0, payload)
}

// OnDataPolicy is OnData with an explicit path-policy discriminator:
// only flows whose parity should ride the same path policy share
// cross-stream batches (see crossKey). In-stream blocks are single-flow,
// so policy never splits them.
func (e *Encoder) OnDataPolicy(now core.Time, dc2, receiver core.NodeID, flow core.FlowID, seq core.Seq, policy uint32, payload []byte) []core.Emit {
	e.stats.DataPackets++
	e.stats.DataBytes += uint64(len(payload))
	ref := wire.SourceRef{Flow: flow, Seq: seq, Receiver: receiver}
	var emits []core.Emit

	// (1) In-stream coding (Algorithm 1 lines 1–5).
	if e.cfg.InBlock > 0 {
		q := e.inQs[flow]
		if q == nil {
			q = &inQueue{flow: flow, dc2: dc2}
			e.inQs[flow] = q
		}
		if len(q.pkts) == 0 {
			q.deadline = now + e.cfg.InTimeout
			q.timer = e.deadlines.push(q.deadline, queueTimer{in: q})
		}
		q.dc2 = dc2
		q.pkts = append(q.pkts, srcPkt{ref: ref, payload: append([]byte(nil), payload...)})
		if len(q.pkts) >= e.cfg.InBlock {
			emits = append(emits, e.flushIn(now, q)...)
		}
	}

	// (2) Cross-stream coding (Algorithm 1 lines 6–23).
	key := crossKey{dc2: dc2, policy: policy}
	set := e.cross[key]
	if set == nil {
		set = make([]*crossQueue, e.cfg.CrossQueues)
		for i := range set {
			set[i] = &crossQueue{dc2: dc2, flows: make(map[core.FlowID]bool)}
		}
		e.cross[key] = set
	}
	qi := e.rrIdx[flow] % e.cfg.CrossQueues
	e.rrIdx[flow] = (qi + 1) % e.cfg.CrossQueues
	q := set[qi]
	initial := qi
	// Find a queue without a packet from this flow (lines 9–12).
	for q.flows[flow] {
		qi = (qi + 1) % e.cfg.CrossQueues
		q = set[qi]
		if qi == initial {
			// Every queue holds this flow (lines 13–19): flush the
			// initial queue if it has cross-flow value, else discard.
			if len(q.pkts) > 1 {
				emits = append(emits, e.flushCross(now, q)...)
			} else {
				q.reset()
				e.stats.Evicted++
			}
			break
		}
	}
	if len(q.pkts) == 0 {
		q.deadline = now + e.cfg.CrossTimeout
		q.opened = now
		q.timer = e.deadlines.push(q.deadline, queueTimer{cross: q})
	}
	q.flows[flow] = true
	q.pkts = append(q.pkts, srcPkt{ref: ref, payload: append([]byte(nil), payload...)})
	if len(q.pkts) >= e.cfg.K {
		emits = append(emits, e.flushCross(now, q)...)
	}
	return emits
}

// flushIn encodes an in-stream block and resets the queue.
func (e *Encoder) flushIn(now core.Time, q *inQueue) []core.Emit {
	if len(q.pkts) == 0 {
		return nil
	}
	emits := e.encodeBatch(now, q.dc2, q.pkts, wire.InStream, e.cfg.InParity)
	e.stats.InBatches++
	e.stats.InCoded += uint64(e.cfg.InParity)
	q.pkts = q.pkts[:0]
	q.deadline = 0
	q.timer = 0
	return emits
}

// flushCross encodes a cross-stream batch and resets the queue.
func (e *Encoder) flushCross(now core.Time, q *crossQueue) []core.Emit {
	if len(q.pkts) == 0 {
		return nil
	}
	emits := e.encodeBatch(now, q.dc2, q.pkts, wire.CrossStream, e.cfg.CrossParity)
	e.stats.CrossBatches++
	e.stats.CrossCoded += uint64(e.cfg.CrossParity)
	q.reset()
	return emits
}

// encodeBatch produces parity Emits for a batch of data packets.
func (e *Encoder) encodeBatch(now core.Time, dc2 core.NodeID, pkts []srcPkt, kind wire.CodedKind, parity int) []core.Emit {
	k := len(pkts)
	payloads := make([][]byte, k)
	sources := make([]wire.SourceRef, k)
	for i, p := range pkts {
		payloads[i] = p.payload
		sources[i] = p.ref
	}
	shards, shardLen, err := rs.PackBatch(payloads)
	if err != nil {
		panic("coding: " + err.Error()) // batch is non-empty by construction
	}
	codec := e.codec(k, parity)
	all := append(shards, make([][]byte, parity)...)
	for i := 0; i < parity; i++ {
		all[k+i] = make([]byte, shardLen)
	}
	if err := codec.Encode(all); err != nil {
		panic("coding: " + err.Error())
	}
	e.batchSeq++
	batch := e.batchSeq
	emits := make([]core.Emit, 0, parity)
	for i := 0; i < parity; i++ {
		meta := wire.Coded{
			Batch:    batch,
			Kind:     kind,
			K:        uint8(k),
			R:        uint8(parity),
			Index:    uint8(i),
			ShardLen: uint16(shardLen),
			Sources:  sources,
		}
		hdr := wire.Header{
			Type:    wire.TypeCoded,
			Service: core.ServiceCoding,
			TS:      now,
			Src:     e.self,
			Dst:     dc2,
		}
		payload := meta.AppendMarshal(nil, all[k+i])
		msg := wire.AppendMessage(nil, &hdr, payload)
		e.stats.CodedBytes += uint64(len(msg))
		emits = append(emits, core.Emit{To: dc2, Msg: msg})
	}
	return emits
}

// NextDeadline reports the earliest queue timeout, if any queue is open:
// O(1) amortised, as each stale heap entry is popped once.
func (e *Encoder) NextDeadline() (core.Time, bool) {
	t, ok := e.top()
	return t.at, ok
}

// top returns the earliest open queue's entry, first popping entries of
// queues flushed or forgotten since they were pushed.
func (e *Encoder) top() (deadline[queueTimer], bool) {
	for e.deadlines.len() > 0 {
		t := e.deadlines.top()
		if (t.v.in != nil && t.v.in.timer == t.seq) || (t.v.cross != nil && t.v.cross.timer == t.seq) {
			return t, true
		}
		e.deadlines.pop()
	}
	return deadline[queueTimer]{}, false
}

// OnTimer flushes every queue whose deadline has passed ("On expiry of a
// queue timer, DC1 encodes all packets in the queue and sends them"), in
// (deadline, open) order.
func (e *Encoder) OnTimer(now core.Time) []core.Emit {
	var emits []core.Emit
	for {
		t, ok := e.top()
		if !ok || t.at > now {
			return emits
		}
		emits = append(emits, e.flush(now, t.v)...)
		e.stats.TimerFlushes++
	}
}

// Flush force-encodes everything still queued (end of experiment), in
// deadline order.
func (e *Encoder) Flush(now core.Time) []core.Emit {
	var emits []core.Emit
	for {
		t, ok := e.top()
		if !ok {
			return emits
		}
		emits = append(emits, e.flush(now, t.v)...)
	}
}

// flush encodes the queue a live heap entry names; emptying the queue
// makes the entry stale.
func (e *Encoder) flush(now core.Time, t queueTimer) []core.Emit {
	if t.in != nil {
		return e.flushIn(now, t.in)
	}
	return e.flushCross(now, t.cross)
}
