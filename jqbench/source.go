package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"jqos"
)

// source is one application flow driven open-loop in simulated time: a
// fixed-size packet every `every` from its first send until `stop`,
// whatever the emulator's speed. Each send is a Sim().At event at a fixed
// sim time, and the bound fire function reschedules itself, so driving
// traffic allocates nothing on the benchmark's side.
type source struct {
	r         *run
	f         *jqos.Flow
	dst       jqos.NodeID
	budget    time.Duration
	size      int
	every     time.Duration
	next      time.Duration
	stop      time.Duration // no sends at or after stop (0 = never stops)
	buf       []byte        // reused payload buffer; Flow.Send copies it
	sent      uint64
	delivered uint64
	got       bitset // delivered sequence numbers
	fireFn    func()

	// Quality-window membership in sequence space: packets qLo < seq <=
	// qHi were sent inside the window (qHi is open while qOpen).
	inQ   bool
	qOpen bool
	qLo   uint64
	qHi   uint64
}

func newSource(r *run, f *jqos.Flow, budget time.Duration, size int, every time.Duration) *source {
	s := &source{r: r, budget: budget, size: size, every: every, buf: make([]byte, size)}
	s.fireFn = s.fire
	s.bind(f)
	return s
}

// bind (re)attaches the source to a freshly registered flow, so churn
// slots are reused without allocating.
func (s *source) bind(f *jqos.Flow) {
	s.f = f
	s.sent, s.delivered = 0, 0
	s.got.reset()
	s.inQ, s.qOpen, s.qLo, s.qHi = false, false, 0, 0
	s.r.attach(s)
}

// start schedules the first send at `first`; sends stop before `stop`.
func (s *source) start(first, stop time.Duration) {
	s.next, s.stop = first, stop
	s.r.sim.At(first, s.fireFn)
}

func (s *source) fire() {
	seq := s.sent + 1
	stamp(s.buf, s.f.ID(), seq)
	var got jqos.Seq
	if s.r.traced {
		t0 := time.Now()
		got = s.f.Send(s.buf)
		s.r.sendNs = appendCapped(s.r.sendNs, int64(time.Since(t0)))
	} else {
		got = s.f.Send(s.buf)
	}
	s.r.attempted++
	if uint64(got) != seq {
		s.r.fail("flow %d: Send returned seq %d, want %d", s.f.ID(), got, seq)
	}
	s.sent = seq
	s.r.sentTotal++
	s.next += s.every
	if s.stop == 0 || s.next < s.stop {
		s.r.sim.At(s.next, s.fireFn)
	}
}

// openWindow marks the packets this source sends from now on as inside
// the quality window.
func (s *source) openWindow() {
	s.inQ, s.qOpen, s.qLo = true, true, s.sent
}

// closeWindow ends the source's window membership and returns how many
// packets it sent inside the window.
func (s *source) closeWindow() uint64 {
	if !s.qOpen {
		return 0
	}
	s.qOpen, s.qHi = false, s.sent
	return s.qHi - s.qLo
}

func (s *source) inWindow(seq uint64) bool {
	return s.inQ && seq > s.qLo && (s.qOpen || seq <= s.qHi)
}

// stamp fills a payload with the flow ID, the sequence number and a
// pattern derived from both, so the receiver can check every byte.
func stamp(buf []byte, flow jqos.FlowID, seq uint64) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(flow))
	binary.BigEndian.PutUint64(buf[4:12], seq)
	x := byte(seq) ^ byte(flow)
	for i := 12; i < len(buf); i++ {
		buf[i] = x + byte(i)
	}
}

// checkPayload verifies a delivered payload against what stamp wrote.
func checkPayload(p []byte, size int, flow jqos.FlowID, seq uint64) error {
	if len(p) != size {
		return fmt.Errorf("payload is %d bytes, sent %d", len(p), size)
	}
	if jqos.FlowID(binary.BigEndian.Uint32(p[0:4])) != flow || binary.BigEndian.Uint64(p[4:12]) != seq {
		return fmt.Errorf("payload header names another packet")
	}
	x := byte(seq) ^ byte(flow)
	for i := 12; i < len(p); i++ {
		if p[i] != x+byte(i) {
			return fmt.Errorf("payload byte %d corrupted", i)
		}
	}
	return nil
}

// bitset is a growable set of sequence numbers.
type bitset struct{ w []uint64 }

func newBitset(n int) bitset { return bitset{w: make([]uint64, n/64+1)} }

func (b *bitset) reset() {
	for i := range b.w {
		b.w[i] = 0
	}
}

// add inserts i and reports whether it was absent.
func (b *bitset) add(i uint64) bool {
	k := int(i / 64)
	for k >= len(b.w) {
		b.w = append(b.w, 0)
	}
	m := uint64(1) << (i % 64)
	if b.w[k]&m != 0 {
		return false
	}
	b.w[k] |= m
	return true
}

func appendCapped(s []int64, v int64) []int64 {
	if len(s) < cap(s) {
		return append(s, v)
	}
	return s
}
