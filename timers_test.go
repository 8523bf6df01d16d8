package jqos_test

import (
	"testing"
	"time"

	"jqos"
	"jqos/internal/dataset"
	"jqos/internal/netem"
)

// timerChurn runs a 2-DC coding world sending n packets round-robin over
// four flows, one per millisecond, and reports the simulator's pending
// events right after the last send and its steps per sent packet once
// everything has drained.
func timerChurn(t *testing.T, n int) (pending int, stepsPerPkt float64) {
	t.Helper()
	cfg := jqos.DefaultConfig()
	cfg.UpgradeInterval = 0
	d := jqos.NewDeploymentWithConfig(11, cfg)
	dc1 := d.AddDC("a", dataset.RegionUSEast)
	dc2 := d.AddDC("b", dataset.RegionEU)
	d.ConnectDCs(dc1, dc2, 40*time.Millisecond)
	var flows []*jqos.Flow
	for i := 0; i < 4; i++ {
		src := d.AddHost(dc1, 5*time.Millisecond)
		dst := d.AddHost(dc2, 8*time.Millisecond)
		d.SetDirectPath(src, dst, netem.FixedDelay(50*time.Millisecond), netem.Bernoulli{P: 0.01})
		f, err := d.RegisterFlow(jqos.FlowSpec{Src: src, Dst: dst, Budget: time.Hour, Service: jqos.ServiceCoding, ServiceFixed: true})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	payload := make([]byte, 200)
	for i := 0; i < n; i++ {
		f := flows[i%len(flows)]
		d.Sim().At(time.Duration(i)*time.Millisecond, func() { f.Send(payload) })
	}
	d.Run(time.Duration(n) * time.Millisecond)
	pending = d.Sim().Pending()
	d.RunUntilQuiet()
	var sent uint64
	for _, f := range flows {
		sent += f.Metrics().Sent
	}
	if sent != uint64(n) {
		t.Fatalf("sent %d of %d packets", sent, n)
	}
	return pending, float64(d.Sim().Steps()) / float64(n)
}

// maxStepsPerPkt bounds sim events per sent packet in timerChurn's
// world: about 4.5 with earlier-only re-arm, about 7 with an event per
// handled packet.
const maxStepsPerPkt = 5.5

// TestTimerChurnBounded pins the earlier-only timer re-arm: DC and host
// timers add a sim event only when their earliest deadline moves
// earlier, so the event queue does not grow with the packets handled and
// each packet costs a bounded number of events. Scheduling an event for
// every handled packet leaves superseded events queued until their
// deadline — up to BatchTTL ahead at the recovering DC — and fails both
// checks.
func TestTimerChurnBounded(t *testing.T) {
	const n = 500
	pendN, _ := timerChurn(t, n)
	pend4N, steps := timerChurn(t, 4*n)
	if pend4N > pendN+pendN/2 {
		t.Errorf("pending events grew with the packets sent: %d after %d packets, %d after %d", pendN, n, pend4N, 4*n)
	}
	if steps > maxStepsPerPkt {
		t.Errorf("%.2f sim steps per sent packet, ceiling %v", steps, maxStepsPerPkt)
	}
}
