package main

import "whale/internal/obs"

// ledgerSnap is a point-in-time copy of a ledger's counters.
type ledgerSnap struct {
	emit, send, recv, exec, put, capture [3]float64 // calls, ns, self ns
	dataSends, srcSends, putBytes        float64
}

func loadBoundary(b *boundary) [3]float64 {
	return [3]float64{float64(b.calls.Load()), float64(b.ns.Load()), b.selfNS()}
}

// snap copies the ledger's counters; a nil ledger reads as zero.
func (l *ledger) snap() ledgerSnap {
	if l == nil {
		return ledgerSnap{}
	}
	return ledgerSnap{
		emit: loadBoundary(&l.emit), send: loadBoundary(&l.send), recv: loadBoundary(&l.recv),
		exec: loadBoundary(&l.exec), put: loadBoundary(&l.put), capture: loadBoundary(&l.capture),
		dataSends: float64(l.dataSends.Load()), srcSends: float64(l.srcSends.Load()),
		putBytes: float64(l.putBytes.Load()),
	}
}

func sub3(a, b [3]float64) [3]float64 { return [3]float64{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// minus is the counter growth from o to s.
func (s ledgerSnap) minus(o ledgerSnap) ledgerSnap {
	return ledgerSnap{
		emit: sub3(s.emit, o.emit), send: sub3(s.send, o.send), recv: sub3(s.recv, o.recv),
		exec: sub3(s.exec, o.exec), put: sub3(s.put, o.put), capture: sub3(s.capture, o.capture),
		dataSends: s.dataSends - o.dataSends, srcSends: s.srcSends - o.srcSends,
		putBytes: s.putBytes - o.putBytes,
	}
}

// selfUSPerCall is a boundary's mean self time per call, in µs.
func selfUSPerCall(b [3]float64) float64 { return ratio(b[2]/1e3, b[0]) }

// commonLayers derives the per-layer metrics both topologies share from
// the registry delta and ledger growth over the measured phases, in which
// the sources emitted `tuples` tuples.
func commonLayers(d regDelta, led ledgerSnap, tuples float64) map[string]float64 {
	epochs := d.counter("snapshot.epochs_completed")
	flushes := d.counter("rdma.flushes_mms") + d.counter("rdma.flushes_wtl") + d.counter("rdma.flushes_explicit")
	m := map[string]float64{
		"dsps.emit_us_per_tuple":          selfUSPerCall(led.emit),
		"dsps.credit_wait_ms":             d.counter("dsps.credit_wait_ns") / 1e6,
		"dsps.credit_waits":               d.counter("dsps.credits_waited"),
		"dsps.exec_queue_wait_ms":         d.counter("dsps.exec_queue_wait_ns") / 1e6,
		"dsps.exec_us_per_delivery":       selfUSPerCall(led.exec),
		"tuple.serializations_per_tuple":  d.counter("dsps.serializations") / tuples,
		"tuple.serialize_us_per_tuple":    d.counter("dsps.serialization_ns") / 1e3 / tuples,
		"transport.sends_per_tuple":       led.dataSends / tuples,
		"transport.src_sends_per_tuple":   led.srcSends / tuples,
		"transport.send_us_per_tuple":     led.send[2] / 1e3 / tuples,
		"transport.recv_us_per_msg":       selfUSPerCall(led.recv),
		"multicast.relay_sends_per_tuple": (led.dataSends - led.srcSends) / tuples,
		"multicast.switches":              d.counter("multicast.switches"),
		"multicast.active_dstar":          float64(d.after.Gauges["multicast.active_dstar"]),
		"multicast.latency_p50_ms":        d.histP50("multicast.latency_ns") / 1e6,
		"rdma.msgs_per_wr":                ratio(d.sumWorkers(".rdma.msgs_sent"), d.sumWorkers(".rdma.work_requests")),
		"rdma.cq_poll_us_per_tuple":       d.sumWorkers(".rdma.cq_poll_ns") / 1e3 / tuples,
		"rdma.wtl_flush_share":            ratio(d.counter("rdma.flushes_wtl"), flushes),
		"rdma.ring_wait_ms":               d.sumWorkers(".rdma.ring_wait_ns") / 1e6,
		"snapshot.epochs_completed":       epochs,
		"snapshot.epochs_aborted":         d.counter("snapshot.epochs_aborted"),
		"snapshot.epoch_p50_ms":           d.histP50("snapshot.epoch_latency_ns") / 1e6,
		"snapshot.capture_us_per_epoch":   ratio(led.capture[2]/1e3, epochs),
		"snapshot.put_us_per_epoch":       ratio(led.put[2]/1e3, epochs),
		"snapshot.state_bytes_per_epoch":  ratio(led.putBytes, epochs),
		"snapshot.align_wait_ms":          d.counter("snapshot.align_wait_ns") / 1e6,
	}
	for _, st := range obs.Stages {
		m["trace.stage."+string(st)+"_p50_us"] = d.histP50("trace.stage."+string(st)+"_ns") / 1e3
	}
	for _, st := range []obs.Stage{obs.StallCreditWait, obs.StallSendQueueWait, obs.StallRingWait, obs.StallExecQueueWait} {
		m["trace.stall."+string(st)+"_p50_us"] = d.histP50("trace.stall."+string(st)+"_ns") / 1e3
	}
	return m
}
