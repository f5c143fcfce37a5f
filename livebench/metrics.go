package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"whale/internal/obs"
)

// metricDef declares one reported metric. The two tables below fix which
// metrics a run prints and their units; BENCHMARK.json mirrors them
// (checked by TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, printed by untraced
// runs (--trace 0). Result latency is not among them: on a shared 2-vCPU
// host it follows the hypervisor's steal time far beyond any usable bound,
// so it is reported ungated with the per-layer metrics (workload.result_*).
var endToEnd = []metricDef{
	{"sat_tps", "1/s"},
	{"cpu_us_per_tuple", "us"},
	{"wire_bytes_per_tuple", "B"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-module metrics printed by traced runs (--trace 1).
// Each names the module it measures; README.md lists the end-to-end
// metric each should move and on which workload.
var perLayer = []metricDef{
	{"workload.gen_lag_ms", "ms"},
	{"workload.result_p50_ms", "ms"},
	{"workload.result_p90_ms", "ms"},
	{"dsps.emit_us_per_tuple", "us"},
	{"dsps.credit_wait_ms", "ms"},
	{"dsps.credit_waits", "count"},
	{"dsps.exec_queue_wait_ms", "ms"},
	{"dsps.exec_us_per_delivery", "us"},
	{"dsps.deliveries_per_tuple", "count"},
	{"tuple.serializations_per_tuple", "count"},
	{"tuple.serialize_us_per_tuple", "us"},
	{"transport.sends_per_tuple", "count"},
	{"transport.src_sends_per_tuple", "count"},
	{"transport.send_us_per_tuple", "us"},
	{"transport.recv_us_per_msg", "us"},
	{"multicast.relay_sends_per_tuple", "count"},
	{"multicast.switches", "count"},
	{"multicast.active_dstar", "count"},
	{"multicast.latency_p50_ms", "ms"},
	{"rdma.msgs_per_wr", "count"},
	{"rdma.cq_poll_us_per_tuple", "us"},
	{"rdma.wtl_flush_share", "ratio"},
	{"rdma.ring_wait_ms", "ms"},
	{"snapshot.epochs_completed", "count"},
	{"snapshot.epochs_aborted", "count"},
	{"snapshot.epoch_p50_ms", "ms"},
	{"snapshot.capture_us_per_epoch", "us"},
	{"snapshot.put_us_per_epoch", "us"},
	{"snapshot.state_bytes_per_epoch", "B"},
	{"snapshot.align_wait_ms", "ms"},
	{"trace.stage.serialize_p50_us", "us"},
	{"trace.stage.tree_hop_p50_us", "us"},
	{"trace.stage.rdma_slice_p50_us", "us"},
	{"trace.stage.dispatch_p50_us", "us"},
	{"trace.stage.execute_p50_us", "us"},
	{"trace.stall.credit_wait_p50_us", "us"},
	{"trace.stall.send_queue_wait_p50_us", "us"},
	{"trace.stall.ring_wait_p50_us", "us"},
	{"trace.stall.exec_queue_wait_p50_us", "us"},
	{"obs.trace_overhead_pct", "%"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stealTicks reads the VM's cumulative steal time from /proc/stat, in
// USER_HZ ticks: time the hypervisor ran something else while this VM's
// vCPUs had work. It returns 0 where the figure is unavailable, so every
// round then counts as undisturbed.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// undisturbed reports whether the hypervisor stole at most 2% of the VM's
// CPU capacity (one tick at least, the counter's resolution) during an
// interval of length d in which the steal counter grew by steal ticks.
func undisturbed(steal int64, d time.Duration) bool {
	capacity := float64(runtime.NumCPU()) * d.Seconds() * 100 // USER_HZ
	return float64(steal) <= max(1, 0.02*capacity)
}

// usable picks the rounds a run's figures are taken over: the rounds the
// hypervisor left undisturbed, when they are at least a third of all
// rounds, and otherwise every round. On a shared host, steal time inflates
// latency and cuts throughput in the rounds it hits; the program's own
// behaviour does not cause it.
func usable(clean []bool) []int {
	var ok, all []int
	for i, c := range clean {
		all = append(all, i)
		if c {
			ok = append(ok, i)
		}
	}
	if 3*len(ok) >= len(clean) {
		return ok
	}
	return all
}

// regDelta is the difference of two registry snapshots, taken around a
// measured phase, plus end-of-phase gauges and histograms.
type regDelta struct{ before, after obs.Snapshot }

// counter returns the delta of one counter.
func (d regDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// sumWorkers sums the deltas of every counter named "worker.<n><suffix>"
// (the per-worker RDMA channel counters).
func (d regDelta) sumWorkers(suffix string) float64 {
	var s float64
	for name, v := range d.after.Counters {
		if strings.HasPrefix(name, "worker.") && strings.HasSuffix(name, suffix) {
			s += float64(v - d.before.Counters[name])
		}
	}
	return s
}

// histP50 returns the end-of-run median of a registry histogram.
func (d regDelta) histP50(name string) float64 { return float64(d.after.Histograms[name].P50) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
