// Command livebench is the live one-to-many benchmark. Each invocation runs
// one workload in a fresh process against the engine's public surface
// (core.System.EngineConfig + dsps.Start), checks the outputs against
// oracles that do not trust the engine, and prints one JSON object as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run instead times each layer from outside and prints the per-layer
// ledger. Usage (normally through run.py, which builds this program):
//
//	livebench --workload fanout-whale --seed 1 --seconds 10 --trace 0
//	livebench --workload fanout-storm --preset RDMC ...  # any preset on the fanout topology
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"whale/internal/core"
	"whale/internal/dsps"
)

// traceEvery samples one source tuple in traceEvery for the engine's own
// stage tracer in traced runs.
const traceEvery = 100

// result is the printed outcome of one run.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "fanout-whale | fanout-storm | ride-ckpt")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "run length: sizes the fixed amount of work a run does")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	preset := flag.String("preset", "", "on fanout-*: run this system preset instead (e.g. RDMA-Storm, RDMC)")
	flag.Parse()

	// Exit within the harness's 180 s limit even if the engine wedges.
	go func() {
		time.Sleep(170 * time.Second)
		fmt.Fprintln(os.Stderr, "livebench: run exceeded 170s")
		os.Exit(2)
	}()

	res, err := run(*workload, *seed, *seconds, *trace == 1, *preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed int64, seconds int, traced bool, preset string) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	switch workload {
	case "fanout-whale", "fanout-storm":
		sys := core.Whale
		if workload == "fanout-storm" {
			sys = core.Storm
		}
		if preset != "" {
			var ok bool
			if sys, ok = presetByName(preset); !ok {
				return nil, fmt.Errorf("unknown preset %q", preset)
			}
		}
		return runFanWorkload(newFanPlan(sys, seed, seconds), traced)
	case "ride-ckpt":
		if preset != "" {
			return nil, fmt.Errorf("--preset applies to the fanout workloads only")
		}
		return runRideWorkload(newRideInputs(seed, seconds), traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want fanout-whale, fanout-storm or ride-ckpt)", workload)
}

func presetByName(name string) (core.System, bool) {
	for _, s := range core.Systems {
		if strings.EqualFold(s.String(), name) {
			return s, true
		}
	}
	return 0, false
}

// runFanWorkload runs a fanout plan. A traced run measures the same plan
// twice, untraced then traced, so it can report the tracing overhead
// against a run of its own; the result latency it reports comes from the
// untraced pass.
func runFanWorkload(p fanPlan, traced bool) (*result, error) {
	if !traced {
		r, err := runFan(p, nil, 0, true)
		if err != nil {
			return nil, err
		}
		m := r.endToEnd()
		m["peak_rss_mb"] = peakRSSMB()
		printLatency(r.p50, r.p90)
		return report(endToEnd, m, p.n(), r.failed, r.oracle)
	}
	base, err := runFan(p, nil, 0, false)
	if err != nil {
		return nil, err
	}
	tr, err := runFan(p, &ledger{}, traceEvery, false)
	if err != nil {
		return nil, err
	}
	m := tr.layers()
	m["workload.result_p50_ms"], m["workload.result_p90_ms"] = median(base.p50), median(base.p90)
	m["obs.trace_overhead_pct"] = 100 * (base.satTPS - tr.satTPS) / base.satTPS
	oracle := base.oracle
	if oracle == nil {
		oracle = tr.oracle
	}
	return report(perLayer, m, 2*p.n(), base.failed+tr.failed, oracle)
}

// runRideWorkload runs ride-ckpt. Its traced run reports tracing overhead
// as the rise in CPU per tuple: the workload is paced, so throughput does
// not move.
func runRideWorkload(in *rideInputs, traced bool) (*result, error) {
	attempted := int64(len(in.locDriver) + len(in.reqLat))
	if !traced {
		r, err := runRide(in, nil, 0, true)
		if err != nil {
			return nil, err
		}
		m := r.endToEnd()
		m["peak_rss_mb"] = peakRSSMB()
		printLatency(r.p50, r.p90)
		return report(endToEnd, m, attempted, r.failed, r.oracle)
	}
	base, err := runRide(in, nil, 0, false)
	if err != nil {
		return nil, err
	}
	tr, err := runRide(in, &ledger{}, traceEvery, false)
	if err != nil {
		return nil, err
	}
	m := tr.layers()
	m["workload.result_p50_ms"], m["workload.result_p90_ms"] = median(base.p50), median(base.p90)
	m["obs.trace_overhead_pct"] = 100 * (tr.cpuPerTp - base.cpuPerTp) / base.cpuPerTp
	oracle := base.oracle
	if oracle == nil {
		oracle = tr.oracle
	}
	return report(perLayer, m, 2*attempted, base.failed+tr.failed, oracle)
}

// timeSetups starts and stops setupRuns-1 probe engines, returning each
// one's set-up time in seconds; the measured engine adds the last sample.
func timeSetups(start func() (*dsps.Engine, time.Duration, error)) ([]float64, error) {
	var out []float64
	for i := 0; i < setupRuns-1; i++ {
		eng, d, err := start()
		if err != nil {
			return nil, err
		}
		eng.Stop()
		out = append(out, d.Seconds())
	}
	return out, nil
}

// printLatency shows an untraced run's result latency on standard error:
// medians over the usable rounds of each round's percentile.
func printLatency(p50, p90 []float64) {
	fmt.Fprintf(os.Stderr, "%-38s %14.4f ms (ungated)\n%-38s %14.4f ms (ungated)\n",
		"result_p50_ms", median(p50), "result_p90_ms", median(p90))
}

// report assembles the printed result from the declared metric table,
// refusing a metric that is missing or not a finite number.
func report(defs []metricDef, values map[string]float64, attempted, failed int64, oracle error) (*result, error) {
	res := &result{Correct: oracle == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	if oracle != nil {
		fmt.Fprintln(os.Stderr, "livebench: oracle:", oracle)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-38s %14.4f %s\n", d.name, v, d.unit)
	}
	return res, nil
}
