package main

import (
	"encoding/json"
	"os"
	"testing"

	"whale/internal/core"
)

// Run with: cd livebench && go test .
//
// Each test runs a short live workload, shows its oracle accepts the real
// output, then plants one fault in a copy of what the operators recorded
// and shows the oracle rejects it.

func TestFanoutOracleRejectsDroppedDelivery(t *testing.T) {
	p := makeFanPlan(core.Whale, 7, 5000, 100, 200, 400, 3)
	r, err := runFan(p, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.oracle != nil {
		t.Fatalf("clean run: failed=%d oracle=%v", r.failed, r.oracle)
	}
	rec := r.st.rec
	// Drop sink 5's delivery of sequence number 700.
	rec.seen[5][700>>6] &^= 1 << (700 & 63)
	if failed, err := checkFanout(rec); failed != 1 || err != nil {
		t.Fatalf("dropped delivery: failed=%d err=%v, want 1 failure", failed, err)
	}
	rec.bad[3]++
	if _, err := checkFanout(rec); err == nil {
		t.Fatal("corrupted payload accepted")
	}
}

func TestRideOracleRejectsWrongDistanceAndDrop(t *testing.T) {
	in := newRideInputs(7, 1)
	r, err := runRide(in, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.oracle != nil {
		t.Fatalf("clean run: failed=%d oracle=%v", r.failed, r.oracle)
	}
	rec := r.st.record()
	if len(rec.cands) == 0 || len(rec.snapshots) == 0 {
		t.Fatalf("clean run produced %d candidates and %d committed epochs; the checks below need both", len(rec.cands), len(rec.snapshots))
	}

	wrong := *rec
	wrong.cands = append([]rideReport(nil), rec.cands...)
	wrong.cands[0].dist += 0.01
	if _, err := checkRide(in, &wrong); err == nil {
		t.Fatal("wrong match distance accepted")
	}

	dropped := *rec
	dropped.locExec = append([]int32(nil), rec.locExec...)
	dropped.locExec[42] = 0
	if failed, err := checkRide(in, &dropped); failed != 1 || err != nil {
		t.Fatalf("dropped location update: failed=%d err=%v, want 1 failure", failed, err)
	}

	// Driver 0 is the most active (Zipf rank 0): move its last update to
	// another matcher.
	misrouted := *rec
	misrouted.locTask = append([]int8(nil), rec.locTask...)
	last := len(in.locDriver) - 1
	for in.locDriver[last] != 0 {
		last--
	}
	misrouted.locTask[last] = misrouted.locTask[last]%rideMatchers + 1
	if _, err := checkRide(in, &misrouted); err == nil {
		t.Fatal("location update executed by a second matcher accepted")
	}

	// Copy one driver entry into a second matcher's snapshot of an epoch.
	split := *rec
	split.snapshots = map[int64]map[string][]byte{}
	for epoch, tasks := range rec.snapshots {
		fromKey := ""
		for key, data := range tasks {
			if len(data) > 0 {
				fromKey = key
				break
			}
		}
		if fromKey == "" || len(tasks) < 2 {
			continue
		}
		planted := map[string][]byte{}
		for key, data := range tasks {
			planted[key] = data
			if key != fromKey {
				planted[key] = append(append([]byte(nil), data...), tasks[fromKey][:driverEntryLen]...)
			}
		}
		split.snapshots[epoch] = planted
		break
	}
	if _, err := checkRide(in, &split); err == nil {
		t.Fatal("driver key in two matchers' snapshots accepted")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bench.EndToEnd}, {"per_layer", perLayer, bench.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Fatalf("%s: program declares %d metrics, BENCHMARK.json %d", c.kind, len(c.defs), len(c.json))
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", c.kind, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}
