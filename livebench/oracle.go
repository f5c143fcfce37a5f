package main

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The oracles judge a run from what the benchmark's own operators recorded
// and from inputs regenerated from the seed, never from the engine's
// counters or a stored copy of earlier output. A delivery that never
// happened counts as a failed operation; anything delivered wrongly
// (twice, corrupted, to the wrong task, with a wrong result) is an error.

// checkFanout returns how many sequence numbers did not reach every sink
// instance, and an error if any sink executed a sequence number twice,
// received a payload whose checksum differs from the one recomputed from
// the seed, or received a sequence number that was never emitted.
func checkFanout(r *fanRecord) (failed int64, err error) {
	for seq := int64(0); seq < r.n; seq++ {
		w, bit := seq>>6, uint64(1)<<(uint64(seq)&63)
		for k := range r.seen {
			if r.seen[k][w]&bit == 0 {
				failed++
				break
			}
		}
	}
	for k := range r.seen {
		switch {
		case r.dup[k] > 0:
			return failed, fmt.Errorf("fanout: sink %d executed %d sequence numbers twice", k, r.dup[k])
		case r.bad[k] > 0:
			return failed, fmt.Errorf("fanout: sink %d received %d payloads failing the seed checksum", k, r.bad[k])
		case r.stray[k] > 0:
			return failed, fmt.Errorf("fanout: sink %d received %d sequence numbers never emitted", k, r.stray[k])
		}
	}
	return failed, nil
}

// rideReport is one matcher's candidate for one request, as the
// aggregator received it.
type rideReport struct {
	req, driver, locSeq int32
	dist                float64
}

// rideRecord is what the ride-hailing operators observed.
type rideRecord struct {
	locExec   []int32 // executions of each location update
	locTask   []int8  // matcher task index that executed it (+1; 0 = none)
	reports   []int32 // matcher reports received per request
	finals    []int32 // times each request was finalised
	cands     []rideReport
	matched   int64
	unmatched int64
	snapshots map[int64]map[string][]byte // committed epoch -> task key -> matcher state
}

// checkRide returns how many location updates and requests were never
// processed, and an error for any wrong outcome: a duplicate or misrouted
// location update, a request not finalised exactly once from exactly
// rideMatchers reports, a reported distance that is not the haversine
// distance to a position that driver actually reported or lies outside the
// radius, matched+unmatched differing from the requests finalised, or a
// committed epoch in which one driver key sits in two matchers' snapshots.
func checkRide(in *rideInputs, r *rideRecord) (failed int64, err error) {
	owner := make([]int8, rideDrivers)
	for seq := range r.locExec {
		switch r.locExec[seq] {
		case 0:
			failed++
			continue
		case 1:
		default:
			return failed, fmt.Errorf("ride: location %d executed %d times", seq, r.locExec[seq])
		}
		d := in.locDriver[seq]
		if owner[d] == 0 {
			owner[d] = r.locTask[seq]
		} else if owner[d] != r.locTask[seq] {
			return failed, fmt.Errorf("ride: driver %d updated by matchers %d and %d", d, owner[d]-1, r.locTask[seq]-1)
		}
	}
	var finalised int64
	for req := range r.reports {
		switch {
		case r.finals[req] == 0 && r.reports[req] < rideMatchers:
			failed++
		case r.finals[req] != 1:
			return failed, fmt.Errorf("ride: request %d finalised %d times", req, r.finals[req])
		case r.reports[req] != rideMatchers:
			return failed, fmt.Errorf("ride: request %d finalised with %d matcher reports, want %d", req, r.reports[req], rideMatchers)
		default:
			finalised++
		}
	}
	for _, c := range r.cands {
		if c.locSeq < 0 || int(c.locSeq) >= len(in.locDriver) || in.locDriver[c.locSeq] != c.driver {
			return failed, fmt.Errorf("ride: request %d matched driver %d at location %d, which that driver never reported", c.req, c.driver, c.locSeq)
		}
		want := chordKM(in.reqLat[c.req], in.reqLon[c.req], in.locLat[c.locSeq], in.locLon[c.locSeq])
		if math.Abs(c.dist-want) > 1e-6 {
			return failed, fmt.Errorf("ride: request %d reports %.9f km to driver %d, recomputed %.9f km", c.req, c.dist, c.driver, want)
		}
		if c.dist > rideRadiusKM {
			return failed, fmt.Errorf("ride: request %d matched driver %d at %.3f km, beyond the %.1f km radius", c.req, c.driver, c.dist, rideRadiusKM)
		}
	}
	if r.matched+r.unmatched != finalised {
		return failed, fmt.Errorf("ride: matched %d + unmatched %d != %d requests finalised", r.matched, r.unmatched, finalised)
	}
	for epoch, tasks := range r.snapshots {
		holder := map[int32]string{}
		for key, data := range tasks {
			if len(data)%driverEntryLen != 0 {
				return failed, fmt.Errorf("ride: epoch %d snapshot %s has %d bytes, not whole entries", epoch, key, len(data))
			}
			for off := 0; off < len(data); off += driverEntryLen {
				d := int32(binary.LittleEndian.Uint32(data[off:]))
				if prev, ok := holder[d]; ok {
					return failed, fmt.Errorf("ride: epoch %d: driver %d in snapshots of %s and %s", epoch, d, prev, key)
				}
				holder[d] = key
			}
		}
	}
	return failed, nil
}

// chordKM is the great-circle distance in km, computed independently of
// the matcher's haversine formula: through the straight chord between the
// two points' unit vectors. The two agree to well under a millimetre.
func chordKM(lat1, lon1, lat2, lon2 float64) float64 {
	const earthKM = 6371.0
	rad := math.Pi / 180
	x1, y1, z1 := math.Cos(lat1*rad)*math.Cos(lon1*rad), math.Cos(lat1*rad)*math.Sin(lon1*rad), math.Sin(lat1*rad)
	x2, y2, z2 := math.Cos(lat2*rad)*math.Cos(lon2*rad), math.Cos(lat2*rad)*math.Sin(lon2*rad), math.Sin(lat2*rad)
	chord := math.Sqrt((x1-x2)*(x1-x2) + (y1-y2)*(y1-y2) + (z1-z2)*(z1-z2))
	return 2 * earthKM * math.Asin(chord/2)
}
