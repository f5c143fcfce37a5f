package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"whale/internal/core"
	"whale/internal/dsps"
	"whale/internal/obs"
	"whale/internal/snapshot"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// The ride-hailing application (paper §5.1) under Whale with aligned
// checkpoints: driver locations are fields-grouped (point-to-point) to the
// matchers, passenger requests are all-grouped to them, and aggregators
// keyed by request pick the closest candidate once every matcher reported.
const (
	rideWorkers     = 4
	rideMatchers    = 16
	rideAggregators = 4
	rideDrivers     = 1000
	rideRadiusKM    = 2.0
	rideLocRate     = 10000 // driver location updates per second
	rideReqRate     = 500   // passenger requests per second
	rideCkptEvery   = 200 * time.Millisecond
	// rideOpenShare of the run length is measured traffic, after warm-up.
	rideOpenShare = 0.8
	// driverEntryLen is one driver's entry in a matcher snapshot:
	// driver id, location sequence number, latitude, longitude.
	driverEntryLen = 24
)

// City bounding box (roughly Chengdu, where the paper's Didi trace lives).
const latMin, latMax, lonMin, lonMax = 30.4, 30.9, 103.8, 104.3

const (
	streamLoc   = "loc"
	streamReq   = "req"
	streamMatch = "match"
)

// rideInputs is every tuple a run emits, generated from the seed before
// the engine starts. Request 0 is the set-up probe; location i and request
// i+1 are due i/rate seconds after the paced start.
type rideInputs struct {
	locDriver      []int32
	locLat, locLon []float64
	reqLat, reqLon []float64
	warmLocs       int64 // locations emitted during warm-up
	warmReqs       int64 // requests (after the probe) emitted during warm-up
	slices         int   // the measured window is cut into this many slices
}

func newRideInputs(seed int64, seconds int) *rideInputs {
	rng := rand.New(rand.NewSource(seed))
	span := warmSeconds + rideOpenShare*float64(seconds)
	nLoc := int(rideLocRate * span)
	nReq := 1 + int(rideReqRate*span)
	in := &rideInputs{
		locDriver: make([]int32, nLoc), locLat: make([]float64, nLoc), locLon: make([]float64, nLoc),
		reqLat: make([]float64, nReq), reqLon: make([]float64, nReq),
		warmLocs: int64(rideLocRate * warmSeconds), warmReqs: int64(rideReqRate * warmSeconds),
		slices: roundsFor(seconds),
	}
	lat := make([]float64, rideDrivers)
	lon := make([]float64, rideDrivers)
	for d := range lat {
		lat[d] = latMin + rng.Float64()*(latMax-latMin)
		lon[d] = lonMin + rng.Float64()*(lonMax-lonMin)
	}
	// Zipf-skewed driver activity, as in the paper's trace: a few drivers
	// report far more often than the rest.
	zipf := rand.NewZipf(rng, 1.2, 1, rideDrivers-1)
	for i := range in.locDriver {
		d := int32(zipf.Uint64())
		lat[d] = math.Min(latMax, math.Max(latMin, lat[d]+(rng.Float64()-0.5)*0.002))
		lon[d] = math.Min(lonMax, math.Max(lonMin, lon[d]+(rng.Float64()-0.5)*0.002))
		in.locDriver[i], in.locLat[i], in.locLon[i] = d, lat[d], lon[d]
	}
	for i := range in.reqLat {
		in.reqLat[i] = latMin + rng.Float64()*(latMax-latMin)
		in.reqLon[i] = lonMin + rng.Float64()*(lonMax-lonMin)
	}
	return in
}

// rideState is shared by the benchmark and its operators during one
// engine's life.
type rideState struct {
	in        *rideInputs
	l         *ledger
	probeOnly bool
	base      time.Time
	started   atomic.Bool
	t0        atomic.Int64 // paced start, since base

	locExec   []atomic.Int32
	locTask   []atomic.Int32 // matcher task index + 1
	reports   []atomic.Int32
	finals    []atomic.Int32
	reqDoneNS []atomic.Int64
	locEmitNS []int64 // written by the location source
	reqEmitNS []int64 // written by the request source
	done      atomic.Int64
	matched   atomic.Int64
	unmatched atomic.Int64
	cands     [rideAggregators][]rideReport // per aggregator task

	store *tapStore
}

func newRideState(in *rideInputs, l *ledger, probeOnly bool) *rideState {
	nl, nr := len(in.locDriver), len(in.reqLat)
	return &rideState{in: in, l: l, probeOnly: probeOnly, base: time.Now(),
		locExec: make([]atomic.Int32, nl), locTask: make([]atomic.Int32, nl),
		reports: make([]atomic.Int32, nr), finals: make([]atomic.Int32, nr),
		reqDoneNS: make([]atomic.Int64, nr),
		locEmitNS: make([]int64, nl), reqEmitNS: make([]int64, nr)}
}

func (st *rideState) now() int64 { return time.Since(st.base).Nanoseconds() }

// total is how many tuples the sources emit, the probe included.
func (st *rideState) total() int64 { return int64(len(st.in.locDriver) + len(st.in.reqLat)) }

func (st *rideState) waitDone(upto int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for st.done.Load() < upto {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// rideSource paces one of the two input streams. The request source
// emits the probe (request 0) as soon as it opens.
type rideSource struct {
	st     *rideState
	req    bool
	probed bool
	pacing bool
	pc     pacer
}

func (s *rideSource) Open(ctx *dsps.TaskContext) { s.st.l.markSource(ctx.Worker) }
func (s *rideSource) Close()                     {}

func (s *rideSource) emitTo(c *dsps.Collector, stream string, values ...tuple.Value) {
	if l := s.st.l; l != nil {
		sp := startSpan(&l.emit, nil)
		c.EmitTo(stream, values...)
		sp.end()
		return
	}
	c.EmitTo(stream, values...)
}

func (s *rideSource) emitReq(c *dsps.Collector, i int64) {
	in := s.st.in
	s.st.reqEmitNS[i] = s.st.now()
	s.emitTo(c, streamReq, i, in.reqLat[i], in.reqLon[i])
}

func (s *rideSource) emitLoc(c *dsps.Collector, i int64) {
	in := s.st.in
	s.st.locEmitNS[i] = s.st.now()
	s.emitTo(c, streamLoc, i, int64(in.locDriver[i]), in.locLat[i], in.locLon[i])
}

// Next never reports exhaustion: an exiting source aborts the epoch in
// flight, so a finished source idles until the engine stops.
func (s *rideSource) Next(c *dsps.Collector) bool {
	st := s.st
	switch {
	case s.req && !s.probed:
		s.emitReq(c, 0)
		s.probed = true
	case !s.pacing:
		if st.probeOnly || !st.started.Load() {
			time.Sleep(500 * time.Microsecond)
			return true
		}
		if s.req {
			s.pc = pacer{rate: rideReqRate}
			s.pc.start(st.t0.Load(), 1, int64(len(st.in.reqLat)))
		} else {
			s.pc = pacer{rate: rideLocRate}
			s.pc.start(st.t0.Load(), 0, int64(len(st.in.locDriver)))
		}
		s.pacing = true
	default:
		emit := func(i int64) { s.emitLoc(c, i) }
		if s.req {
			emit = func(i int64) { s.emitReq(c, i) }
		}
		if s.pc.step(st.now(), emit) {
			time.Sleep(500 * time.Microsecond)
		}
	}
	return true
}

// driverPos is a matcher's latest record of one driver.
type driverPos struct {
	seq      int32
	lat, lon float64
}

// matcher owns the drivers whose keys are routed to it and reports, for
// every broadcast request, its closest driver within the radius. Its
// driver table is the checkpointed state.
type matcher struct {
	st    *rideState
	idx   int
	table map[int32]driverPos
	cur   *span // open Execute span in traced runs
}

var _ snapshot.Snapshotter = (*matcher)(nil)

func (m *matcher) Prepare(ctx *dsps.TaskContext) { m.idx = ctx.TaskIndex }
func (m *matcher) Cleanup()                      {}

func (m *matcher) Execute(tp *tuple.Tuple, c *dsps.Collector) {
	if l := m.st.l; l != nil {
		sp := startSpan(&l.exec, nil)
		m.cur = &sp
		m.execute(tp, c)
		m.cur = nil
		sp.end()
		return
	}
	m.execute(tp, c)
}

func (m *matcher) execute(tp *tuple.Tuple, c *dsps.Collector) {
	st := m.st
	switch tp.Stream {
	case streamLoc:
		seq := tp.Int(0)
		m.table[int32(tp.Int(1))] = driverPos{seq: int32(seq), lat: tp.Float(2), lon: tp.Float(3)}
		st.locTask[seq].Store(int32(m.idx + 1))
		if st.locExec[seq].Add(1) == 1 {
			st.done.Add(1)
		}
	case streamReq:
		req, lat, lon := tp.Int(0), tp.Float(1), tp.Float(2)
		best, bestSeq, bestDist := int32(-1), int32(-1), 0.0
		for d, pos := range m.table {
			if dist := haversineKM(lat, lon, pos.lat, pos.lon); dist <= rideRadiusKM && (best < 0 || dist < bestDist) {
				best, bestSeq, bestDist = d, pos.seq, dist
			}
		}
		if l := st.l; l != nil {
			sp := startSpan(&l.emit, m.cur)
			c.EmitTo(streamMatch, req, int64(best), bestDist, int64(bestSeq))
			sp.end()
			return
		}
		c.EmitTo(streamMatch, req, int64(best), bestDist, int64(bestSeq))
	}
}

// SnapshotState encodes the driver table as fixed-size entries.
func (m *matcher) SnapshotState() ([]byte, error) {
	var sp span
	if l := m.st.l; l != nil {
		sp = startSpan(&l.capture, nil)
		defer sp.end()
	}
	out := make([]byte, 0, len(m.table)*driverEntryLen)
	for d, pos := range m.table {
		out = binary.LittleEndian.AppendUint32(out, uint32(d))
		out = binary.LittleEndian.AppendUint32(out, uint32(pos.seq))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(pos.lat))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(pos.lon))
	}
	return out, nil
}

// RestoreState reinstalls a driver table written by SnapshotState.
func (m *matcher) RestoreState(data []byte) error {
	if len(data)%driverEntryLen != 0 {
		return fmt.Errorf("matcher: snapshot of %d bytes is not whole entries", len(data))
	}
	m.table = make(map[int32]driverPos, len(data)/driverEntryLen)
	for off := 0; off < len(data); off += driverEntryLen {
		m.table[int32(binary.LittleEndian.Uint32(data[off:]))] = driverPos{
			seq: int32(binary.LittleEndian.Uint32(data[off+4:])),
			lat: math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
			lon: math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
		}
	}
	return nil
}

// aggregator keeps, per request, the closest candidate reported so far and
// finalises the request once every matcher has reported.
type aggregator struct {
	st   *rideState
	idx  int
	best map[int64]int32 // request -> closest driver so far (-1: none)
	dist map[int64]float64
}

func (a *aggregator) Prepare(ctx *dsps.TaskContext) { a.idx = ctx.TaskIndex }
func (a *aggregator) Cleanup()                      {}

func (a *aggregator) Execute(tp *tuple.Tuple, _ *dsps.Collector) {
	st := a.st
	req, driver, dist, locSeq := tp.Int(0), int32(tp.Int(1)), tp.Float(2), int32(tp.Int(3))
	best, seen := a.best[req]
	if !seen {
		best = -1
	}
	if driver >= 0 {
		st.cands[a.idx] = append(st.cands[a.idx], rideReport{req: int32(req), driver: driver, locSeq: locSeq, dist: dist})
		if best < 0 || dist < a.dist[req] {
			best = driver
			a.dist[req] = dist
		}
	}
	a.best[req] = best
	if st.reports[req].Add(1) != rideMatchers {
		return
	}
	if best >= 0 {
		st.matched.Add(1)
	} else {
		st.unmatched.Add(1)
	}
	delete(a.best, req)
	delete(a.dist, req)
	st.reqDoneNS[req].Store(st.now())
	st.finals[req].Add(1)
	st.done.Add(1)
}

// haversineKM is the matcher's great-circle distance, in km.
func haversineKM(lat1, lon1, lat2, lon2 float64) float64 {
	const earthKM = 6371.0
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthKM * math.Asin(math.Sqrt(a))
}

// startRide builds the topology, starts the engine with checkpointing and
// waits until the probe request has been finalised: that interval is the
// set-up time.
func startRide(st *rideState, traceEvery int64) (*dsps.Engine, time.Duration, error) {
	t0 := time.Now()
	b := dsps.NewTopologyBuilder()
	b.Spout("locations", func() dsps.Spout { return &rideSource{st: st} }, 1)
	b.Spout("requests", func() dsps.Spout { return &rideSource{st: st, req: true} }, 1)
	b.Bolt("matcher", func() dsps.Bolt { return &matcher{st: st, table: map[int32]driverPos{}} }, rideMatchers).
		FieldsStream("locations", streamLoc, 1).
		AllStream("requests", streamReq)
	b.Bolt("aggregator", func() dsps.Bolt {
		return &aggregator{st: st, best: map[int64]int32{}, dist: map[int64]float64{}}
	}, rideAggregators).FieldsStream("matcher", streamMatch, 0)
	topo, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	st.store = newTapStore(snapshot.NewMemStore(), st.l)
	cfg, err := core.Whale.EngineConfig(core.Options{
		Workers:            rideWorkers,
		CheckpointInterval: rideCkptEvery,
		CheckpointStore:    st.store,
		TraceSampleEvery:   traceEvery,
	})
	if err != nil {
		return nil, 0, err
	}
	if st.l != nil {
		cfg.Network = &tapNetwork{inner: cfg.Network, l: st.l}
	}
	eng, err := dsps.Start(topo, cfg)
	if err != nil {
		return nil, 0, err
	}
	if !st.waitDone(1, 30*time.Second) {
		eng.Stop()
		return nil, 0, fmt.Errorf("ride: probe request was not finalised within 30s")
	}
	return eng, time.Since(t0), nil
}

// rideResult is one ride-ckpt run's measurements. The measured window is
// cut into equal slices, one per second of run length; latency
// percentiles are medians over the usable slices.
type rideResult struct {
	st       *rideState
	setups   []float64
	failed   int64
	oracle   error
	tps      float64   // delivered tuples per second over the measured window
	p50, p90 []float64 // per usable slice, ms
	cpuPerTp float64   // CPU over the measured window per measured tuple, µs
	lag      []float64 // generator lateness of every measured tuple, ms
	tuples   float64   // measured tuples
	reg      regDelta
	wire     float64 // bytes handed to the transport over the measured window
	led      ledgerSnap
}

func runRide(in *rideInputs, l *ledger, traceEvery int64, probes bool) (*rideResult, error) {
	res := &rideResult{}
	if probes {
		var err error
		if res.setups, err = timeSetups(func() (*dsps.Engine, time.Duration, error) {
			return startRide(newRideState(in, nil, true), 0)
		}); err != nil {
			return nil, err
		}
	}
	st := newRideState(in, l, false)
	res.st = st
	eng, d, err := startRide(st, traceEvery)
	if err != nil {
		return nil, err
	}
	res.setups = append(res.setups, d.Seconds())

	t0 := st.now() + int64(time.Millisecond)
	st.t0.Store(t0)
	st.started.Store(true)
	openT0 := t0 + int64(warmSeconds*1e9)
	mark := func() (obs.Snapshot, transport.Snapshot, ledgerSnap) {
		return eng.Obs().Reg.Snapshot(), eng.TransportSnapshot(), l.snap()
	}
	windowNS := (int64(len(in.locDriver)) - in.warmLocs) * 1e9 / rideLocRate
	slice := windowNS / int64(in.slices)
	var reg0 obs.Snapshot
	var wire0 transport.Snapshot
	var led0 ledgerSnap
	steal := make([]int64, in.slices+1)
	var cpu0, cpu1 time.Duration
	for k := range steal {
		time.Sleep(time.Duration(openT0 + int64(k)*slice - st.now()))
		steal[k] = stealTicks()
		switch k {
		case 0:
			cpu0 = cpuTime()
			reg0, wire0, led0 = mark()
		case in.slices:
			cpu1 = cpuTime()
		}
	}
	st.waitDone(st.total(), 120*time.Second)
	end := st.now()
	reg1, wire1, led1 := mark()
	eng.Stop()

	// The measured window holds the tuples due at or after openT0.
	res.tuples = float64(st.total() - 1 - in.warmLocs - in.warmReqs)
	res.tps = res.tuples / (float64(end-openT0) / 1e9)
	res.reg = regDelta{reg0, reg1}
	res.wire = float64(wire1.BytesSent - wire0.BytesSent)
	res.led = led1.minus(led0)
	locs := pacer{rate: rideLocRate, t0: t0, first: 0}
	for i := in.warmLocs; i < int64(len(in.locDriver)); i++ {
		res.lag = append(res.lag, float64(st.locEmitNS[i]-locs.due(i))/1e6)
	}
	lat := make([][]float64, in.slices)
	reqs := pacer{rate: rideReqRate, t0: t0, first: 1}
	for i := 1 + in.warmReqs; i < int64(len(in.reqLat)); i++ {
		due := reqs.due(i)
		res.lag = append(res.lag, float64(st.reqEmitNS[i]-due)/1e6)
		if done := st.reqDoneNS[i].Load(); done != 0 {
			k := min(int((due-openT0)/slice), in.slices-1)
			lat[k] = append(lat[k], float64(done-due)/1e6)
		}
	}
	clean := make([]bool, in.slices)
	for k := range clean {
		clean[k] = undisturbed(steal[k+1]-steal[k], time.Duration(slice))
	}
	for _, k := range usable(clean) {
		res.p50 = append(res.p50, quantile(lat[k], 0.5))
		res.p90 = append(res.p90, quantile(lat[k], 0.9))
	}
	// Steal time is not charged to the process as CPU time, so CPU per
	// tuple is taken over the whole window.
	res.cpuPerTp = float64((cpu1 - cpu0).Microseconds()) / res.tuples
	fmt.Fprintf(os.Stderr, "livebench: %d/%d slices used (host steal)\n", len(usable(clean)), len(clean))
	res.failed, res.oracle = checkRide(in, st.record())
	return res, nil
}

// record collects what the operators observed for the oracle.
func (st *rideState) record() *rideRecord {
	r := &rideRecord{
		locExec: make([]int32, len(st.locExec)), locTask: make([]int8, len(st.locTask)),
		reports: make([]int32, len(st.reports)), finals: make([]int32, len(st.finals)),
		matched: st.matched.Load(), unmatched: st.unmatched.Load(),
		snapshots: st.store.committedEpochs(),
	}
	for i := range st.locExec {
		r.locExec[i] = st.locExec[i].Load()
		r.locTask[i] = int8(st.locTask[i].Load())
	}
	for i := range st.reports {
		r.reports[i] = st.reports[i].Load()
		r.finals[i] = st.finals[i].Load()
	}
	for _, c := range st.cands {
		r.cands = append(r.cands, c...)
	}
	return r
}

func (r *rideResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"sat_tps":              r.tps,
		"cpu_us_per_tuple":     r.cpuPerTp,
		"wire_bytes_per_tuple": r.wire / r.tuples,
		"setup_s":              median(r.setups),
	}
}

func (r *rideResult) layers() map[string]float64 {
	st, in := r.st, r.st.in
	var deliveries float64
	for i := in.warmLocs; i < int64(len(in.locDriver)); i++ {
		deliveries += float64(st.locExec[i].Load())
	}
	for i := 1 + in.warmReqs; i < int64(len(in.reqLat)); i++ {
		deliveries += float64(st.reports[i].Load())
	}
	m := commonLayers(r.reg, r.led, r.tuples)
	m["workload.gen_lag_ms"] = median(r.lag)
	m["dsps.deliveries_per_tuple"] = deliveries / r.tuples
	return m
}
