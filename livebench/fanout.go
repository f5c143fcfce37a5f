package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"whale/internal/core"
	"whale/internal/dsps"
	"whale/internal/obs"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// The fanout topology: one source all-grouped to fanSinks sink instances
// on fanWorkers workers, carrying payloadLen-byte payloads. Four workers
// keep the engine's goroutines within what a 2-core host schedules without
// the scheduler setting the numbers.
const (
	fanWorkers = 4
	fanSinks   = 16
	payloadLen = 64
	// warmSeconds of paced traffic precede every measured phase.
	warmSeconds = 0.5
	// setupRuns is how many times a run starts an engine to time set-up:
	// setupRuns-1 start-probe-stop cycles plus the measured engine itself.
	setupRuns = 5
)

// presetLoad is one preset's load on the fanout topology: the open-loop
// offered rate, and the saturation tuple count per second of run length.
// The offered rate is about a quarter of the preset's saturation
// throughput on a 2-core host, which keeps the open loop near a third of
// the host's CPU: at half the knee, latency swung with the host's load.
type presetLoad struct{ rate, satPerSec float64 }

var presetLoads = map[core.System]presetLoad{
	core.Storm:           {5000, 8000},
	core.RDMAStorm:       {5000, 8000},
	core.WhaleWOC:        {13000, 16000},
	core.WhaleWOCRDMA:    {20000, 24000},
	core.WhaleSequential: {20000, 24000},
	core.RDMC:            {20000, 24000},
	core.Whale:           {20000, 24000},
}

// roundsFor is how many times a run of the given length repeats its
// measured segments: one round per second. Latency percentiles are medians
// over the rounds, so one disturbed round (a GC cycle, a noisy neighbour)
// does not move them; throughput and CPU are totals over all rounds.
func roundsFor(seconds int) int { return max(3, seconds) }

// segment is a contiguous range of sequence numbers [first, until),
// either paced at the plan's rate (open loop) or emitted as fast as
// credits allow (saturation). The source waits until every sink has
// executed a segment before starting the next.
type segment struct {
	first, until int64
	paced        bool
}

// fanPlan fixes a run's work: sequence number 0 is the set-up probe, then
// a paced warm-up segment, the paced (open-loop) segments, and the
// saturation segments. Open-loop segments come first so that garbage and
// tree adaptation left by saturation bursts do not land in them.
type fanPlan struct {
	sys       core.System
	seed      int64
	rate      float64
	segs      []segment // segs[0] is the warm-up
	probeOnly bool      // set-up probe engines emit sequence number 0 only
}

func (p fanPlan) n() int64 { return p.segs[len(p.segs)-1].until }

// measured is the number of tuples in the measured segments.
func (p fanPlan) measured() int64 { return p.n() - p.segs[0].until }

func newFanPlan(sys core.System, seed int64, seconds int) fanPlan {
	ld := presetLoads[sys]
	rounds := roundsFor(seconds)
	open := int64(ld.rate * 0.5 * float64(seconds) / float64(rounds))
	sat := int64(ld.satPerSec * float64(seconds) / float64(rounds))
	return makeFanPlan(sys, seed, ld.rate, int64(ld.rate*warmSeconds), open, sat, rounds)
}

func makeFanPlan(sys core.System, seed int64, rate float64, warm, open, sat int64, rounds int) fanPlan {
	p := fanPlan{sys: sys, seed: seed, rate: rate}
	next := int64(1)
	add := func(n int64, paced bool) {
		p.segs = append(p.segs, segment{first: next, until: next + n, paced: paced})
		next += n
	}
	add(warm, true)
	for i := 0; i < rounds; i++ {
		add(open, true)
	}
	for i := 0; i < rounds; i++ {
		add(sat, false)
	}
	return p
}

// fillPayload writes the seed-derived payload of one sequence number.
func fillPayload(dst []byte, seed, seq int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(seq)
	for i := 0; i+8 <= len(dst); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// checksum is FNV-1a over b.
func checksum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func expectSum(seed, seq int64) uint64 {
	var buf [payloadLen]byte
	fillPayload(buf[:], seed, seq)
	return checksum(buf[:])
}

// fanRecord is what the sinks observed, kept for the oracle.
type fanRecord struct {
	n     int64
	seen  [][]uint64 // per sink instance: bitset of executed sequence numbers
	dup   []int64    // per sink instance: sequence numbers executed twice
	bad   []int64    // per sink instance: payloads failing the checksum
	stray []int64    // per sink instance: sequence numbers out of range
}

func newFanRecord(n int64, sinks int) *fanRecord {
	r := &fanRecord{n: n, seen: make([][]uint64, sinks),
		dup: make([]int64, sinks), bad: make([]int64, sinks), stray: make([]int64, sinks)}
	for i := range r.seen {
		r.seen[i] = make([]uint64, (n+63)/64)
	}
	return r
}

// segMark is what the source records around one segment.
type segMark struct {
	t0             int64         // start (since base); the first due time when paced
	cpu0, cpu1     time.Duration // process CPU at the start and once every sink executed the segment
	steal0, steal1 int64         // the VM's steal ticks at the same two points
	drained        int64         // when every sink had executed it
}

// fanState is shared by the benchmark, its source and its sinks during
// one engine's life.
type fanState struct {
	plan fanPlan
	l    *ledger
	rec  *fanRecord
	base time.Time

	count     []atomic.Int32 // sinks that executed each sequence number
	doneNS    []atomic.Int64 // when the last sink executed it (since base)
	completed atomic.Int64   // sequence numbers executed by every sink

	// Written by the source goroutine; read after finished is closed.
	emitNS   []int64
	marks    []segMark // per segment
	reg0     obs.Snapshot
	wire0    transport.Snapshot
	led0     ledgerSnap
	finished chan struct{}
	started  atomic.Bool
	eng      atomic.Pointer[dsps.Engine]
}

func newFanState(p fanPlan, l *ledger) *fanState {
	n := p.n()
	if p.probeOnly {
		n = 1
	}
	return &fanState{plan: p, l: l, rec: newFanRecord(n, fanSinks), base: time.Now(),
		count: make([]atomic.Int32, n), doneNS: make([]atomic.Int64, n),
		emitNS: make([]int64, n), marks: make([]segMark, len(p.segs)), finished: make(chan struct{})}
}

func (st *fanState) now() int64 { return time.Since(st.base).Nanoseconds() }

// waitCompleted polls until every sequence number below upto has reached
// every sink, giving up after timeout. It reports whether it got there.
func (st *fanState) waitCompleted(upto int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for st.completed.Load() < upto {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// mark records the registry, transport and ledger counters at a phase
// boundary. Called on the source goroutine with the pipeline drained.
func (st *fanState) mark() (obs.Snapshot, transport.Snapshot, ledgerSnap) {
	e := st.eng.Load()
	return e.Obs().Reg.Snapshot(), e.TransportSnapshot(), st.l.snap()
}

// pacer schedules sequence numbers [first, until) at a fixed rate from t0
// (nanoseconds since the run's base time): an open loop that does not slow
// down when the engine does.
type pacer struct {
	rate               float64
	t0                 int64
	first, next, until int64
}

func (p *pacer) start(t0, first, until int64) {
	p.t0, p.first, p.next, p.until = t0, first, first, until
}

// due is the scheduled emission time of a sequence number.
func (p *pacer) due(seq int64) int64 { return p.t0 + int64(float64(seq-p.first)*1e9/p.rate) }

// step emits every sequence number already due (at most 256, so the
// caller returns to the engine's spout loop regularly), or sleeps until
// the next is due, at most 1 ms. It reports whether the schedule is done.
func (p *pacer) step(now int64, emit func(seq int64)) bool {
	emitted := 0
	for p.next < p.until && p.due(p.next) <= now && emitted < 256 {
		emit(p.next)
		p.next++
		emitted++
	}
	if p.next >= p.until {
		return true
	}
	if emitted == 0 {
		time.Sleep(min(time.Duration(p.due(p.next)-now), time.Millisecond))
	}
	return false
}

// fanSource emits the plan. Next returns after at most one short sleep or
// one batch, so the engine's spout loop keeps servicing stop requests.
type fanSource struct {
	st     *fanState
	probed bool
	seg    int // current segment; -1 before the run starts
	pc     pacer
	next   int64 // next sequence number of a saturation segment
}

func (s *fanSource) Open(ctx *dsps.TaskContext) { s.st.l.markSource(ctx.Worker) }
func (s *fanSource) Close()                     {}

func (s *fanSource) emit(c *dsps.Collector, seq int64) {
	st := s.st
	p := make([]byte, payloadLen)
	fillPayload(p, st.plan.seed, seq)
	st.emitNS[seq] = st.now()
	if l := st.l; l != nil {
		sp := startSpan(&l.emit, nil)
		c.Emit(seq, p)
		sp.end()
		return
	}
	c.Emit(seq, p)
}

// begin starts segment i.
func (s *fanSource) begin(i int) {
	st := s.st
	s.seg = i
	if i == len(st.plan.segs) {
		close(st.finished)
		return
	}
	sg := st.plan.segs[i]
	st.marks[i].steal0 = stealTicks()
	st.marks[i].cpu0 = cpuTime()
	st.marks[i].t0 = st.now()
	s.pc = pacer{rate: st.plan.rate}
	s.pc.start(st.marks[i].t0, sg.first, sg.until)
	s.next = sg.first
}

// finish waits until every sink has executed segment i, records the
// segment's end, and after the warm-up takes the baseline counters.
func (s *fanSource) finish(i int) {
	st := s.st
	m := &st.marks[i]
	st.waitCompleted(st.plan.segs[i].until, 30*time.Second)
	m.drained = st.now()
	m.cpu1 = cpuTime()
	m.steal1 = stealTicks()
	if i == 0 {
		st.reg0, st.wire0, st.led0 = st.mark()
	}
}

func (s *fanSource) Next(c *dsps.Collector) bool {
	st := s.st
	switch {
	case !s.probed:
		s.emit(c, 0)
		s.probed, s.seg = true, -1
	case s.seg < 0:
		if st.plan.probeOnly || !st.started.Load() {
			time.Sleep(500 * time.Microsecond)
			return true
		}
		s.begin(0)
	case s.seg == len(st.plan.segs):
		time.Sleep(500 * time.Microsecond) // done; idle until the engine stops
	case st.plan.segs[s.seg].paced:
		if s.pc.step(st.now(), func(seq int64) { s.emit(c, seq) }) {
			s.finish(s.seg)
			s.begin(s.seg + 1)
		}
	default:
		until := st.plan.segs[s.seg].until
		for i := 0; i < 64 && s.next < until; i++ {
			s.emit(c, s.next)
			s.next++
		}
		if s.next >= until {
			s.finish(s.seg)
			s.begin(s.seg + 1)
		}
	}
	return true
}

// fanSink checks and records every delivery it executes.
type fanSink struct {
	st  *fanState
	idx int
}

func (k *fanSink) Prepare(ctx *dsps.TaskContext) { k.idx = ctx.TaskIndex }
func (k *fanSink) Cleanup()                      {}

func (k *fanSink) Execute(tp *tuple.Tuple, _ *dsps.Collector) {
	st := k.st
	if l := st.l; l != nil {
		sp := startSpan(&l.exec, nil)
		k.execute(tp)
		sp.end()
		return
	}
	k.execute(tp)
}

func (k *fanSink) execute(tp *tuple.Tuple) {
	st, r := k.st, k.st.rec
	seq := tp.Int(0)
	if seq < 0 || seq >= r.n {
		r.stray[k.idx]++
		return
	}
	w, bit := seq>>6, uint64(1)<<(uint64(seq)&63)
	if r.seen[k.idx][w]&bit != 0 {
		r.dup[k.idx]++
	}
	r.seen[k.idx][w] |= bit
	if checksum(tp.Bytes(1)) != expectSum(st.plan.seed, seq) {
		r.bad[k.idx]++
	}
	if st.count[seq].Add(1) == fanSinks {
		st.doneNS[seq].Store(st.now())
		st.completed.Add(1)
	}
}

// startFan builds the topology, starts the engine and waits until the
// probe tuple has reached every sink: that interval is the set-up time.
func startFan(st *fanState, traceEvery int64) (*dsps.Engine, time.Duration, error) {
	t0 := time.Now()
	b := dsps.NewTopologyBuilder()
	b.Spout("src", func() dsps.Spout { return &fanSource{st: st} }, 1)
	b.Bolt("sink", func() dsps.Bolt { return &fanSink{st: st} }, fanSinks).All("src")
	topo, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	cfg, err := st.plan.sys.EngineConfig(core.Options{Workers: fanWorkers, TraceSampleEvery: traceEvery})
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
	st.eng.Store(eng)
	if !st.waitCompleted(1, 30*time.Second) {
		eng.Stop()
		return nil, 0, fmt.Errorf("fanout: probe tuple did not reach every sink within 30s")
	}
	return eng, time.Since(t0), nil
}

// fanResult is one fanout run's measurements.
type fanResult struct {
	plan     fanPlan
	st       *fanState
	setups   []float64
	failed   int64
	oracle   error
	satTPS   float64   // saturation tuples over summed saturation-segment time
	p50, p90 []float64 // per usable open segment, ms
	cpuPerTp float64   // CPU over the open segments per tuple in them, µs
	lag      []float64 // generator lateness over every open segment, ms
	reg1     obs.Snapshot
	wire1    transport.Snapshot
	led1     ledgerSnap
}

// runFan runs one fanout plan on a fresh engine (after setupRuns-1 set-up
// probes when probes is true) and checks its outputs.
func runFan(p fanPlan, l *ledger, traceEvery int64, probes bool) (*fanResult, error) {
	res := &fanResult{plan: p}
	if probes {
		probe := p
		probe.probeOnly = true
		var err error
		if res.setups, err = timeSetups(func() (*dsps.Engine, time.Duration, error) {
			return startFan(newFanState(probe, nil), 0)
		}); err != nil {
			return nil, err
		}
	}
	st := newFanState(p, l)
	res.st = st
	eng, d, err := startFan(st, traceEvery)
	if err != nil {
		return nil, err
	}
	res.setups = append(res.setups, d.Seconds())
	st.started.Store(true)
	select {
	case <-st.finished:
	case <-time.After(120 * time.Second):
	}
	st.waitCompleted(p.n(), 30*time.Second)
	res.reg1, res.wire1, res.led1 = st.mark()
	eng.Stop()

	res.failed, res.oracle = checkFanout(st.rec)
	// Per-segment figures first; then totals and medians over the usable
	// rounds of each kind.
	type segFig struct {
		n, ns, p50, p90 float64
		cpu             time.Duration
	}
	var open, sat []segFig
	var openClean, satClean []bool
	for i, sg := range p.segs[1:] {
		m := st.marks[i+1]
		clean := undisturbed(m.steal1-m.steal0, time.Duration(m.drained-m.t0))
		fig := segFig{n: float64(sg.until - sg.first), cpu: m.cpu1 - m.cpu0}
		if !sg.paced {
			var last int64
			for seq := sg.first; seq < sg.until; seq++ {
				last = max(last, st.doneNS[seq].Load())
			}
			fig.ns = float64(last - m.t0)
			sat, satClean = append(sat, fig), append(satClean, clean)
			continue
		}
		sched := pacer{rate: p.rate, t0: m.t0, first: sg.first}
		var lat []float64
		for seq := sg.first; seq < sg.until; seq++ {
			due := sched.due(seq)
			res.lag = append(res.lag, float64(st.emitNS[seq]-due)/1e6)
			if done := st.doneNS[seq].Load(); done != 0 {
				lat = append(lat, float64(done-due)/1e6)
			}
		}
		fig.p50, fig.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
		open, openClean = append(open, fig), append(openClean, clean)
	}
	var satN, satNS, openN float64
	var openCPU time.Duration
	for _, i := range usable(satClean) {
		satN += sat[i].n
		satNS += sat[i].ns
	}
	for _, i := range usable(openClean) {
		res.p50 = append(res.p50, open[i].p50)
		res.p90 = append(res.p90, open[i].p90)
	}
	// Steal time is not charged to the process as CPU time, so CPU per
	// tuple is taken over every open round.
	for _, f := range open {
		openN += f.n
		openCPU += f.cpu
	}
	res.satTPS = ratio(satN, satNS/1e9)
	res.cpuPerTp = ratio(float64(openCPU.Microseconds()), openN)
	fmt.Fprintf(os.Stderr, "livebench: %d/%d open and %d/%d saturation rounds used (host steal)\n",
		len(usable(openClean)), len(open), len(usable(satClean)), len(sat))
	return res, nil
}

// endToEnd reports the run's user-visible metrics.
func (r *fanResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"sat_tps":              r.satTPS,
		"cpu_us_per_tuple":     r.cpuPerTp,
		"wire_bytes_per_tuple": float64(r.wire1.BytesSent-r.st.wire0.BytesSent) / float64(r.plan.measured()),
		"setup_s":              median(r.setups),
	}
}

// layers reports the traced run's per-layer metrics over the measured
// segments.
func (r *fanResult) layers() map[string]float64 {
	st, p := r.st, r.plan
	tuples := float64(p.measured())
	var deliveries float64
	for seq := p.segs[0].until; seq < p.n(); seq++ {
		deliveries += float64(st.count[seq].Load())
	}
	m := commonLayers(regDelta{st.reg0, r.reg1}, r.led1.minus(st.led0), tuples)
	m["workload.gen_lag_ms"] = median(r.lag)
	m["dsps.deliveries_per_tuple"] = deliveries / tuples
	return m
}
