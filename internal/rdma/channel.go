package rdma

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// rnrWait bounds internal completion waits.
const rnrWait = 10 * time.Second

// Mode selects the verbs used for a channel's data path. The paper (§4,
// Figs. 29-32) finds one-sided READ best for the multicast data path and
// uses two-sided SEND/RECV for control messages; all three are implemented
// so the Whale_DiffVerbs experiments can compare them.
type Mode int

const (
	// ModeOneSidedRead: the sender appends to its own ring region; the
	// receiver pulls with one-sided READ and pushes tail feedback with
	// one-sided WRITE. The sender's CPU never touches the transfer.
	ModeOneSidedRead Mode = iota
	// ModeTwoSided: classic SEND/RECV with pre-posted receive buffers.
	ModeTwoSided
	// ModeOneSidedWrite: the sender pushes into the receiver's ring region
	// with one-sided WRITE; the receiver consumes locally.
	ModeOneSidedWrite
)

func (m Mode) String() string {
	switch m {
	case ModeOneSidedRead:
		return "one-sided-read"
	case ModeTwoSided:
		return "two-sided"
	case ModeOneSidedWrite:
		return "one-sided-write"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// FlushReason labels what triggered a batch flush.
type FlushReason int

const (
	// FlushMMS: the pending batch reached the Max Memory Size.
	FlushMMS FlushReason = iota
	// FlushWTL: the Wait Time Limit timer fired first.
	FlushWTL
	// FlushExplicit: Flush or Close forced the batch out.
	FlushExplicit
)

func (r FlushReason) String() string {
	switch r {
	case FlushMMS:
		return "mms"
	case FlushWTL:
		return "wtl"
	case FlushExplicit:
		return "explicit"
	}
	return fmt.Sprintf("flush(%d)", int(r))
}

// ChannelConfig parameterises a Channel.
type ChannelConfig struct {
	// Mode selects the data-path verbs (default one-sided READ).
	Mode Mode
	// MMS is the Max Memory Size: a flush is triggered once the pending
	// batch reaches this size (paper §4; default 256 KiB, the paper's
	// chosen operating point from Fig. 11).
	MMS int
	// WTL is the Wait Time Limit: the oldest pending message waits at most
	// this long before the batch is flushed anyway (default 1 ms, the
	// paper's choice from Fig. 12).
	WTL time.Duration
	// RingSize is the ring region size (default 4 MiB).
	RingSize int
	// QPDepth bounds in-flight work requests (default 128).
	QPDepth int
	// PollInterval is the receiver's idle poll period (default 20 µs).
	PollInterval time.Duration
	// BlockTimeout bounds how long Send blocks on a full ring before
	// failing (default 10 s).
	BlockTimeout time.Duration
	// OnFlush, if set, is invoked after every batch flush with the trigger
	// and the batch size in bytes. Calls are serialised — one flush is in
	// flight at a time, in batch order — but no channel lock is held; the
	// callback must still be fast and must not call back into the channel
	// (a re-entrant flush would deadlock on the flush semaphore). The
	// observability layer uses it to count MMS vs WTL flushes and log
	// flush-reason transitions.
	OnFlush func(reason FlushReason, batchBytes int)
}

func (c ChannelConfig) withDefaults() ChannelConfig {
	if c.MMS <= 0 {
		c.MMS = 256 << 10
	}
	if c.WTL <= 0 {
		c.WTL = time.Millisecond
	}
	if c.RingSize <= 0 {
		c.RingSize = 4 << 20
	}
	if c.QPDepth <= 0 {
		c.QPDepth = 128
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 20 * time.Microsecond
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 10 * time.Second
	}
	return c
}

// ChannelStats counts a channel's activity (all fields atomic).
type ChannelStats struct {
	MsgsSent     atomic.Int64
	BytesSent    atomic.Int64
	WorkRequests atomic.Int64 // flushes that became ring appends / sends / writes
	SizeFlushes  atomic.Int64 // flushes triggered by MMS
	TimerFlushes atomic.Int64 // flushes triggered by WTL
	MsgsRecv     atomic.Int64
	BytesRecv    atomic.Int64
	BlockedNS    atomic.Int64 // time Send spent blocked on a full ring
	CQPollNS     atomic.Int64 // receiver time inside CQ/ring poll calls
	CQPolls      atomic.Int64 // receiver poll calls issued
	WRDepthSum   atomic.Int64 // work requests per pipelined flush, summed
	WRFlushes    atomic.Int64 // pipelined flushes (WRDepthSum / WRFlushes = mean depth)
}

// StatsSnapshot is a point-in-time copy of ChannelStats.
type StatsSnapshot struct {
	MsgsSent, BytesSent, WorkRequests int64
	SizeFlushes, TimerFlushes         int64
	MsgsRecv, BytesRecv, BlockedNS    int64
	CQPollNS, CQPolls                 int64
	WRDepthSum, WRFlushes             int64
}

// Add accumulates o into s field by field (aggregation across channels).
func (s *StatsSnapshot) Add(o StatsSnapshot) {
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.WorkRequests += o.WorkRequests
	s.SizeFlushes += o.SizeFlushes
	s.TimerFlushes += o.TimerFlushes
	s.MsgsRecv += o.MsgsRecv
	s.BytesRecv += o.BytesRecv
	s.BlockedNS += o.BlockedNS
	s.CQPollNS += o.CQPollNS
	s.CQPolls += o.CQPolls
	s.WRDepthSum += o.WRDepthSum
	s.WRFlushes += o.WRFlushes
}

// Channel is a unidirectional, reliable, ordered message channel between
// two devices, with Whale's stream slicing (MMS) and wait-time-limit (WTL)
// batching. The dialing side sends; the accepting side receives.
type Channel struct {
	cfg    ChannelConfig
	local  string
	remote string
	stats  ChannelStats

	// Sender state. mu guards the pending batch and the closed/error
	// latches and is never held across a blocking operation. flushSem
	// (cap 1) serialises flushers instead: the batch is detached under mu,
	// but the potentially long waits — full ring, exhausted send window —
	// happen with no mutex held, so waiting there is backpressure, not
	// lock contention.
	mu         sync.Mutex
	pending    []byte
	spare      []byte // recycled batch buffer (one-sided modes)
	batchOpen  time.Time
	timer      *time.Timer
	sendErr    error
	closed     bool
	flushSem   chan struct{} // cap 1: holder is the flushing goroutine
	ring       *Ring         // one-sided-read: local; one-sided-write: nil
	sqp        *QP           // sender QP (two-sided and one-sided-write)
	scq        *CQ
	inflight   chan struct{} // two-sided flow control
	remoteRing remoteWriterState

	// Receiver state.
	handler   atomic.Pointer[func(msg []byte)]
	rqp       *QP
	rcq       *CQ // receiver-owned CQ (send CQ for READ mode, recv CQ for two-sided)
	rring     *RemoteRing
	localRing *Ring // one-sided-write mode: receiver-owned ring
	slots     *MR   // two-sided receive slots
	slotSize  int
	nslots    int
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// remoteWriterState is the sender-side bookkeeping for one-sided-write
// mode: a cursor into the receiver's ring region. Only the flushing
// goroutine (serialised by flushSem) mutates it; head and tail are atomic
// so RingOccupancy can read the cursor without joining that serialisation.
type remoteWriterState struct {
	rkey     uint32
	dataSize int
	head     atomic.Uint64
	tail     atomic.Uint64 // cached; refreshed via one-sided READ when full
	stage    *MR           // 8-byte staging buffer for tail reads
	hdr      [4]byte       // frame-length scratch; valid per flush (flushSem serialises)
	headBuf  [8]byte       // head-publish scratch; valid per flush (flushSem serialises)
	wrs      []WR          // work-request scratch reused across flushes
}

// Stats returns a snapshot of the channel's counters.
func (c *Channel) Stats() StatsSnapshot {
	return StatsSnapshot{
		MsgsSent:     c.stats.MsgsSent.Load(),
		BytesSent:    c.stats.BytesSent.Load(),
		WorkRequests: c.stats.WorkRequests.Load(),
		SizeFlushes:  c.stats.SizeFlushes.Load(),
		TimerFlushes: c.stats.TimerFlushes.Load(),
		MsgsRecv:     c.stats.MsgsRecv.Load(),
		BytesRecv:    c.stats.BytesRecv.Load(),
		BlockedNS:    c.stats.BlockedNS.Load(),
		CQPollNS:     c.stats.CQPollNS.Load(),
		CQPolls:      c.stats.CQPolls.Load(),
		WRDepthSum:   c.stats.WRDepthSum.Load(),
		WRFlushes:    c.stats.WRFlushes.Load(),
	}
}

// RingOccupancy returns the bytes sitting in the channel's ring region
// (published by the sender, not yet consumed by the receiver), plus the
// pending unflushed batch. Zero for the two-sided mode, which has no ring.
func (c *Channel) RingOccupancy() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	occ := len(c.pending)
	switch {
	case c.ring != nil:
		occ += c.ring.Occupancy()
	case c.cfg.Mode == ModeOneSidedWrite:
		occ += int(c.remoteRing.head.Load() - c.remoteRing.tail.Load())
	}
	return occ
}

// PressurePct reports the channel's ring occupancy (pending batch plus
// published-but-unconsumed bytes) as a percentage of the ring size, clamped
// to [0, 100]. The engine's flow controller feeds it into the waterline
// state machine. Always 0 for the two-sided mode, which has no ring.
func (c *Channel) PressurePct() int {
	occ := c.RingOccupancy()
	if occ <= 0 {
		return 0
	}
	pct := occ * 100 / c.cfg.RingSize
	if pct > 100 {
		pct = 100
	}
	return pct
}

// SetHandler installs the receive callback. It must be set (by the accept
// hook) before the sender starts sending; messages arriving with no handler
// are dropped.
func (c *Channel) SetHandler(fn func(msg []byte)) { c.handler.Store(&fn) }

func (c *Channel) deliver(msg []byte) {
	c.stats.MsgsRecv.Add(1)
	c.stats.BytesRecv.Add(int64(len(msg)))
	if fn := c.handler.Load(); fn != nil {
		(*fn)(msg)
	}
}

// Send enqueues one message. The message is copied into the pending batch;
// the batch is flushed when it reaches MMS or when the WTL timer fires.
// Send blocks only when the ring (or send queue) is full — backpressure.
//
//whale:hotpath
func (c *Channel) Send(msg []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("rdma: channel %s->%s closed", c.local, c.remote)
	}
	if err := c.sendErr; err != nil {
		c.mu.Unlock()
		return err
	}
	if len(c.pending) == 0 {
		// Reuse the batch buffer recycled by the previous flush, if any.
		if c.spare != nil {
			c.pending, c.spare = c.spare, nil
		}
		// WTL accounting needs the batch-open timestamp; taken once per
		// batch, not per message.
		//lint:ignore hotalloc one time.Now per batch, required by WTL batching
		c.batchOpen = time.Now()
		c.armTimer()
	}
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(msg)))
	c.pending = append(c.pending, lb[:]...)
	c.pending = append(c.pending, msg...)
	c.stats.MsgsSent.Add(1)
	c.stats.BytesSent.Add(int64(len(msg)))
	full := len(c.pending) >= c.cfg.MMS
	c.mu.Unlock()
	if full {
		return c.flush(FlushMMS)
	}
	return nil
}

// Flush forces the pending batch out.
func (c *Channel) Flush() error {
	return c.flush(FlushExplicit)
}

func (c *Channel) armTimer() {
	if c.timer != nil {
		c.timer.Reset(c.cfg.WTL)
		return
	}
	c.timer = time.AfterFunc(c.cfg.WTL, func() {
		c.mu.Lock()
		stale := c.closed || len(c.pending) == 0
		c.mu.Unlock()
		if stale {
			return
		}
		// flush latches its error into sendErr; nobody consumes the timer's
		// return value.
		_ = c.flush(FlushWTL)
	})
}

// flush detaches the pending batch under mu and ships it as one work
// request with no mutex held. flushSem (capacity 1) serialises flushers,
// so a second flusher waits on a channel — backpressure — rather than
// holding mu across the ring-full and send-window waits. Returns the
// latched send error when there is nothing to flush.
func (c *Channel) flush(reason FlushReason) error {
	c.flushSem <- struct{}{}
	defer func() { <-c.flushSem }()
	c.mu.Lock()
	batch := c.pending
	c.pending = nil
	if c.timer != nil {
		c.timer.Stop()
	}
	err := c.sendErr
	c.mu.Unlock()
	if len(batch) == 0 || err != nil {
		return err
	}
	switch reason {
	case FlushMMS:
		c.stats.SizeFlushes.Add(1)
	case FlushWTL:
		c.stats.TimerFlushes.Add(1)
	}
	c.stats.WorkRequests.Add(1)
	if c.cfg.OnFlush != nil {
		c.cfg.OnFlush(reason, len(batch))
	}
	switch c.cfg.Mode {
	case ModeOneSidedRead:
		err = c.flushRing(batch)
	case ModeTwoSided:
		err = c.flushTwoSided(batch)
	case ModeOneSidedWrite:
		err = c.flushRemoteWrite(batch)
	}
	c.mu.Lock()
	if err != nil && c.sendErr == nil {
		c.sendErr = err
	}
	// The one-sided flushes complete synchronously (the batch is copied into
	// a memory region before they return), so the batch buffer can back the
	// next batch instead of being reallocated. Two-sided mode posts the batch
	// as an Inline work request that the RNIC engine consumes asynchronously:
	// ownership transfers with the WR and the buffer must not be reused.
	if err == nil && c.cfg.Mode != ModeTwoSided && c.spare == nil && cap(batch) <= 2*c.cfg.MMS {
		c.spare = batch[:0]
	}
	c.mu.Unlock()
	return err
}

// flushRing appends the batch to the local ring, blocking (bounded) on a
// full ring.
func (c *Channel) flushRing(batch []byte) error {
	deadline := time.Now().Add(c.cfg.BlockTimeout)
	for {
		err := c.ring.Append(batch)
		if err == nil {
			return nil
		}
		if err != ErrRingFull {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rdma: channel %s->%s blocked on full ring for %v", c.local, c.remote, c.cfg.BlockTimeout)
		}
		t0 := time.Now()
		time.Sleep(c.cfg.PollInterval)
		c.stats.BlockedNS.Add(time.Since(t0).Nanoseconds())
	}
}

// flushTwoSided posts the batch as one SEND, bounded by the in-flight
// window; completions are reaped by the sender's reaper goroutine.
func (c *Channel) flushTwoSided(batch []byte) error {
	deadline := time.Now().Add(c.cfg.BlockTimeout)
	for {
		select {
		case c.inflight <- struct{}{}:
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("rdma: channel %s->%s send window exhausted", c.local, c.remote)
		}
		err := c.sqp.PostSend(WR{Op: OpSend, Inline: batch})
		if err == nil {
			return nil
		}
		<-c.inflight
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(c.cfg.PollInterval)
	}
}

// flushRemoteWrite pushes the batch into the receiver's ring with one-sided
// WRITEs: data, then the head counter.
func (c *Channel) flushRemoteWrite(batch []byte) error {
	st := &c.remoteRing
	need := 4 + len(batch)
	if need > st.dataSize {
		return fmt.Errorf("rdma: batch of %d bytes exceeds remote ring size %d", len(batch), st.dataSize)
	}
	head := st.head.Load()
	deadline := time.Now().Add(c.cfg.BlockTimeout)
	for st.dataSize-int(head-st.tail.Load()) < need {
		// Refresh the cached tail with a one-sided READ.
		if err := c.syncOp(WR{Op: OpRead, Local: SGE{MR: st.stage, Offset: 0, Length: 8},
			Remote: RemoteAddr{RKey: st.rkey, Offset: ringTailOff}}); err != nil {
			return err
		}
		var tb [8]byte
		if err := st.stage.ReadAt(tb[:], 0); err != nil {
			return err
		}
		tail := binary.LittleEndian.Uint64(tb[:])
		st.tail.Store(tail)
		if st.dataSize-int(head-tail) >= need {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rdma: remote ring full for %v", c.cfg.BlockTimeout)
		}
		t0 := time.Now()
		time.Sleep(c.cfg.PollInterval)
		c.stats.BlockedNS.Add(time.Since(t0).Nanoseconds())
	}
	// Post the length header and the batch as separate pipelined WRITEs
	// instead of assembling an intermediate frame copy: pipelineOps reaps
	// every completion before returning, so the batch (and the header/head
	// scratch fields, reused across flushes under flushSem) stay valid for
	// the WRs' whole lifetime. RC executes work requests in order, so the
	// head can never be visible before the data.
	binary.LittleEndian.PutUint32(st.hdr[:], uint32(len(batch)))
	wrs := st.wrs[:0]
	off := int(head % uint64(st.dataSize))
	wrs, off = st.appendRingWrites(wrs, off, st.hdr[:])
	wrs, _ = st.appendRingWrites(wrs, off, batch)
	head += uint64(need)
	binary.LittleEndian.PutUint64(st.headBuf[:], head)
	st.head.Store(head)
	wrs = append(wrs, WR{Op: OpWrite, Inline: st.headBuf[:],
		Remote: RemoteAddr{RKey: st.rkey, Offset: ringHeadOff}})
	st.wrs = wrs[:0]
	return c.pipelineOps(wrs)
}

// appendRingWrites splits one logical write of p at ring offset off into the
// WRITE work requests needed to honor the ring wrap, returning the extended
// WR list and the offset after the write.
func (st *remoteWriterState) appendRingWrites(wrs []WR, off int, p []byte) ([]WR, int) {
	for len(p) > 0 {
		n := st.dataSize - off
		if n > len(p) {
			n = len(p)
		}
		wrs = append(wrs, WR{Op: OpWrite, Inline: p[:n],
			Remote: RemoteAddr{RKey: st.rkey, Offset: ringDataOff + off}})
		p = p[n:]
		off = (off + n) % st.dataSize
	}
	return wrs, off
}

// pipelineOps posts a sequence of work requests back to back and reaps all
// their completions, failing on the first error.
func (c *Channel) pipelineOps(wrs []WR) error {
	c.stats.WRDepthSum.Add(int64(len(wrs)))
	c.stats.WRFlushes.Add(1)
	posted := 0
	for _, wr := range wrs {
		if err := c.sqp.PostSend(wr); err != nil {
			// Reap what was posted before reporting.
			for i := 0; i < posted; i++ {
				c.scq.Wait(rnrWait)
			}
			return err
		}
		posted++
	}
	var firstErr error
	for i := 0; i < posted; i++ {
		wc, ok := c.scq.Wait(rnrWait)
		if !ok && firstErr == nil {
			firstErr = fmt.Errorf("rdma: WRITE completion timed out")
			continue
		}
		if ok && wc.Status != StatusOK && firstErr == nil {
			firstErr = fmt.Errorf("rdma: WRITE failed: %v (%v)", wc.Status, wc.Err)
		}
	}
	return firstErr
}

// syncOp posts one work request on the sender QP and waits for completion.
func (c *Channel) syncOp(wr WR) error {
	if err := c.sqp.PostSend(wr); err != nil {
		return err
	}
	wc, ok := c.scq.Wait(rnrWait)
	if !ok {
		return fmt.Errorf("rdma: %v completion timed out", wr.Op)
	}
	if wc.Status != StatusOK {
		return fmt.Errorf("rdma: %v failed: %v (%v)", wr.Op, wc.Status, wc.Err)
	}
	return nil
}

// Close flushes pending data and stops the channel's goroutines.
func (c *Channel) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		if c.timer != nil {
			c.timer.Stop()
		}
		hadPending := len(c.pending) > 0
		c.mu.Unlock()
		if hadPending {
			// Final flush: closed is already set, so no sender can reopen
			// the batch behind it.
			err = c.flush(FlushExplicit)
		}
		// Let the receiver drain what was just flushed.
		time.Sleep(2 * c.cfg.PollInterval)
		close(c.done)
		c.wg.Wait()
		if c.sqp != nil {
			c.sqp.Close()
		}
		if c.rqp != nil {
			c.rqp.Close()
		}
	})
	return err
}

// parseBatch splits a batch into messages and delivers each. Messages are
// delivered as sub-slices of batch rather than per-message copies: every
// receive loop hands parseBatch a freshly read buffer it never touches
// again, so ownership of the whole batch — and with it each aliased message
// — transfers to the handler (a retained message pins its batch until the
// handler drops it, which the GC handles).
func (c *Channel) parseBatch(batch []byte) error {
	off := 0
	for off < len(batch) {
		if off+4 > len(batch) {
			return fmt.Errorf("rdma: truncated batch header")
		}
		n := int(binary.LittleEndian.Uint32(batch[off:]))
		off += 4
		if off+n > len(batch) {
			return fmt.Errorf("rdma: truncated batch payload (%d > %d)", n, len(batch)-off)
		}
		c.deliver(batch[off : off+n : off+n])
		off += n
	}
	return nil
}

// recvLoopRead is the receiver goroutine for one-sided READ mode.
func (c *Channel) recvLoopRead() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		default:
		}
		var parseErr error
		t0 := time.Now()
		n, err := c.rring.Poll(c.rcq, func(frame []byte) {
			if e := c.parseBatch(frame); e != nil && parseErr == nil {
				parseErr = e
			}
		})
		c.stats.CQPollNS.Add(time.Since(t0).Nanoseconds())
		c.stats.CQPolls.Add(1)
		if err == nil {
			err = parseErr
		}
		if err != nil {
			select {
			case <-c.done:
				return
			default:
				// Transport-level failure: nothing to deliver to; stop.
				return
			}
		}
		if n == 0 {
			time.Sleep(c.cfg.PollInterval)
		}
	}
}

// recvLoopTwoSided reaps receive completions and reposts slots.
func (c *Channel) recvLoopTwoSided() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		default:
		}
		wc, ok := c.rcq.Wait(50 * time.Millisecond)
		if !ok {
			continue
		}
		if wc.Status != StatusOK {
			continue // flush on teardown
		}
		slot := int(wc.WRID)
		buf := make([]byte, wc.Bytes)
		if err := c.slots.ReadAt(buf, slot*c.slotSize); err != nil {
			return
		}
		// Repost the slot before parsing so the window never starves.
		if err := c.rqp.PostRecv(WR{WRID: uint64(slot), Op: OpRecv,
			Local: SGE{MR: c.slots, Offset: slot * c.slotSize, Length: c.slotSize}}); err != nil {
			return
		}
		if err := c.parseBatch(buf); err != nil {
			return
		}
	}
}

// recvLoopLocalRing consumes the receiver-owned ring (one-sided WRITE mode).
func (c *Channel) recvLoopLocalRing() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		default:
		}
		var parseErr error
		n, err := c.localRing.LocalConsume(func(frame []byte) {
			if e := c.parseBatch(frame); e != nil && parseErr == nil {
				parseErr = e
			}
		})
		if err == nil {
			err = parseErr
		}
		if err != nil {
			return
		}
		if n == 0 {
			time.Sleep(c.cfg.PollInterval)
		}
	}
}

// senderReaper drains the sender's CQ in two-sided mode, releasing the
// in-flight window and latching errors.
func (c *Channel) senderReaper() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		default:
		}
		wc, ok := c.scq.Wait(50 * time.Millisecond)
		if !ok {
			continue
		}
		<-c.inflight
		if wc.Status != StatusOK && wc.Status != StatusFlush {
			c.mu.Lock()
			if c.sendErr == nil {
				c.sendErr = fmt.Errorf("rdma: send failed: %v (%v)", wc.Status, wc.Err)
			}
			c.mu.Unlock()
		}
	}
}
