package main

import (
	"sync"
	"sync/atomic"
	"time"

	"whale/internal/rdma"
	"whale/internal/snapshot"
	"whale/internal/transport"
	"whale/internal/tuple"
)

// The traced run times each layer from outside: it wraps the calls the
// engine makes into the network and the checkpoint store, and the calls
// the benchmark's own operators make into the engine (Collector.Emit) or
// receive from it (Execute, SnapshotState). Each wrapped call is a span;
// spans are aggregated in memory per boundary as they end.

// boundary aggregates the spans recorded at one layer boundary.
type boundary struct {
	calls   atomic.Int64
	ns      atomic.Int64 // summed span durations
	childNS atomic.Int64 // summed durations of child spans inside them
}

// selfNS is the boundary's total self time: span time not covered by the
// child spans recorded inside it.
func (b *boundary) selfNS() float64 { return float64(b.ns.Load() - b.childNS.Load()) }

// span is one open call at a boundary. A child span started on the same
// goroutine while the span is open reports its duration into it.
type span struct {
	b      *boundary
	start  time.Time
	parent *span
	child  int64
}

func startSpan(b *boundary, parent *span) span {
	return span{b: b, start: time.Now(), parent: parent}
}

func (s *span) end() {
	d := time.Since(s.start).Nanoseconds()
	s.b.calls.Add(1)
	s.b.ns.Add(d)
	s.b.childNS.Add(s.child)
	if s.parent != nil {
		s.parent.child += d
	}
}

// ledger is the traced run's per-layer record. A nil *ledger means the
// run is untraced: every hook is then skipped.
type ledger struct {
	emit, send, recv, exec, put, capture boundary

	dataSends atomic.Int64 // data-plane transport sends (control excluded)
	srcSends  atomic.Int64 // data sends by workers hosting a source task
	putBytes  atomic.Int64

	srcWorker [64]atomic.Bool // workers hosting a source task
}

// markSource records that worker w hosts a source task.
func (l *ledger) markSource(w int32) {
	if l != nil && w >= 0 && int(w) < len(l.srcWorker) {
		l.srcWorker[w].Store(true)
	}
}

// tapNetwork wraps the transport.Network handed to dsps.Config, timing
// every Send and every inbound handler invocation.
type tapNetwork struct {
	inner transport.Network
	l     *ledger
}

func (n *tapNetwork) Register(id transport.WorkerID, h transport.Handler) (transport.Transport, error) {
	l := n.l
	tr, err := n.inner.Register(id, func(from transport.WorkerID, payload []byte) {
		sp := startSpan(&l.recv, nil)
		h(from, payload)
		sp.end()
	})
	if err != nil {
		return nil, err
	}
	tt := &tapTransport{Transport: tr, id: id, l: l}
	// The engine reads RDMA channel counters through these optional
	// methods; forward them so wrapping does not hide the rdma.* series.
	if rs, ok := tr.(rdmaStats); ok {
		return &tapRDMATransport{tapTransport: tt, rs: rs}, nil
	}
	return tt, nil
}

func (n *tapNetwork) Close() error { return n.inner.Close() }

type tapTransport struct {
	transport.Transport
	id int32
	l  *ledger
}

func (t *tapTransport) Send(to transport.WorkerID, payload []byte) error {
	l := t.l
	if tuple.MessageKind(payload) != tuple.KindControl {
		l.dataSends.Add(1)
		if int(t.id) < len(l.srcWorker) && l.srcWorker[t.id].Load() {
			l.srcSends.Add(1)
		}
	}
	sp := startSpan(&l.send, nil)
	err := t.Transport.Send(to, payload)
	sp.end()
	return err
}

type rdmaStats interface {
	ChannelStats() rdma.StatsSnapshot
	RingOccupancy() int
}

type tapRDMATransport struct {
	*tapTransport
	rs rdmaStats
}

func (t *tapRDMATransport) ChannelStats() rdma.StatsSnapshot { return t.rs.ChannelStats() }
func (t *tapRDMATransport) RingOccupancy() int               { return t.rs.RingOccupancy() }

// tapStore wraps the checkpoint store. It keeps every committed epoch's
// entries for the snapshot-partition oracle and, in traced runs, times
// Put.
type tapStore struct {
	inner snapshot.Store
	l     *ledger

	mu        sync.Mutex
	pending   map[int64]map[string][]byte
	committed map[int64]map[string][]byte
}

func newTapStore(inner snapshot.Store, l *ledger) *tapStore {
	return &tapStore{inner: inner, l: l,
		pending: map[int64]map[string][]byte{}, committed: map[int64]map[string][]byte{}}
}

func (s *tapStore) Put(epoch int64, key string, data []byte) error {
	var err error
	if l := s.l; l != nil {
		sp := startSpan(&l.put, nil)
		err = s.inner.Put(epoch, key, data)
		sp.end()
		l.putBytes.Add(int64(len(data)))
	} else {
		err = s.inner.Put(epoch, key, data)
	}
	if err == nil {
		s.mu.Lock()
		if s.pending[epoch] == nil {
			s.pending[epoch] = map[string][]byte{}
		}
		s.pending[epoch][key] = data
		s.mu.Unlock()
	}
	return err
}

func (s *tapStore) Get(epoch int64, key string) ([]byte, bool, error) {
	return s.inner.Get(epoch, key)
}

func (s *tapStore) Commit(epoch int64) error {
	if err := s.inner.Commit(epoch); err != nil {
		return err
	}
	s.mu.Lock()
	s.committed[epoch] = s.pending[epoch]
	delete(s.pending, epoch)
	s.mu.Unlock()
	return nil
}

func (s *tapStore) Latest() (int64, bool, error) { return s.inner.Latest() }

func (s *tapStore) Discard(epoch int64) error {
	s.mu.Lock()
	delete(s.pending, epoch)
	s.mu.Unlock()
	return s.inner.Discard(epoch)
}

// committedEpochs returns the entries of every committed epoch.
func (s *tapStore) committedEpochs() map[int64]map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int64]map[string][]byte, len(s.committed))
	for e, m := range s.committed {
		out[e] = m
	}
	return out
}
