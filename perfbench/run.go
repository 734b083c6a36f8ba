package main

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"dproc/internal/core"
	"dproc/internal/kecho"
	"dproc/internal/metrics"
	"dproc/internal/wire"
)

// pubRec is what the generator knows about one published report.
type pubRec struct {
	due    int64 // scheduled due time (paced) or publish start (closed loop)
	start  int64 // when the generator began the poll
	pubEnd int64 // when Publish (or PollOnce) returned
	hash   uint64
	bytes  int32
}

// delivery is one run of the benchmark handler on a receiver: the report id,
// kecho's receive stamp, the handler time and the payload hash.
type delivery struct {
	origin int32
	seq    uint32
	recv   int64
	at     int64
	hash   uint64
}

// chunkLen sizes delivery-log chunks: appends never copy a grown log on
// the receive path, they allocate a fresh chunk every chunkLen deliveries.
const chunkLen = 4096

// dlog is one receiver's delivery log. Only that receiver's dispatch
// goroutine appends; the mutex orders the appends before the final read.
type dlog struct {
	mu     sync.Mutex
	chunks [][]delivery
}

func (l *dlog) add(d delivery) {
	l.mu.Lock()
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == chunkLen {
		l.chunks = append(l.chunks, make([]delivery, 0, chunkLen))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], d)
	l.mu.Unlock()
}

func (l *dlog) each(fn func(d *delivery)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// slotMask bounds the closed-loop in-flight table per origin; the window
// (64 reports cluster-wide) is far below it, so live slots never collide.
const slotMask = 1023

// inflightWindow is the closed-loop phase's cluster-wide bound on reports
// published but not yet held by every receiver.
const inflightWindow = 64

// bench is one run: the formed cluster, the generator's records, and the
// receivers' delivery logs.
type bench struct {
	w     workload
	f     *formed
	nodes []*core.Node
	mons  []*kecho.Channel
	names []string
	idx   map[string]int // read-only once handlers are subscribed
	base  time.Time
	hseed maphash.Seed

	// Owned by the generator goroutine; read after it has finished.
	pub     [][]pubRec
	lastVal [][metrics.NumIDs]float64
	hasVal  [][metrics.NumIDs]bool
	spans   []span
	tracing bool
	empty   int // polls that produced no report

	logs      []dlog
	delivered atomic.Int64

	// Closed-loop completion tracking, shared with the handlers.
	capStart  []atomic.Uint64
	slots     [][slotMask + 1]atomic.Int32
	completed atomic.Int64
	signal    chan struct{}

	// watermark is the Time (unix ns) of the newest report whose origin has
	// appended it to its own store: every report at or before it is
	// queryable on its owner.
	watermark atomic.Int64
	// probeMark, once set, is the watermark at the end of the paced phase:
	// the query probe's window ends there, so capacity-phase reports
	// published between probe slices never enter it and every probe query
	// scans the same history.
	probeMark int64
}

func newBench(w workload, f *formed) *bench {
	n := len(f.cluster.Nodes)
	b := &bench{
		w:        w,
		f:        f,
		nodes:    f.cluster.Nodes,
		idx:      make(map[string]int, n),
		hseed:    maphash.MakeSeed(),
		pub:      make([][]pubRec, n),
		lastVal:  make([][metrics.NumIDs]float64, n),
		hasVal:   make([][metrics.NumIDs]bool, n),
		logs:     make([]dlog, n),
		capStart: make([]atomic.Uint64, n),
		slots:    make([][slotMask + 1]atomic.Int32, n),
		signal:   make(chan struct{}, 1),
	}
	// Room for about 20 s of paced reports per origin before regrowing.
	perOrigin := int(w.rate*20)/n + 1024
	for i, node := range b.nodes {
		b.names = append(b.names, node.Name())
		b.idx[node.Name()] = i
		b.mons = append(b.mons, node.MonitoringChannel())
		b.pub[i] = make([]pubRec, 0, perOrigin)
		b.capStart[i].Store(^uint64(0))
	}
	b.base = time.Now()
	// Subscribed after d-mon's own handler (installed at node start), so
	// the benchmark handler runs once Store.Update has returned.
	for i, mon := range b.mons {
		mon.Subscribe(b.handler(i))
	}
	return b
}

// now is nanoseconds since the run's monotonic base.
func (b *bench) now() int64 { return int64(time.Since(b.base)) }

func (b *bench) handler(r int) kecho.Handler {
	return func(ev kecho.Event) {
		at := b.now()
		origin, ok := b.idx[ev.From]
		if !ok {
			origin = -1
		}
		dec := wire.NewDecoder(ev.Payload)
		_ = dec.StringBytes()
		seq := dec.Uint64()
		if dec.Err() != nil {
			seq = 0 // never published: flagged as corrupt by the check
		}
		b.logs[r].add(delivery{
			origin: int32(origin),
			seq:    uint32(seq),
			recv:   int64(ev.Recv.Sub(b.base)),
			at:     at,
			hash:   maphash.Bytes(b.hseed, ev.Payload),
		})
		b.delivered.Add(1)
		if ok && seq >= b.capStart[origin].Load() {
			if b.slots[origin][seq&slotMask].Add(-1) == 0 {
				b.completed.Add(1)
				select {
				case b.signal <- struct{}{}:
				default:
				}
			}
		}
	}
}

// publish runs one poll on node o and records the report it published.
func (b *bench) publish(o int, due int64) error {
	start := b.now()
	var rep *metrics.Report
	var payload []byte
	if b.tracing {
		rep, payload = b.pollTraced(o, start)
	} else {
		r, _, err := b.nodes[o].DMon().PollOnce()
		if err != nil {
			return fmt.Errorf("%s: poll: %w", b.names[o], err)
		}
		// Re-encoding is deterministic: these are the bytes PollOnce published.
		if rep = r; rep != nil {
			payload = rep.Encode()
		}
	}
	end := b.now()
	if rep == nil {
		b.empty++
		return nil
	}
	if want := uint64(len(b.pub[o])) + 1; rep.Seq != want {
		return fmt.Errorf("%s: report seq %d, want %d", b.names[o], rep.Seq, want)
	}
	if b.tracing {
		end = b.spans[len(b.spans)-1].end // the publish span's end
	}
	b.pub[o] = append(b.pub[o], pubRec{
		due: due, start: start, pubEnd: end,
		hash: maphash.Bytes(b.hseed, payload), bytes: int32(len(payload)),
	})
	for _, s := range rep.Samples {
		b.lastVal[o][s.ID] = s.Value
		b.hasVal[o][s.ID] = true
	}
	b.watermark.Store(rep.Time.UnixNano())
	return nil
}

// pollTraced is DMon.PollOnce with its public steps called one by one, each
// timed as a span of the report (origin, seq).
func (b *bench) pollTraced(o int, t0 int64) (*metrics.Report, []byte) {
	d := b.nodes[o].DMon()
	now := time.Now()
	samples := d.CollectDue(now)
	t1 := b.now()
	send := d.FilterSamples(now, samples)
	t2 := b.now()
	if len(send) == 0 {
		return nil, nil
	}
	rep := d.BuildReport(now, send)
	t3 := b.now()
	d.Store().Update(rep)
	t4 := b.now()
	payload := rep.Encode()
	t5 := b.now()
	_, _ = b.mons[o].Publish(payload, kecho.PublishOpts{})
	t6 := b.now()
	id := func(k spanKind, s, e int64) span {
		return span{kind: k, origin: int16(o), receiver: -1, seq: rep.Seq, start: s, end: e}
	}
	b.spans = append(b.spans,
		id(spPoll, t0, t6), id(spCollect, t0, t1), id(spFilter, t1, t2), id(spBuild, t2, t3),
		id(spStoreUpdate, t3, t4), id(spEncode, t4, t5), id(spPublish, t5, t6))
	return rep, payload
}

// sleepUntil sleeps until t (ns since base); it never spins. It calls
// nanosleep rather than time.Sleep: runtime timers fire from the network
// poller's wait, which rounds sub-millisecond timeouts up to a millisecond,
// and that made the generator ~0.5 ms late on every report at 2000/s.
func (b *bench) sleepUntil(t int64) {
	if d := t - b.now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// pollChannels runs the Polled receive path on every node.
func (b *bench) pollChannels() {
	for _, n := range b.nodes {
		n.DMon().PollChannels()
	}
}

// paced is the open-loop generator: report k is due at t0 + k/rate from
// node k mod n, and is published when due or, if the generator is behind,
// as soon as it gets to it — latency is always timed from the due time.
// onBoundary(i) runs before the first report due at or after bounds[i];
// generation stops at the last bound.
func (b *bench) paced(t0 int64, bounds []int64, onBoundary func(i int)) error {
	iv := float64(time.Second) / b.w.rate
	nextPoll := t0
	next := 0
	for k := 0; ; k++ {
		due := t0 + int64(float64(k)*iv)
		for b.w.pollEvery > 0 && nextPoll <= due {
			b.sleepUntil(nextPoll)
			b.pollChannels()
			for now := b.now(); nextPoll <= now; {
				nextPoll += int64(b.w.pollEvery)
			}
		}
		for next < len(bounds) && due >= bounds[next] {
			b.sleepUntil(bounds[next])
			onBoundary(next)
			next++
		}
		if next == len(bounds) {
			return nil
		}
		b.sleepUntil(due)
		if err := b.publish(k%len(b.nodes), due); err != nil {
			return err
		}
	}
}

// closedLoop publishes round-robin for the given duration while keeping at
// most inflightWindow reports in flight cluster-wide: the next report goes
// out when a receiver completes one. A report not complete after a second
// is given up on (it shows in the delivery check), so a lost record cannot
// shrink the window for the rest of the phase.
func (b *bench) closedLoop(dur time.Duration) error {
	recv := int32(len(b.nodes) - 1)
	for o := range b.nodes {
		b.capStart[o].Store(uint64(len(b.pub[o])) + 1)
	}
	type flight struct {
		o   int
		seq uint64
		t   int64
	}
	var fifo []flight
	var published, expired int64
	completed0 := b.completed.Load()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	end := b.now() + int64(dur)
	for k := 0; b.now() < end; k++ {
		for published-(b.completed.Load()-completed0)-expired >= inflightWindow {
			select {
			case <-b.signal:
			case <-tick.C:
				if b.w.pollEvery > 0 {
					b.pollChannels()
				}
				cutoff := b.now() - int64(time.Second)
				for len(fifo) > 0 && fifo[0].t < cutoff {
					slot := &b.slots[fifo[0].o][fifo[0].seq&slotMask]
					if v := slot.Load(); v > 0 && slot.CompareAndSwap(v, -1<<30) {
						expired++
					}
					fifo = fifo[1:]
				}
			}
		}
		if b.w.pollEvery > 0 && k%len(b.nodes) == 0 {
			b.pollChannels()
		}
		o := k % len(b.nodes)
		seq := uint64(len(b.pub[o])) + 1
		b.slots[o][seq&slotMask].Store(recv)
		t := b.now()
		if err := b.publish(o, t); err != nil {
			return err
		}
		if uint64(len(b.pub[o])) == seq {
			published++
			fifo = append(fifo, flight{o, seq, t})
		}
	}
	return nil
}

// expected is the number of deliveries every published report owes.
func (b *bench) expected() int64 {
	var n int64
	for _, p := range b.pub {
		n += int64(len(p))
	}
	return n * int64(len(b.nodes)-1)
}

// drain waits until every published report reached every receiver, or the
// timeout passes (a lost record shows in the delivery check).
func (b *bench) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for b.delivered.Load() < b.expected() && time.Now().Before(deadline) {
		if b.w.pollEvery > 0 {
			b.pollChannels()
		}
		time.Sleep(time.Millisecond)
	}
	if b.w.pollEvery > 0 {
		b.pollChannels()
	}
}

// snap is a process-wide counter snapshot at a phase boundary.
type snap struct {
	t          int64
	cpu        time.Duration
	ch         kecho.Stats // summed over the monitoring channels
	totalAlloc uint64
	numGC      uint32
	goroutines int
}

// snapshot reads the counters; full adds the runtime's memory statistics,
// whose read briefly stops the world.
func (b *bench) snapshot(full bool) snap {
	s := snap{t: b.now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, m := range b.mons {
		st := m.Stats()
		s.ch.EventsSent += st.EventsSent
		s.ch.EventsRecv += st.EventsRecv
		s.ch.BytesSent += st.BytesSent
		s.ch.Dropped += st.Dropped
		s.ch.DeadlineDrops += st.DeadlineDrops
		s.ch.QueueDrops += st.QueueDrops
		s.ch.BatchesSent += st.BatchesSent
		s.ch.Relayed += st.Relayed
		s.ch.RelayDups += st.RelayDups
	}
	if full {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.totalAlloc, s.numGC = ms.TotalAlloc, ms.NumGC
		s.goroutines = runtime.NumGoroutine()
	}
	return s
}

// liveHeap forces a GC and returns the live heap minus the benchmark's own
// bookkeeping (delivery logs, publish records, spans), in bytes.
func (b *bench) liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := uint64(cap(b.spans)) * uint64(unsafe.Sizeof(span{}))
	for i := range b.logs {
		b.logs[i].mu.Lock()
		own += uint64(len(b.logs[i].chunks)) * chunkLen * uint64(unsafe.Sizeof(delivery{}))
		b.logs[i].mu.Unlock()
	}
	for _, p := range b.pub {
		own += uint64(cap(p)) * uint64(unsafe.Sizeof(pubRec{}))
	}
	return float64(ms.HeapAlloc) - float64(own)
}
