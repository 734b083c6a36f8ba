// Package kecho is the user-space reproduction of KECho, the kernel-level
// event channel infrastructure dproc is built on. It provides peer-to-peer
// publish/subscribe channels: every member runs a listener, members discover
// each other through the channel registry, and events are submitted directly
// from publisher to every subscriber with no central collection point — the
// property the paper contrasts with Supermon's central data concentrator.
//
// Delivery is poll-driven by default: received events queue in a bounded
// inbox and are dispatched to handlers when the owner calls Poll, matching
// d-mon's one-second polling of its listening sockets. Two alternatives
// exist: Immediate (handler runs on the receiving goroutine, for the
// poll-versus-immediate ablation) and EventDriven (handlers run on frame
// receipt on a dedicated per-channel dispatcher goroutine, serialized and
// backpressured — the latency-floor mode; see DESIGN.md §13).
//
// Publishing is asynchronous: Publish enqueues the event on each peer's
// bounded outbound queue and returns. A small fixed pool of reactor writer
// goroutines (Options.Writers) drains every outbox through a ready-ring —
// coalescing bursts into batch frames — so a stalled subscriber costs the
// publisher an enqueue (and eventually a counted queue-overflow drop)
// rather than a write deadline, and an idle peer costs zero goroutines. The
// read side has one receive path: on Linux every conn that exposes a file
// descriptor — plain TCP or a wrapped one such as faultnet's — is
// multiplexed onto one epoll reactor goroutine per channel, and only
// fd-less conns (other platforms, custom transports) get a chunk-reader
// goroutine; both feed the conn's wire.Parser through the same frame
// consumer. The channel is also self-healing:
// joins tolerate unreachable peers, writers bound frame writes with a
// deadline and drop peers that exceed it, and a per-channel reconnect
// supervisor heartbeats the registry and re-dials missing peers with
// exponential backoff and jitter, so the mesh converges again after peer
// crashes, partitions, or a registry restart without any manual
// RefreshPeers call.
//
// Channels are flat full meshes by default: every member connects to every
// other and a publish touches every peer directly. Options.Topology replaces
// that with a relay-tree overlay (internal/overlay): members connect only to
// their tree neighbors, publishes carry a hop-count trailer, and interior
// members re-publish received records down their subtrees — same delivery
// semantics (every member sees each record exactly once, enforced by a
// per-origin sequence dedup gate), but the publisher's cost is O(branching
// factor) instead of O(members). The supervisor doubles as the re-parenting
// mechanism: the tree is a pure function of the registry roster, so when a
// relay dies and its TTL expires, every survivor independently re-derives
// the same tree over the remaining members (DESIGN.md §14).
package kecho

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dproc/internal/clock"
	"dproc/internal/metrics"
	"dproc/internal/obs"
	"dproc/internal/overlay"
	"dproc/internal/registry"
	"dproc/internal/wire"
)

// Transport supplies the listen/dial primitives the channel uses, so tests
// can route peer traffic through a fault-injection layer (internal/faultnet).
type Transport interface {
	Listen(network, address string) (net.Listener, error)
	DialTimeout(network, address string, timeout time.Duration) (net.Conn, error)
}

// tcpTransport is the default plain-TCP transport.
type tcpTransport struct{}

func (tcpTransport) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

func (tcpTransport) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, address, timeout)
}

// Frame types on peer connections.
const (
	frameHello uint8 = iota + 1
	frameEvent
	// frameBatch carries several coalesced event records in one frame
	// (wire.EncodeBatch); receivers unpack it transparently, so batching is
	// invisible above the transport.
	frameBatch
)

// DispatchMode selects how received events reach handlers.
type DispatchMode int

const (
	// Polled queues events until Poll is called (the paper's d-mon model).
	Polled DispatchMode = iota
	// Immediate invokes handlers on the receiving goroutine.
	Immediate
	// EventDriven invokes handlers on frame receipt, on a dedicated
	// per-channel dispatcher goroutine. Unlike Immediate, dispatch is
	// serialized (one handler call at a time regardless of how many peer
	// connections feed the channel) and backpressured: a slow handler fills
	// the inbox, which blocks the receiving goroutine, which stops reading
	// from the socket — so pressure propagates to the publisher's outbox and
	// surfaces as publisher-side QueueDrops instead of silent local drops.
	EventDriven
)

// String names the mode as the -dispatch flag spells it.
func (m DispatchMode) String() string {
	switch m {
	case Polled:
		return "poll"
	case Immediate:
		return "immediate"
	case EventDriven:
		return "event"
	}
	return fmt.Sprintf("DispatchMode(%d)", int(m))
}

// ParseDispatchMode maps a -dispatch flag value to its mode.
func ParseDispatchMode(s string) (DispatchMode, error) {
	switch s {
	case "", "poll", "polled":
		return Polled, nil
	case "immediate":
		return Immediate, nil
	case "event", "event-driven", "eventdriven":
		return EventDriven, nil
	}
	return 0, fmt.Errorf("kecho: unknown dispatch mode %q (want poll, event, or immediate)", s)
}

// Event is one message delivered on a channel.
//
// Ownership: Payload is loaned to handlers for the duration of the handler
// call. In Polled mode it points into a pooled buffer the channel recycles
// as soon as every handler for the event has returned; in Immediate mode it
// aliases the connection's receive buffer, reused by the next frame. Either
// way, a handler that needs the bytes past its own return must copy them
// (CopyPayload); retaining Payload itself observes whatever event recycles
// the buffer next. See DESIGN.md §8.
type Event struct {
	// Channel is the channel name the event arrived on.
	Channel string
	// From is the member ID of the publisher.
	From string
	// Seq is the publisher's per-channel sequence number.
	Seq uint64
	// Payload is the opaque event body, valid only during handler dispatch.
	Payload []byte
	// Recv is the local receive time (on the channel clock).
	Recv time.Time
	// TraceID is non-zero when the publisher sampled this event for
	// tracing (see internal/obs); it rides a trailing wire-frame extension
	// and lets a subscriber continue the event's span chain.
	TraceID uint64

	// pooled marks Payload as drawn from the channel's recycled buffers;
	// Poll returns it to the freelist after the handlers run.
	pooled bool
}

// CopyPayload returns an independent copy of the event body, for handlers
// that need it beyond their own return.
func (ev Event) CopyPayload() []byte {
	out := make([]byte, len(ev.Payload))
	copy(out, ev.Payload)
	return out
}

// Handler consumes events; see Channel.Subscribe.
type Handler func(Event)

// Stats counts channel traffic; all fields are cumulative.
//
// BytesSent and BytesRecv both count event *payload* bytes — the opaque
// body handed to Publish — excluding the envelope (publisher ID, sequence
// number) and frame/batch framing, so a loopback pair's sent and received
// counters agree regardless of how the transport packs frames.
type Stats struct {
	// EventsSent counts events accepted into peer outboxes (one per peer
	// per Publish); enqueue-time accounting, so delivery failures after the
	// enqueue surface in QueueDrops and DeadlineDrops, not here.
	EventsSent uint64
	EventsRecv uint64
	BytesSent  uint64
	BytesRecv  uint64
	// Dropped counts events discarded because the inbox was full.
	Dropped uint64
	// JoinSkips counts registered peers that were unreachable at Join time
	// and left for the reconnect supervisor to retry.
	JoinSkips uint64
	// Redials counts peer dial attempts made by the reconnect supervisor.
	Redials uint64
	// Reconnects counts peer connections the supervisor re-established.
	Reconnects uint64
	// DeadlineDrops counts sends aborted because the peer did not accept the
	// frame within the write deadline (slow or wedged subscriber).
	DeadlineDrops uint64
	// QueueDrops counts events accepted (or offered) to a peer's outbound
	// queue that were discarded before a completed write: the queue was full
	// at Publish time, the event was still queued or mid-write when the peer
	// was torn down, or a single event exceeded the wire frame limit. It is
	// the publisher-side loss counter: EventsSent - QueueDrops bounds actual
	// frame deliveries.
	QueueDrops uint64
	// BatchesSent counts multi-event frames written: wake-ups where a writer
	// found more than one event queued and coalesced them into one frame.
	BatchesSent uint64
	// Relayed counts per-peer forwards of records received from other
	// members — the relay-tree re-publish work this member performed on
	// behalf of the overlay. Each forward is also counted in EventsSent.
	Relayed uint64
	// RelayDups counts received records suppressed by the relay dedup gate:
	// already-seen (or reordered past the per-origin high-water sequence)
	// copies arriving over redundant transient paths during re-parenting.
	// Suppressed records are neither delivered nor forwarded.
	RelayDups uint64
}

// Options tunes channel behaviour; the zero value gives a polled channel
// with the default inbox size and self-healing enabled.
type Options struct {
	// Dispatch selects polled (default) or immediate handler dispatch.
	Dispatch DispatchMode
	// InboxSize bounds the polled-event queue; 0 means 4096.
	InboxSize int
	// Transport provides listen/dial; nil uses plain TCP.
	Transport Transport
	// DialTimeout bounds each peer dial; 0 means 2s.
	DialTimeout time.Duration
	// WriteDeadline bounds each frame write to a peer, so one stalled peer
	// cannot head-of-line-block the fan-out; 0 means 5s, negative disables.
	WriteDeadline time.Duration
	// OutboxSize bounds each peer's outbound event queue, drained by that
	// peer's writer goroutine; 0 means 1024. A Publish to a peer whose queue
	// is full drops the event for that peer (counted in Stats.QueueDrops)
	// instead of blocking the publisher.
	OutboxSize int
	// MaxBatch caps how many queued events a writer coalesces into one batch
	// frame per wake-up; 0 means 64, 1 disables batching.
	MaxBatch int
	// Writers sizes the channel's reactor writer pool — the fixed set of
	// goroutines that drain every peer's outbox. 0 scales with GOMAXPROCS
	// (floor 2, cap 8); the floor keeps one stalled peer from blocking the
	// whole fan-out, since a peer occupies at most one writer at a time.
	Writers int
	// ReconnectInterval is the supervisor's base pace for heartbeating the
	// registry and re-dialing missing peers; 0 means 250ms.
	ReconnectInterval time.Duration
	// ReconnectMax caps the supervisor's exponential backoff; 0 means 5s.
	ReconnectMax time.Duration
	// DisableReconnect turns the supervisor off (no heartbeats, no healing).
	DisableReconnect bool
	// Clock drives supervisor timers; nil uses the real clock.
	Clock clock.Clock
	// Seed feeds the supervisor's backoff jitter; 0 derives one from the
	// member ID so distinct members desynchronize deterministically.
	Seed int64
	// Metrics is the unified registry the channel registers its counters
	// and peer gauge into at Join (subsystem "channel", label = channel
	// name); nil uses a private registry. Share one registry across a
	// node's channels so health and the exporters render everything in one
	// place.
	Metrics *metrics.Registry
	// Observer collects the channel's latency histograms (queue residency,
	// batch size, propagation delay, dispatch time) and per-event trace
	// spans; nil disables observation — the data plane then pays a single
	// branch per stage.
	Observer *obs.Observer
	// Topology selects which registered members this channel connects to
	// and whether received records are re-published down the overlay
	// (internal/overlay). Nil is the flat full mesh: connect to everyone,
	// forward nothing — the behaviour of every release before the overlay,
	// with zero cost on the data plane.
	Topology overlay.Topology
	// Role is the overlay role advertised to the registry on join and on
	// every heartbeat ("" = leaf, overlay.RoleRelay = interior-capable).
	// Purely advisory for topologies that ignore roles.
	Role string
}

// DefaultOptions returns the channel defaults as an explicit Options value
// — the single source core.Defaults and the dprocd flag bindings build on,
// so the knob defaults exist in exactly one place.
func DefaultOptions() Options {
	return Options{
		InboxSize:         defaultInboxSize,
		OutboxSize:        defaultOutboxSize,
		MaxBatch:          defaultMaxBatch,
		DialTimeout:       defaultDialTimeout,
		WriteDeadline:     defaultWriteDeadline,
		ReconnectInterval: defaultReconnectInterval,
		ReconnectMax:      defaultReconnectMax,
	}
}

// Option defaults; see Options.
const (
	defaultInboxSize         = 4096
	defaultOutboxSize        = 1024
	defaultMaxBatch          = 64
	defaultDialTimeout       = 2 * time.Second
	defaultWriteDeadline     = 5 * time.Second
	defaultReconnectInterval = 250 * time.Millisecond
	defaultReconnectMax      = 5 * time.Second
)

// defaultWriters resolves Options.Writers == 0: scale with the machine but
// never below two — the fairness bound "one stalled peer delays the rest by
// at most one write deadline" needs a second writer to keep draining — and
// never above eight, past which contention on the ready ring buys nothing.
func defaultWriters() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if w > 8 {
		w = 8
	}
	return w
}

// Channel is one member's handle on a named event channel.
type Channel struct {
	name      string
	id        string
	reg       *registry.Client
	ln        net.Listener
	opts      Options
	transport Transport
	clk       clock.Clock

	// Resolved option values (defaults applied).
	dialTimeout   time.Duration
	writeDeadline time.Duration
	outboxSize    int
	maxBatch      int
	writers       int

	// ring schedules peers with non-empty outboxes onto the reactor writer
	// pool; see writer.go for the queue-ownership protocol.
	ring *readyRing
	// rr multiplexes the read side of every fd-backed conn onto one epoll
	// goroutine (Linux); nil means every conn gets a fallback reader.
	rr *readReactor
	// fallbackReaders counts live per-conn chunk-reader goroutines — conns
	// the read reactor could not adopt (no file descriptor, or not Linux).
	// On Linux the fault suite and the goroutine census assert it stays 0.
	fallbackReaders atomic.Int32

	// topo, maxHops and role configure the overlay (Options.Topology /
	// Options.Role); topo == nil is the flat mesh and every relay branch on
	// the data plane is skipped.
	topo    overlay.Topology
	maxHops int
	role    string

	// relayMu guards the relay dedup table. Only channels with a topology
	// touch it, and only for records that carry a hop trailer.
	relayMu   sync.Mutex
	relaySeen map[string]*relayOrigin

	mu       sync.Mutex
	peers    map[string]*peer
	handlers []Handler
	closed   bool
	// hellos holds accepted conns whose hello frame is still awaited, so
	// Close can cut their handshakes short.
	hellos map[net.Conn]struct{}

	inbox chan Event
	seq   atomic.Uint64
	stop  chan struct{}

	// payloadFree recycles inbox payload buffers: receiveEvent copies a
	// polled event's body into a buffer popped from here, and Poll pushes it
	// back after the handlers run. LIFO so the hot path stays cache-warm and
	// buffer reuse is deterministic (the ownership tests rely on that).
	payloadFree struct {
		sync.Mutex
		bufs [][]byte
	}

	// Traffic counters live in the unified metric registry (Options.Metrics
	// or a private one), registered once at Join under subsystem "channel";
	// the channel holds the atomic cells and increments them directly, so
	// the hot path is untouched while health and the exporters read the
	// same numbers.
	eventsSent    *atomic.Uint64
	eventsRecv    *atomic.Uint64
	bytesSent     *atomic.Uint64
	bytesRecv     *atomic.Uint64
	dropped       *atomic.Uint64
	joinSkips     *atomic.Uint64
	redials       *atomic.Uint64
	reconnects    *atomic.Uint64
	deadlineDrops *atomic.Uint64
	queueDrops    *atomic.Uint64
	batchesSent   *atomic.Uint64
	relayed       *atomic.Uint64
	relayDups     *atomic.Uint64

	// obs collects latency histograms and trace spans; nil disables
	// observation (Options.Observer).
	obs *obs.Observer

	wg sync.WaitGroup
}

// outRecord is one encoded event record (publisher ID, seq, payload). It is
// encoded once per Publish and shared by every peer outbox — the fan-out
// enqueues the same record N times instead of copying it N times. refs
// counts the holders (each enqueued outbox plus the submitting goroutine);
// the last release returns the buffer to the pool, so the steady-state
// publish path allocates nothing.
type outRecord struct {
	buf  []byte
	refs atomic.Int32
	// traceID and enq carry the observability stamps through the outbox:
	// enq is set (on the channel clock) whenever an observer is attached,
	// so every written record yields a queue-residency sample; traceID is
	// non-zero only for sampled events. Read-only once enqueued.
	traceID uint64
	enq     time.Time
}

// relayOrigin is the relay dedup state for one record origin: the interned
// origin ID (so relayed events carry it without a per-event allocation) and
// the highest sequence number admitted from it. Sequence numbers from one
// origin arrive in order along any single overlay path, so a monotonic
// high-water mark suppresses every duplicate a redundant transient path can
// produce; a straggler reordered below the mark is suppressed too (counted
// in RelayDups) rather than delivered twice.
type relayOrigin struct {
	id   string
	last uint64
}

var outRecordPool = sync.Pool{New: func() any { return new(outRecord) }}

// maxPooledRecord caps the buffer capacity a recycled record may retain, so
// one oversized event cannot pin megabytes in the pool.
const maxPooledRecord = 64 << 10

// newOutRecord returns a pooled record with an empty buffer and one
// reference (the caller's).
func newOutRecord() *outRecord {
	r := outRecordPool.Get().(*outRecord)
	r.buf = r.buf[:0]
	r.refs.Store(1)
	r.traceID = 0
	r.enq = time.Time{}
	return r
}

// release drops one reference; the last one recycles the record. The buffer
// must not be touched after the caller's release.
func (r *outRecord) release() {
	if r.refs.Add(-1) == 0 {
		if cap(r.buf) > maxPooledRecord {
			r.buf = nil
		}
		outRecordPool.Put(r)
	}
}

type peer struct {
	id   string
	conn net.Conn
	wmu  sync.Mutex
	// outbox queues encoded event records for the peer's writer goroutine;
	// Publish enqueues without blocking and never closes it. Records are
	// refcounted: the writer releases its reference once the record is
	// written or deliberately dropped.
	outbox chan *outRecord
	// dead is closed exactly once when the peer is torn down, waking an
	// idle writer so it can exit.
	dead     chan struct{}
	downOnce sync.Once
	// pending counts events accepted for this peer (enqueued on outbox or
	// held by a writer) whose write has neither completed nor been
	// abandoned; Close's graceful drain waits for it to reach zero.
	pending atomic.Int64
	// scheduled is the queue-ownership token: true while the peer is on the
	// ready ring or being serviced by a writer (at most one of either, so
	// per-peer write order is total). A dead peer's token is held forever.
	// See writer.go.
	scheduled atomic.Bool
	// carry holds a record that would have overflowed the previous batch
	// frame; it opens the next batch. Owned by whoever holds scheduled.
	carry *outRecord
	// rfd is the conn's file descriptor while registered with the read
	// reactor (written once at registration, before any concurrent reader).
	rfd int
	// parser reassembles frames from the conn's received chunks; owned by
	// the conn's single reader (the reactor or its fallback goroutine).
	parser wire.Parser
}

// close tears the peer down: closes the connection and wakes the writer.
// Safe to call from any goroutine, any number of times.
func (p *peer) close() {
	p.downOnce.Do(func() {
		close(p.dead)
		p.conn.Close()
	})
}

// send writes one frame to the peer, bounded by deadline (<= 0 disables).
func (p *peer) send(typ uint8, payload []byte, deadline time.Duration) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if deadline > 0 {
		_ = p.conn.SetWriteDeadline(time.Now().Add(deadline))
		defer p.conn.SetWriteDeadline(time.Time{})
	}
	return wire.WriteFrame(p.conn, typ, payload)
}

// ErrOutboxFull reports an enqueue that found the peer's bounded outbound
// queue full — transient backpressure from a slow-but-alive subscriber,
// distinct from a missing peer or a closed channel. Callers that fan out
// per-peer (e.g. a streaming server) should treat it as a skipped event,
// not a dead peer.
var ErrOutboxFull = errors.New("kecho: peer outbox full")

// isTimeout reports whether err is a deadline expiry rather than a dead
// connection.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Join creates this member's endpoint for the named channel, registers with
// the registry, and connects to every existing member. memberID must be
// unique within the channel (dproc uses the node name).
//
// The join is tolerant of unreachable peers: a registered member that cannot
// be dialed is skipped (counted in Stats.JoinSkips) and retried by the
// reconnect supervisor, rather than aborting the whole join — on a cluster
// with a crashed node, the survivors must still be able to join.
func Join(reg *registry.Client, channelName, memberID string, opts *Options) (*Channel, error) {
	if opts == nil {
		opts = &Options{}
	}
	inboxSize := opts.InboxSize
	if inboxSize == 0 {
		inboxSize = defaultInboxSize
	}
	transport := opts.Transport
	if transport == nil {
		transport = tcpTransport{}
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	ln, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("kecho: listen: %w", err)
	}
	c := &Channel{
		name:          channelName,
		id:            memberID,
		reg:           reg,
		ln:            ln,
		opts:          *opts,
		transport:     transport,
		clk:           clk,
		dialTimeout:   opts.DialTimeout,
		writeDeadline: opts.WriteDeadline,
		peers:         make(map[string]*peer),
		hellos:        make(map[net.Conn]struct{}),
		inbox:         make(chan Event, inboxSize),
		stop:          make(chan struct{}),
	}
	if c.dialTimeout == 0 {
		c.dialTimeout = defaultDialTimeout
	}
	if c.writeDeadline == 0 {
		c.writeDeadline = defaultWriteDeadline
	}
	c.outboxSize = opts.OutboxSize
	if c.outboxSize <= 0 {
		c.outboxSize = defaultOutboxSize
	}
	c.maxBatch = opts.MaxBatch
	if c.maxBatch <= 0 {
		c.maxBatch = defaultMaxBatch
	}
	c.writers = opts.Writers
	if c.writers <= 0 {
		c.writers = defaultWriters()
	}
	c.ring = newReadyRing()
	c.obs = opts.Observer
	c.topo = opts.Topology
	c.role = opts.Role
	if c.topo != nil {
		c.maxHops = c.topo.MaxHops()
		c.relaySeen = make(map[string]*relayOrigin)
	}
	c.registerMetrics(opts.Metrics)
	peers, err := reg.JoinAs(channelName, memberID, ln.Addr().String(), c.role)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if c.topo != nil {
		// The join response excludes this member; the topology needs the
		// full roster (including self) to place everyone in the overlay.
		roster := append(peers, registry.Member{ID: memberID, Addr: ln.Addr().String(), Role: c.role})
		peers = c.topo.Neighbors(memberID, roster)
	}
	// The machinery must be running before the first peer attaches: the
	// read reactor adopts conns as dialPeer/acceptLoop add them, and the
	// writer pool drains outboxes the moment a producer schedules a peer.
	c.rr = startReadReactor(c)
	for i := 0; i < c.writers; i++ {
		c.wg.Add(1)
		go c.writerLoop()
	}
	if opts.Dispatch == EventDriven {
		c.wg.Add(1)
		go c.dispatchLoop()
	}
	for _, m := range peers {
		if err := c.dialPeer(m); err != nil {
			c.joinSkips.Add(1)
			continue
		}
	}
	c.wg.Add(1)
	go c.acceptLoop()
	if !opts.DisableReconnect {
		c.wg.Add(1)
		go c.supervise()
	}
	return c, nil
}

// registerMetrics obtains the channel's counter cells from the unified
// registry (a private one when mreg is nil), labelled with the channel
// name. Registration order fixes the health-file line order.
func (c *Channel) registerMetrics(mreg *metrics.Registry) {
	if mreg == nil {
		mreg = metrics.NewRegistry()
	}
	mreg.Gauge("channel", c.name, "peers", func() uint64 {
		c.mu.Lock()
		n := len(c.peers)
		c.mu.Unlock()
		return uint64(n)
	})
	c.eventsSent = mreg.Counter("channel", c.name, "events_sent")
	c.eventsRecv = mreg.Counter("channel", c.name, "events_recv")
	c.bytesSent = mreg.Counter("channel", c.name, "bytes_sent")
	c.bytesRecv = mreg.Counter("channel", c.name, "bytes_recv")
	c.dropped = mreg.Counter("channel", c.name, "dropped")
	c.joinSkips = mreg.Counter("channel", c.name, "join_skips")
	c.redials = mreg.Counter("channel", c.name, "redials")
	c.reconnects = mreg.Counter("channel", c.name, "reconnects")
	c.deadlineDrops = mreg.Counter("channel", c.name, "deadline_drops")
	c.queueDrops = mreg.Counter("channel", c.name, "queue_drops")
	c.batchesSent = mreg.Counter("channel", c.name, "batches_sent")
	c.relayed = mreg.Counter("channel", c.name, "relayed")
	c.relayDups = mreg.Counter("channel", c.name, "relay_dups")
}

// Name returns the channel name.
func (c *Channel) Name() string { return c.name }

// MemberID returns this member's ID.
func (c *Channel) MemberID() string { return c.id }

// Addr returns the listener address other members dial.
func (c *Channel) Addr() string { return c.ln.Addr().String() }

// Peers returns the IDs of currently connected peers, sorted.
func (c *Channel) Peers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.peers))
	for id := range c.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Subscribe registers a handler for incoming events. Handlers run on the
// Poll caller's goroutine (Polled mode) or the receiver goroutine
// (Immediate mode).
func (c *Channel) Subscribe(h Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Copy-on-write: the slice is never appended to in place, so dispatch
	// can iterate a snapshot without copying (or allocating) per event.
	next := make([]Handler, len(c.handlers)+1)
	copy(next, c.handlers)
	next[len(c.handlers)] = h
	c.handlers = next
}

// Stats returns a snapshot of traffic counters.
func (c *Channel) Stats() Stats {
	return Stats{
		EventsSent:    c.eventsSent.Load(),
		EventsRecv:    c.eventsRecv.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesRecv:     c.bytesRecv.Load(),
		Dropped:       c.dropped.Load(),
		JoinSkips:     c.joinSkips.Load(),
		Redials:       c.redials.Load(),
		Reconnects:    c.reconnects.Load(),
		DeadlineDrops: c.deadlineDrops.Load(),
		QueueDrops:    c.queueDrops.Load(),
		BatchesSent:   c.batchesSent.Load(),
		Relayed:       c.relayed.Load(),
		RelayDups:     c.relayDups.Load(),
	}
}

// newPeer wraps conn as a peer with an empty outbound queue.
func (c *Channel) newPeer(id string, conn net.Conn) *peer {
	return &peer{
		id:     id,
		conn:   conn,
		outbox: make(chan *outRecord, c.outboxSize),
		dead:   make(chan struct{}),
	}
}

// getPayloadBuf pops a recycled payload buffer with capacity for n bytes, or
// allocates one. The buffer comes back via putPayloadBuf after dispatch.
func (c *Channel) getPayloadBuf(n int) []byte {
	c.payloadFree.Lock()
	for len(c.payloadFree.bufs) > 0 {
		last := len(c.payloadFree.bufs) - 1
		buf := c.payloadFree.bufs[last]
		c.payloadFree.bufs = c.payloadFree.bufs[:last]
		if cap(buf) >= n {
			c.payloadFree.Unlock()
			return buf[:0]
		}
		// Too small for this event; drop it rather than shuffling — the
		// freelist re-grows at the new high-water size.
	}
	c.payloadFree.Unlock()
	return make([]byte, 0, n)
}

// putPayloadBuf recycles an inbox payload buffer once its event has been
// dispatched. The freelist is bounded by the inbox size (there can never be
// more loaned buffers than queued events) and refuses oversized buffers.
func (c *Channel) putPayloadBuf(buf []byte) {
	if cap(buf) == 0 || cap(buf) > maxPooledRecord {
		return
	}
	c.payloadFree.Lock()
	if len(c.payloadFree.bufs) < cap(c.inbox) {
		c.payloadFree.bufs = append(c.payloadFree.bufs, buf)
	}
	c.payloadFree.Unlock()
}

func (c *Channel) dialPeer(m registry.Member) error {
	conn, err := c.transport.DialTimeout("tcp", m.Addr, c.dialTimeout)
	if err != nil {
		return err
	}
	p := c.newPeer(m.ID, conn)
	hello := wire.NewEncoder(64)
	hello.String(c.name)
	hello.String(c.id)
	if err := p.send(frameHello, hello.Bytes(), c.writeDeadline); err != nil {
		conn.Close()
		return err
	}
	c.addPeer(p)
	return nil
}

// addPeer registers p and starts its read side, replacing (and closing) any
// previous connection with the same peer ID. The write side needs no
// per-peer start: the shared writer pool services p once a producer
// schedules it.
func (c *Channel) addPeer(p *peer) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		p.close()
		return
	}
	old, hadOld := c.peers[p.id]
	if hadOld {
		old.close()
	}
	c.peers[p.id] = p
	c.mu.Unlock()
	if hadOld && c.rr != nil {
		// Unregister the replaced conn promptly; its fd is closed and may be
		// reused by the very conn being added.
		c.rr.forget(old)
	}
	c.startReader(p)
}

// startReader hands p's conn to the read reactor, or falls back to a
// dedicated chunk reader when the reactor cannot adopt it (no file
// descriptor, or no reactor on this platform).
func (c *Channel) startReader(p *peer) {
	if c.rr != nil && c.rr.register(p) {
		return
	}
	c.fallbackReaders.Add(1)
	c.wg.Add(1)
	go func() {
		defer c.fallbackReaders.Add(-1)
		c.readLoop(p)
	}()
}

// dropRecord discards one event that was accepted for peer p but will never
// be written, keeping the drop counter, the peer's pending count, and the
// record's refcount in step.
func (c *Channel) dropRecord(p *peer, rec *outRecord) {
	c.queueDrops.Add(1)
	p.pending.Add(-1)
	rec.release()
}

func (c *Channel) removePeer(p *peer) {
	c.mu.Lock()
	if cur, ok := c.peers[p.id]; ok && cur == p {
		delete(c.peers, p.id)
	}
	c.mu.Unlock()
	p.close()
	if c.rr != nil {
		c.rr.forget(p)
	}
	// Account everything still queued as dropped. The scheduled token
	// arbitrates: if a writer holds it, that writer's own exit path drains;
	// otherwise this CAS adopts the peer (permanently — the token is never
	// released, so the dead peer cannot re-enter the ring). Producers cannot
	// enqueue anymore: the map delete above and every enqueue serialize on
	// c.mu.
	if p.scheduled.CompareAndSwap(false, true) {
		c.drainDeadPeer(p)
	}
}

// acceptLoop hands every accepted conn to its own handshake goroutine, so
// a dialer that never sends its hello cannot hold up later accepts.
func (c *Channel) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.handshake(conn)
	}
}

// handshake reads the hello frame that identifies the dialing member,
// bounded by the dial timeout (Close cuts it short), and adds the member as
// a peer.
func (c *Channel) handshake(conn net.Conn) {
	defer c.wg.Done()
	c.mu.Lock()
	if c.closed || conn.SetReadDeadline(time.Now().Add(c.dialTimeout)) != nil {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.hellos[conn] = struct{}{}
	c.mu.Unlock()
	typ, payload, err := wire.ReadFrame(conn)
	c.mu.Lock()
	delete(c.hellos, conn)
	c.mu.Unlock()
	if err != nil || typ != frameHello || conn.SetReadDeadline(time.Time{}) != nil {
		conn.Close()
		return
	}
	d := wire.NewDecoder(payload)
	chName := d.String()
	peerID := d.String()
	if d.Finish() != nil || chName != c.name || peerID == "" {
		conn.Close()
		return
	}
	c.addPeer(c.newPeer(peerID, conn))
}

// readBufSize sizes the receive buffer a reader fills per read: the
// reactor's shared buffer and each fallback reader's own. Frames larger
// than a read reassemble in the conn's parser.
const readBufSize = 64 << 10

// readLoop is the fallback reader for conns the read reactor cannot adopt:
// it reads peer p's connection in chunks into one reused buffer and hands
// each chunk to consume, exactly as the reactor does.
func (c *Channel) readLoop(p *peer) {
	defer c.wg.Done()
	defer c.removePeer(p)
	buf := make([]byte, readBufSize)
	var batch [][]byte
	for {
		n, err := p.conn.Read(buf)
		var perr error
		if batch, perr = c.consume(p, buf[:n], batch); perr != nil || err != nil {
			return
		}
	}
}

// consume feeds one received chunk through p's frame parser and delivers
// every frame it completes. It is the one frame-consuming step of both read
// paths (the reactor's service loop and the fallback readLoop); a non-nil
// error is a protocol violation, after which the caller tears the peer
// down. batch is the caller's decode scratch, returned for reuse.
func (c *Channel) consume(p *peer, data []byte, batch [][]byte) ([][]byte, error) {
	for len(data) > 0 {
		n, typ, payload, ok, err := p.parser.Next(data)
		if err != nil {
			return batch, err
		}
		data = data[n:]
		if ok {
			batch = c.handleFrame(p, typ, payload, batch)
		}
	}
	return batch, nil
}

// handleFrame delivers one received frame: a single event directly, a batch
// frame unpacked transparently — consumers see the same event stream whether
// or not the sender's writer coalesced. The decoded records are subslices of
// payload; they are consumed (dispatched or copied into pooled inbox
// buffers) before the caller reuses its receive buffer. batch is the
// caller's decode scratch, returned (possibly grown) for reuse.
func (c *Channel) handleFrame(p *peer, typ uint8, payload []byte, batch [][]byte) [][]byte {
	switch typ {
	case frameEvent:
		c.receiveEvent(p, payload)
	case frameBatch:
		dec, derr := wire.DecodeBatchInto(batch[:0], payload)
		if derr != nil {
			return batch
		}
		for _, rec := range dec {
			c.receiveEvent(p, rec)
		}
		return dec
	}
	return batch
}

// internFrom returns the publisher ID for a decoded from field without
// allocating in the common case. Events arrive one hop from their publisher,
// so the sender ID almost always equals the peer's ID; fall back to a fresh
// string for relayed or test-injected traffic.
func (c *Channel) internFrom(p *peer, from []byte) string {
	if string(from) == p.id { // compiles to an alloc-free comparison
		return p.id
	}
	return string(from)
}

// receiveEvent decodes one event record and delivers it (inbox or immediate
// dispatch, per the channel's mode). record aliases the connection's receive
// buffer: immediate dispatch hands the view straight to handlers (valid for
// the handler call only), while polled delivery copies the body into a
// recycled buffer that Poll returns to the freelist after dispatch.
func (c *Channel) receiveEvent(p *peer, record []byte) {
	recv := c.clk.Now()
	d := wire.NewDecoder(record)
	from := d.StringBytes()
	seq := d.Uint64()
	body := d.BytesFieldView()
	// A relayed record carries the hop trailer, a sampled one the trace
	// trailer (hop first — the relay fast path rewrites the hop byte at a
	// fixed offset from the end); for everything else this is a single
	// length check per extension. Both must be consumed before Finish,
	// which still rejects any other trailing bytes.
	var hops uint8
	var hopped, traced bool
	var tid uint64
	var sendNs int64
	if d.Remaining() > 0 {
		hops, hopped = d.HopExt()
		tid, sendNs, traced = d.TraceExt()
	}
	if d.Finish() != nil {
		return
	}
	fromID := ""
	if c.topo != nil && hopped {
		// Overlay traffic: suppress records that looped back to their
		// origin and duplicates arriving over redundant transient paths,
		// then re-publish what remains down the subtree. Suppression must
		// precede delivery and the receive counters — the overlay's
		// contract is each record delivered at most once per member.
		if string(from) == c.id {
			return
		}
		origin, admit := c.relayAdmit(from, seq)
		if !admit {
			c.relayDups.Add(1)
			return
		}
		fromID = origin
		if int(hops)+1 <= c.maxHops {
			c.relayForward(p, origin, record, hops, traced, len(body), tid)
		}
	}
	c.eventsRecv.Add(1)
	c.bytesRecv.Add(uint64(len(body)))
	if tid != 0 {
		// Cross-node propagation delay: publisher send stamp → local
		// receive, both on internal/clock time. Skew clamps to zero in the
		// observer. The decode span closes here — decode work is behind us.
		delay := time.Duration(recv.UnixNano() - sendNs)
		c.obs.ObservePropagation(delay, tid)
		if hopped {
			c.obs.ObservePropagationDepth(int(hops), delay)
		}
		c.obs.ObserveDecode(c.clk.Now().Sub(recv), tid)
	}
	if fromID == "" {
		fromID = c.internFrom(p, from)
	}
	ev := Event{
		Channel: c.name,
		From:    fromID,
		Seq:     seq,
		Payload: body,
		Recv:    recv,
		TraceID: tid,
	}
	if c.opts.Dispatch == Immediate {
		c.dispatch(ev)
		return
	}
	buf := c.getPayloadBuf(len(body))
	ev.Payload = append(buf, body...)
	ev.pooled = true
	if c.opts.Dispatch == EventDriven {
		// Queued-not-dropped: when the dispatcher falls behind, block the
		// receiving goroutine. That stops socket reads, fills the kernel
		// buffers, stalls the publisher's writer, and backs its outbox up
		// into QueueDrops — backpressure instead of local loss.
		select {
		case c.inbox <- ev:
		case <-c.stop:
			c.dropped.Add(1)
			c.putPayloadBuf(ev.Payload)
		}
		return
	}
	select {
	case c.inbox <- ev:
	default:
		c.dropped.Add(1)
		c.putPayloadBuf(ev.Payload)
	}
}

// relayAdmit is the overlay dedup gate: it interns the record's origin ID
// and admits the record only if its sequence number advances that origin's
// high-water mark. The common case — known origin, fresh sequence — costs
// one alloc-free map lookup and a pointer store under relayMu.
func (c *Channel) relayAdmit(from []byte, seq uint64) (origin string, admit bool) {
	c.relayMu.Lock()
	o, ok := c.relaySeen[string(from)] // compiles to an alloc-free lookup
	if !ok {
		o = &relayOrigin{id: string(from)}
		c.relaySeen[o.id] = o
	}
	// Publisher sequence numbers start at 1, so the zero-valued mark admits
	// the first record from a new origin.
	admit = seq > o.last
	if admit {
		o.last = seq
	}
	c.relayMu.Unlock()
	return o.id, admit
}

// relayForward re-publishes a received record down the overlay: every
// current peer except the one it arrived from and its origin gets the same
// pooled copy with the hop count incremented in place. On a converged relay
// tree the peer set is exactly parent+children, so this floods the record
// to the rest of the tree with no routing state; the hop bound and the
// dedup gate make transient non-tree peerings (mid-re-parenting) safe. Like
// Publish, the re-fan-out is encode-free and enqueue-only: one buffer copy,
// shared by reference across the outboxes, with overflow counted in
// QueueDrops.
func (c *Channel) relayForward(src *peer, origin string, record []byte, hops uint8, traced bool, bodyLen int, tid uint64) {
	rec := newOutRecord()
	rec.buf = append(rec.buf, record...)
	pos := len(rec.buf) - 1
	if traced {
		pos -= wire.TraceExtSize
	}
	rec.buf[pos] = hops + 1
	if c.obs != nil {
		rec.enq = c.clk.Now()
		rec.traceID = tid
	}
	sent := 0
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		rec.release()
		return
	}
	for id, p := range c.peers {
		if p == src || id == origin {
			continue
		}
		p.pending.Add(1)
		rec.refs.Add(1)
		select {
		case p.outbox <- rec:
			sent++
			c.schedule(p)
		default:
			p.pending.Add(-1)
			rec.refs.Add(-1)
			c.queueDrops.Add(1)
		}
	}
	c.mu.Unlock()
	c.eventsSent.Add(uint64(sent))
	c.relayed.Add(uint64(sent))
	c.bytesSent.Add(uint64(sent * bodyLen))
	rec.release()
}

// observeWritten records outbox residency for every record in a just-written
// frame plus the frame's batch size. It must run before the records are
// released: release can hand a record back to the pool, where a concurrent
// Publish would reset enq and traceID under us.
func (c *Channel) observeWritten(batch []*outRecord) {
	if c.obs == nil {
		return
	}
	now := c.clk.Now()
	for _, rec := range batch {
		if !rec.enq.IsZero() {
			c.obs.ObserveQueue(now.Sub(rec.enq), rec.traceID)
		}
	}
	c.obs.ObserveBatch(len(batch))
}

func (c *Channel) dispatch(ev Event) {
	// Subscribe builds a fresh slice on every registration, so the snapshot
	// taken here stays immutable after the lock is released — no per-event
	// copy needed on the hot path.
	c.mu.Lock()
	handlers := c.handlers
	c.mu.Unlock()
	if c.obs != nil && ev.TraceID != 0 {
		start := c.clk.Now()
		for _, h := range handlers {
			h(ev)
		}
		c.obs.ObserveDispatch(c.clk.Now().Sub(start), ev.TraceID)
		return
	}
	for _, h := range handlers {
		h(ev)
	}
}

// Poll dispatches the events queued at the moment of the call to the
// subscribed handlers, returning the number processed. The drain is bounded
// by a snapshot of the queue length, so a producer that keeps pace with the
// consumer cannot live-lock the caller's poll tick: events arriving during
// the drain wait for the next Poll. It mirrors d-mon's per-second socket
// poll; meaningful only in Polled mode. In EventDriven mode the dispatcher
// goroutine owns the inbox and Poll reports zero — callers may keep a poll
// tick running unchanged when they flip modes.
func (c *Channel) Poll() int {
	if c.opts.Dispatch == EventDriven {
		return 0
	}
	n := 0
	for max := len(c.inbox); n < max; {
		select {
		case ev := <-c.inbox:
			c.dispatch(ev)
			if ev.pooled {
				// Every handler has returned; the loaned buffer goes back to
				// the freelist for the next received event.
				c.putPayloadBuf(ev.Payload)
			}
			n++
		default:
			return n
		}
	}
	return n
}

// Pending reports how many events are queued awaiting Poll (or, in
// EventDriven mode, awaiting the dispatcher).
func (c *Channel) Pending() int { return len(c.inbox) }

// dispatchLoop is the EventDriven dispatcher: one goroutine per channel
// drains the inbox and runs the handlers, so dispatch is serialized by
// construction no matter how many peer connections feed the channel. On
// Close it finishes whatever is already queued, then exits.
func (c *Channel) dispatchLoop() {
	defer c.wg.Done()
	for {
		select {
		case ev := <-c.inbox:
			c.dispatch(ev)
			if ev.pooled {
				c.putPayloadBuf(ev.Payload)
			}
		case <-c.stop:
			for {
				select {
				case ev := <-c.inbox:
					c.dispatch(ev)
					if ev.pooled {
						c.putPayloadBuf(ev.Payload)
					}
				default:
					return
				}
			}
		}
	}
}

// encodeRecord encodes payload as one event record (publisher ID, sequence
// number, body) into a pooled record holding a single reference — the
// caller's. The wire layout matches Encoder.String + Encoder.Uint64 +
// Encoder.BytesField, decoded by receiveEvent. On an overlay channel every
// record carries the hop trailer (hops = 0: fresh from its publisher) so
// relays can rewrite the count in place; a sampled event (tid != 0)
// additionally carries the trace trailer, after the hop trailer, so
// subscribers can measure cross-node propagation against the send stamp.
func (c *Channel) encodeRecord(payload []byte, tid uint64, broadcast bool) *outRecord {
	rec := newOutRecord()
	rec.buf = wire.AppendString(rec.buf, c.id)
	rec.buf = binary.BigEndian.AppendUint64(rec.buf, c.seq.Add(1))
	rec.buf = wire.AppendBytesField(rec.buf, payload)
	// Only broadcast records on an overlay channel carry the hop trailer —
	// it is what marks a record as relayable. Targeted SubmitTo records stay
	// trailer-free so receivers deliver them point-to-point and never
	// re-publish them down the tree.
	if c.topo != nil && broadcast {
		rec.buf = wire.AppendHopExt(rec.buf, 0)
	}
	if c.obs != nil {
		rec.enq = c.clk.Now()
		if tid != 0 {
			rec.traceID = tid
			rec.buf = wire.AppendTraceExt(rec.buf, tid, rec.enq.UnixNano())
		}
	}
	return rec
}

// PublishOpts carries the per-publish options of Publish. The zero value is
// the common case: an untraced event, sampled at publish time when an
// observer is attached.
type PublishOpts struct {
	// TraceID attributes the event to an existing trace span chain (0 with
	// Traced unset means "decide here by sampling").
	TraceID uint64
	// Traced marks the trace decision as already made — set it to publish
	// with an explicit TraceID, including an explicit 0 for "this event was
	// considered and not sampled" (d-mon decides at sample time). When
	// unset and TraceID is 0, Publish samples via the channel's observer.
	Traced bool
}

// Publish publishes payload to every connected peer and returns how many
// peers accepted it into their outbound queue. Publish never writes to the
// network itself: it enqueues the encoded event on each peer's bounded
// outbox and returns, so a stalled subscriber costs the publisher one
// enqueue — never a write deadline. The reactor writer pool drains the
// queues (coalescing bursts into batch frames) and drops peers whose writes
// fail or time out (the reconnect supervisor re-dials them if they come
// back). A peer whose outbox is full misses this event, counted in
// Stats.QueueDrops.
//
// On an overlay channel (Options.Topology) the connected peers are this
// member's tree neighbors and the record carries a hop trailer; interior
// members re-publish it down their subtrees, so delivery semantics —
// every live member sees the event once — match the flat mesh while the
// publisher's cost stays O(branching factor). All stamping (hop count,
// trace trailer) flows through this one entry point.
func (c *Channel) Publish(payload []byte, opts PublishOpts) (int, error) {
	tid := opts.TraceID
	if !opts.Traced && tid == 0 {
		tid = c.obs.SampleTrace()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errors.New("kecho: channel closed")
	}
	// Encode once; every outbox shares the same record. The enqueue loop runs
	// under c.mu (it never blocks — the selects have defaults), which also
	// spares the per-publish peers-slice copy.
	rec := c.encodeRecord(payload, tid, true)
	sent := 0
	for _, p := range c.peers {
		// Count the event pending before the enqueue so the graceful drain
		// in Close can never observe it queued but uncounted. The reference
		// is taken before the enqueue for the same reason: the writer may
		// pull the record off the outbox immediately.
		p.pending.Add(1)
		rec.refs.Add(1)
		select {
		case p.outbox <- rec:
			sent++
			c.schedule(p)
		default:
			p.pending.Add(-1)
			rec.refs.Add(-1) // cannot hit zero: the submitter's ref is live
			c.queueDrops.Add(1)
		}
	}
	c.mu.Unlock()
	c.eventsSent.Add(uint64(sent))
	c.bytesSent.Add(uint64(sent * len(payload)))
	rec.release()
	return sent, nil
}

// SubmitTo publishes payload to a single peer, used for targeted control
// messages (e.g. deploying a filter on one node). Like Publish it only
// enqueues; an overflowing outbox drops the event and returns an error
// wrapping ErrOutboxFull, so callers can tell transient backpressure (skip
// and retry later) from a peer that is not connected at all.
func (c *Channel) SubmitTo(peerID string, payload []byte) error {
	// The enqueue runs under c.mu like Publish's: removePeer's adopt-and-drain
	// relies on every producer serializing against the map delete, so a
	// record can never land on an outbox after the dead peer was drained.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("kecho: channel closed")
	}
	p, ok := c.peers[peerID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("kecho: no peer %q on channel %q", peerID, c.name)
	}
	rec := c.encodeRecord(payload, 0, false)
	p.pending.Add(1)
	select {
	case p.outbox <- rec: // the caller's sole reference transfers to the outbox
		c.schedule(p)
	default:
		p.pending.Add(-1)
		c.queueDrops.Add(1)
		rec.release()
		c.mu.Unlock()
		return fmt.Errorf("%w: peer %q on channel %q", ErrOutboxFull, peerID, c.name)
	}
	c.mu.Unlock()
	c.eventsSent.Add(1)
	c.bytesSent.Add(uint64(len(payload)))
	return nil
}

// RefreshPeers re-queries the registry and dials any registered member this
// channel is not currently connected to, healing the mesh after peer
// failures or restarts. It returns how many new peers were dialed.
func (c *Channel) RefreshPeers() (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errors.New("kecho: channel closed")
	}
	c.mu.Unlock()
	members, err := c.reg.Lookup(c.name)
	if err != nil {
		return 0, err
	}
	if c.topo != nil {
		members = c.topo.Neighbors(c.id, members)
	}
	dialed := 0
	var lastErr error
	for _, m := range members {
		if m.ID == c.id {
			continue
		}
		c.mu.Lock()
		_, have := c.peers[m.ID]
		c.mu.Unlock()
		if have {
			continue
		}
		if err := c.dialPeer(m); err != nil {
			lastErr = err
			continue
		}
		dialed++
	}
	return dialed, lastErr
}

// DesiredPeers reports, from the registry's current roster, the sorted IDs
// of the members this channel should be connected to: every other member on
// a flat channel, or the topology's neighbor set on an overlay channel. It
// is the target set WaitForPeers converges toward.
func (c *Channel) DesiredPeers() ([]string, error) {
	members, err := c.reg.Lookup(c.name)
	if err != nil {
		return nil, err
	}
	if c.topo != nil {
		members = c.topo.Neighbors(c.id, members)
	}
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m.ID == c.id {
			continue
		}
		out = append(out, m.ID)
	}
	sort.Strings(out)
	return out, nil
}

// --- reconnect supervisor ---

// sleepInterruptible waits for d on the channel clock, returning false if
// the channel is closed first.
func (c *Channel) sleepInterruptible(d time.Duration) bool {
	fired := make(chan struct{})
	t := c.clk.AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return true
	case <-c.stop:
		t.Stop()
		return false
	}
}

// supervise is the self-healing loop: every interval it heartbeats the
// registry (keeping this member alive and transparently re-registering
// after a registry restart) and re-dials any registered member it is not
// connected to. Failures back the loop off exponentially with jitter; a
// clean round resets it to the base interval.
func (c *Channel) supervise() {
	defer c.wg.Done()
	base := c.opts.ReconnectInterval
	if base <= 0 {
		base = defaultReconnectInterval
	}
	max := c.opts.ReconnectMax
	if max <= 0 {
		max = defaultReconnectMax
	}
	if max < base {
		max = base
	}
	seed := c.opts.Seed
	if seed == 0 {
		for _, b := range []byte(c.name + "/" + c.id) {
			seed = seed*131 + int64(b)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	backoff := base
	for {
		// Jitter desynchronizes members so a recovering registry or peer is
		// not hit by the whole cluster in the same instant.
		d := backoff + time.Duration(rng.Int63n(int64(backoff)/4+1))
		if !c.sleepInterruptible(d) {
			return
		}
		if c.superviseOnce() {
			backoff = base
		} else if backoff *= 2; backoff > max {
			backoff = max
		}
	}
}

// superviseOnce performs one heartbeat + heal round, reporting whether it
// completed without errors. On an overlay channel the round is also the
// re-parenting mechanism: the desired neighbor set is re-derived from the
// current roster, missing neighbors are dialed, and connected members that
// are no longer neighbors are pruned — so when the registry's TTL ages out
// a dead relay, every survivor converges on the tree over the remaining
// members within a supervisor round of the expiry.
func (c *Channel) superviseOnce() bool {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return true
	}
	healthy := true
	if _, err := c.reg.HeartbeatAs(c.name, c.id, c.ln.Addr().String(), c.role); err != nil {
		healthy = false
	}
	members, err := c.reg.Lookup(c.name)
	if err != nil {
		return false
	}
	if c.topo != nil {
		// Lookup includes this member (it joined and heartbeats), so the
		// roster is complete; Neighbors never returns self.
		members = c.topo.Neighbors(c.id, members)
	}
	want := make(map[string]bool, len(members))
	for _, m := range members {
		if m.ID == c.id {
			continue
		}
		want[m.ID] = true
		c.mu.Lock()
		_, have := c.peers[m.ID]
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return true
		}
		if have {
			continue
		}
		c.redials.Add(1)
		if err := c.dialPeer(m); err != nil {
			healthy = false
			continue
		}
		c.reconnects.Add(1)
	}
	if c.topo != nil {
		// Prune connections to members the current tree does not pair us
		// with. Their queued records drain into QueueDrops via the usual
		// teardown accounting; records they would have delivered now travel
		// the re-derived tree.
		var prune []*peer
		c.mu.Lock()
		for id, p := range c.peers {
			if !want[id] {
				prune = append(prune, p)
			}
		}
		c.mu.Unlock()
		for _, p := range prune {
			c.removePeer(p)
		}
	}
	return healthy
}

// Close leaves the channel: stops the supervisor, gives the per-peer
// writers a bounded chance to drain events already accepted by Publish,
// closes the listener and all peer connections, waits for goroutines to
// finish, and deregisters from the registry last — so a racing supervisor
// round cannot re-register a member that is going away.
//
// The drain is best-effort, bounded by one write deadline across all peers:
// events still queued for a peer that cannot absorb them in that time are
// discarded and counted in Stats.QueueDrops.
func (c *Channel) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*peer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	for conn := range c.hellos {
		_ = conn.SetReadDeadline(time.Now()) // fails only if already closed
	}
	c.mu.Unlock()

	close(c.stop)
	err := c.ln.Close()
	c.drainOutboxes(peers)
	for _, p := range peers {
		p.close()
	}
	// Closing the ring lets the writers finish whatever is still queued
	// (writes against just-closed conns fail fast and drain into QueueDrops)
	// and exit; the read reactor is woken to exit, and its fds are closed
	// only after wg.Wait proves nothing can still touch them.
	c.ring.close()
	if c.rr != nil {
		c.rr.shutdown()
	}
	c.wg.Wait()
	if c.rr != nil {
		c.rr.closeFDs()
	}
	_ = c.reg.Leave(c.name, c.id)
	return err
}

// drainOutboxes waits for the peers' writers to flush every event already
// accepted by Publish (the per-peer pending count reaching zero), giving up
// after one write deadline — the bound a single stalled peer could already
// cost a writer. A peer whose writer has died is skipped: nothing will
// consume its outbox again, and its remnants are counted in QueueDrops by
// the writer's exit drain.
func (c *Channel) drainOutboxes(peers []*peer) {
	bound := c.writeDeadline
	if bound <= 0 {
		bound = defaultWriteDeadline
	}
	deadline := time.Now().Add(bound)
	for _, p := range peers {
		for p.pending.Load() > 0 && time.Now().Before(deadline) {
			select {
			case <-p.dead:
			default:
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
	}
}

// WaitForPeers blocks until the channel has at least n connected peers or
// the timeout elapses, reporting success. Tests and benchmarks use it to
// avoid racing the mesh construction.
func (c *Channel) WaitForPeers(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		have := len(c.peers)
		c.mu.Unlock()
		if have >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
