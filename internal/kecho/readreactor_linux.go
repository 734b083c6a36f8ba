//go:build linux

package kecho

import (
	"os"
	"sync"
	"syscall"
	"time"
)

// readReactor multiplexes the read side of every peer connection that
// exposes a file descriptor (syscall.Conn) onto one epoll-driven goroutine
// per channel, so an idle peer costs zero reader goroutines. That covers the
// default transport and wrapped ones alike: faultnet's conns hand over their
// socket and inject every fault on the write side or by shutting the socket
// down, which epoll reports as a hang-up, so the fault suite exercises this
// same reader. Only fd-less conns fall back to a per-conn chunk reader
// (counted in Channel.fallbackReaders).
//
// Reads are performed through syscall.RawConn.Read with a pre-built per-conn
// closure, so the runtime's fd refcount protects against close/reuse races
// and the steady-state read path allocates nothing. The reactor goroutine is
// the only reader, so one shared receive buffer serves every conn; each
// chunk goes through Channel.consume, the frame consumer the fallback
// reader shares, into the peer's incremental wire.Parser.
//
// The reactor goroutine never blocks in epoll_wait itself: the epoll fd is
// nonblocking and registered with the Go runtime's netpoller (an epoll set
// is itself pollable — readable while any member is ready), so the
// goroutine parks in the scheduler between wake-ups instead of pinning a
// processor in a blocking system call, which would stall every other
// goroutine on a small GOMAXPROCS until the runtime retook it.
type readReactor struct {
	c      *Channel
	epfd   int
	ep     *os.File        // epfd, as a netpoller-registered file
	epRaw  syscall.RawConn // ep's raw access, for the nonblocking wait
	waitFn func(fd uintptr) bool
	nev    int   // waitFn's result: ready events in events[:nev]
	werr   error // waitFn's result: the epoll_wait error
	mu     sync.Mutex
	conns  map[int]*reactorConn
	closed bool
	buf    []byte // shared read buffer (single reader goroutine)
	events []syscall.EpollEvent
	batch  [][]byte // batch-frame decode scratch, reused across frames
}

type reactorConn struct {
	p       *peer
	raw     syscall.RawConn
	fd      int
	readFn  func(fd uintptr) bool
	lastN   int
	lastErr error
}

// startReadReactor creates the channel's read reactor, or returns nil (and
// the channel falls back to reader goroutines) if epoll setup fails.
func startReadReactor(c *Channel) *readReactor {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil
	}
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil
	}
	// NewFile registers a nonblocking fd with the netpoller; only a
	// registered file accepts a deadline, so that doubles as the check.
	ep := os.NewFile(uintptr(epfd), "kecho-epoll")
	raw, err := ep.SyscallConn()
	if err != nil || ep.SetReadDeadline(time.Time{}) != nil {
		ep.Close()
		return nil
	}
	r := &readReactor{
		c:      c,
		epfd:   epfd,
		ep:     ep,
		epRaw:  raw,
		conns:  make(map[int]*reactorConn),
		buf:    make([]byte, readBufSize),
		events: make([]syscall.EpollEvent, 64),
	}
	// Built once: a per-wait closure would allocate on every wake-up.
	r.waitFn = func(fd uintptr) bool {
		r.nev, r.werr = syscall.EpollWait(int(fd), r.events, 0)
		return r.nev > 0 || r.werr != nil // false: park until epfd is readable
	}
	c.wg.Add(1)
	go r.run()
	return r
}

// register adds p's connection to the epoll set, reporting whether the
// reactor took ownership of its read side. A false return means the caller
// must start a fallback reader goroutine.
func (r *readReactor) register(p *peer) bool {
	sc, ok := p.conn.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	fd := -1
	if err := raw.Control(func(u uintptr) { fd = int(u) }); err != nil || fd < 0 {
		return false
	}
	rc := &reactorConn{p: p, raw: raw, fd: fd}
	// The read closure is built once per conn: per-event closures would
	// allocate on every wake-up.
	rc.readFn = func(u uintptr) bool {
		rc.lastN, rc.lastErr = syscall.Read(int(u), r.buf)
		return true
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	p.rfd = fd // under r.mu: forget reads it under the same lock
	r.conns[fd] = rc
	r.mu.Unlock()
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(fd)}
	if err := syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		r.mu.Lock()
		delete(r.conns, fd)
		r.mu.Unlock()
		return false
	}
	return true
}

// forget drops p's registration, called when the peer is torn down. The fd
// may already be closed (the kernel then auto-removed it from the epoll
// set), or even reused by a newer conn — the identity check keeps a stale
// teardown from unregistering its successor.
func (r *readReactor) forget(p *peer) {
	r.mu.Lock()
	if rc, ok := r.conns[p.rfd]; ok && rc.p == p {
		delete(r.conns, p.rfd)
		_ = syscall.EpollCtl(r.epfd, syscall.EPOLL_CTL_DEL, p.rfd, nil)
	}
	r.mu.Unlock()
}

// run is the reactor goroutine: wait for readable conns, service each.
func (r *readReactor) run() {
	defer r.c.wg.Done()
	for {
		if err := r.epRaw.Read(r.waitFn); err != nil {
			return // shutdown expired the read deadline
		}
		if r.werr != nil {
			if r.werr == syscall.EINTR {
				continue
			}
			return
		}
		for i := 0; i < r.nev; i++ {
			fd := int(r.events[i].Fd)
			r.mu.Lock()
			rc := r.conns[fd]
			r.mu.Unlock()
			if rc == nil {
				continue // stale event for an already-forgotten conn
			}
			r.service(rc)
		}
	}
}

// service reads whatever rc's socket has buffered and hands it to consume,
// which dispatches each completed frame. It returns
// when the socket drains (EAGAIN) — epoll is level-triggered, so a partial
// drain simply re-fires — and tears the peer down on EOF, a read error, or
// a protocol violation.
func (r *readReactor) service(rc *reactorConn) {
	for {
		if err := rc.raw.Read(rc.readFn); err != nil {
			// The conn was closed under us (peer teardown or Close).
			r.teardown(rc)
			return
		}
		n, rerr := rc.lastN, rc.lastErr
		if n > 0 {
			var perr error
			if r.batch, perr = r.c.consume(rc.p, r.buf[:n], r.batch); perr != nil {
				r.teardown(rc)
				return
			}
		}
		if rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK {
			return
		}
		if rerr != nil || n == 0 {
			r.teardown(rc) // read error or EOF
			return
		}
		if n < len(r.buf) {
			// Likely drained; if more arrived meanwhile, level-triggered
			// epoll re-fires. Returning keeps one chatty conn from starving
			// the rest of this wait round.
			return
		}
	}
}

func (r *readReactor) teardown(rc *reactorConn) {
	r.forget(rc.p)
	r.c.removePeer(rc.p)
}

// shutdown wakes the reactor goroutine so it exits; idempotent. The epoll
// fd is closed later by closeFDs, after Close's wg.Wait proves no goroutine
// can still touch it.
func (r *readReactor) shutdown() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	_ = r.ep.SetReadDeadline(time.Unix(1, 0)) // supported: checked at start
}

func (r *readReactor) closeFDs() { r.ep.Close() }
