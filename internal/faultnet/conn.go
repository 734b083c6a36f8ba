package faultnet

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"time"
)

// stallPollInterval is how often a stalled Write rechecks the fault plan and
// its deadline. Coarse enough to stay cheap, fine enough that
// deadline-bounded tests finish promptly.
const stallPollInterval = time.Millisecond

// Conn is a fabric-wrapped connection. local is always known; remote is the
// destination host for dialed connections and "" for accepted ones.
//
// Every fault acts on the write side or by shutting the real socket down,
// never by intercepting Read, so a reader that polls the socket's fd
// directly (kecho's epoll reactor, reached through SyscallConn) sees
// exactly what a Read caller would.
type Conn struct {
	net.Conn
	fabric *Fabric
	local  string
	remote string

	mu sync.Mutex
	// framesLeft counts down a KillAfterFrames budget on writes.
	hasBudget     bool
	framesLeft    int
	killed        bool
	writeDeadline time.Time
}

func newConn(f *Fabric, nc net.Conn, local, remote string) *Conn {
	c := &Conn{Conn: nc, fabric: f, local: local, remote: remote}
	f.mu.Lock()
	f.conns[c] = struct{}{}
	f.mu.Unlock()
	return c
}

// timeoutError mirrors the net package's deadline error: Timeout() is true
// so callers can distinguish a stalled peer from a dead one.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

type killedError struct{}

func (killedError) Error() string   { return "faultnet: connection killed" }
func (killedError) Timeout() bool   { return false }
func (killedError) Temporary() bool { return false }

// kill severs the connection from the fabric side, counting it.
func (c *Conn) kill() {
	c.mu.Lock()
	already := c.killed
	c.killed = true
	c.mu.Unlock()
	if already {
		return
	}
	c.fabric.mu.Lock()
	c.fabric.connsKilled++
	delete(c.fabric.conns, c)
	c.fabric.mu.Unlock()
	// Shut the socket down in both directions: the remote side reads EOF and
	// anything it sends afterwards is answered with a reset, and local
	// readers — blocked in Read or polling the fd — see the hang-up too.
	// Closing it instead would silently drop the fd from any epoll set
	// watching it. The owner's Close releases the fd.
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		// Errors mean the socket is already shut or closed.
		_ = tc.CloseRead()
		_ = tc.CloseWrite()
		return
	}
	c.Conn.Close()
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.killed = true
	c.mu.Unlock()
	c.fabric.mu.Lock()
	delete(c.fabric.conns, c)
	c.fabric.mu.Unlock()
	return c.Conn.Close()
}

// CloseWrite half-closes the write side when the wrapped connection
// supports it (TCP does), preserving EOF-framed request bodies — the admin
// protocol's write verb — across the fabric.
func (c *Conn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// SyscallConn exposes the wrapped socket, so fd-polling readers can adopt a
// fabric conn. Reading the fd directly bypasses nothing: no fault acts on
// Read.
func (c *Conn) SyscallConn() (syscall.RawConn, error) {
	if sc, ok := c.Conn.(syscall.Conn); ok {
		return sc.SyscallConn()
	}
	return nil, errors.New("faultnet: wrapped conn has no file descriptor")
}

func (c *Conn) isKilled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// SetDeadline implements net.Conn, tracking the write deadline locally so
// stalled writes honour it.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// waitWhileStalled blocks while writes toward the remote host are stalled,
// returning a timeout error if the write deadline passes first and a killed
// error if the connection is severed while waiting.
func (c *Conn) waitWhileStalled() error {
	f := c.fabric
	for {
		f.mu.Lock()
		stalled := c.remote != "" && f.wstall[c.remote]
		f.mu.Unlock()
		if !stalled {
			return nil
		}
		c.mu.Lock()
		killed, d := c.killed, c.writeDeadline
		c.mu.Unlock()
		if killed {
			return killedError{}
		}
		if !d.IsZero() && time.Now().After(d) {
			return timeoutError{}
		}
		time.Sleep(stallPollInterval)
	}
}

// Write implements net.Conn, applying partitions, write stalls, added
// latency, and kill-after-frames budgets for the destination host.
func (c *Conn) Write(b []byte) (int, error) {
	f := c.fabric
	f.mu.Lock()
	cut := c.remote != "" && f.cutLocked(c.local, c.remote)
	f.mu.Unlock()
	if cut {
		c.kill()
		return 0, killedError{}
	}
	if err := c.waitWhileStalled(); err != nil {
		return 0, err
	}
	if c.isKilled() {
		return 0, killedError{}
	}
	if c.remote != "" {
		f.mu.Lock()
		lr, ok := f.latency[c.remote]
		var delay time.Duration
		if ok {
			delay = lr.min
			if lr.max > lr.min {
				delay += time.Duration(f.rng.Int63n(int64(lr.max - lr.min + 1)))
			}
		}
		f.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
	}
	c.mu.Lock()
	exhausted := c.hasBudget && c.framesLeft <= 0
	if c.hasBudget && !exhausted {
		c.framesLeft--
	}
	c.mu.Unlock()
	if exhausted {
		c.kill()
		return 0, killedError{}
	}
	return c.Conn.Write(b)
}
