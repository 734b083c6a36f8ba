package kecho

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// listenOnlyTransport listens normally but refuses every outbound dial. The
// census subs use it so they accept the publisher's connection without
// forming the N² sub-to-sub mesh (which would exhaust fds at N=256 and
// measure mesh cost, not publisher cost).
type listenOnlyTransport struct{}

func (listenOnlyTransport) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

func (listenOnlyTransport) DialTimeout(string, string, time.Duration) (net.Conn, error) {
	return nil, errors.New("census: outbound dial refused")
}

// waitGoroutines polls until the process goroutine count drops to at most
// want, failing after 10s. GC runs between polls so finalizer-held
// goroutines cannot produce false leaks.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines stuck at %d, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoroutineCensus is the connection-scale regression gate: a publisher
// with N subscribed peers must cost O(writers) goroutines — not O(N) — and
// Close must release every one of them. The same bound is asserted at N=8
// and N=256, which is what makes it a flat-scaling test rather than a
// constant-factor one.
func TestGoroutineCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("spins 256 peers")
	}
	if runtime.GOOS != "linux" {
		t.Skip("the epoll read reactor is Linux-only; elsewhere every conn has a reader goroutine")
	}
	for _, n := range []int{8, 256} {
		t.Run(fmt.Sprintf("peers_%d", n), func(t *testing.T) {
			reg := newRegistry(t)
			subOpts := &Options{
				Writers:          1,
				DisableReconnect: true,
				Transport:        listenOnlyTransport{},
			}
			subs := make([]*Channel, n)
			for i := 0; i < n; i++ {
				subs[i] = join(t, reg, "census", fmt.Sprintf("sub%d", i), subOpts)
			}
			// Settle, then baseline. Everything the publisher adds from here
			// on — its accept loop, read reactor and writer pool — is
			// attributed to the join. The subs' custom transport still hands
			// out plain TCP conns, so the subs' read reactors adopt the
			// publisher's conns and no side may run a fallback reader.
			time.Sleep(50 * time.Millisecond)
			runtime.GC()
			before := runtime.NumGoroutine()

			const writers = 4
			pub := join(t, reg, "census", "pub", &Options{
				Writers:          writers,
				DisableReconnect: true,
			})
			if !pub.WaitForPeers(n, 10*time.Second) {
				t.Fatalf("publisher connected %d peers, want %d", len(pub.Peers()), n)
			}
			var got atomic.Int64
			for _, s := range subs {
				s.Subscribe(func(Event) { got.Add(1) })
			}
			if _, err := pub.Publish([]byte("census"), PublishOpts{}); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for got.Load() < int64(n) {
				for _, s := range subs {
					s.Poll()
				}
				if time.Now().After(deadline) {
					t.Fatalf("delivered %d/%d", got.Load(), n)
				}
				time.Sleep(time.Millisecond)
			}

			for i, s := range subs {
				if n := s.fallbackReaders.Load(); n != 0 {
					t.Fatalf("sub%d runs %d fallback readers, want 0 (its reactor must adopt the conn)", i, n)
				}
			}
			if n := pub.fallbackReaders.Load(); n != 0 {
				t.Fatalf("publisher runs %d fallback readers, want 0", n)
			}
			pubCost := runtime.NumGoroutine() - before
			// writers + accept loop + read reactor, plus slack for runtime
			// helpers. Crucially independent of n.
			limit := writers + 2 + 4
			if pubCost > limit {
				t.Fatalf("publisher join cost %d goroutines, want <= %d — O(N) readers/writers are back", pubCost, limit)
			}

			pub.Close()
			// Sub-side teardown of the publisher's conns is asynchronous;
			// allow the baseline plus slack.
			waitGoroutines(t, before+2)
		})
	}
}

// TestEventDrivenDispatch pins the latency-floor mode: handlers run on frame
// receipt with no Poll, and Poll is a no-op that cannot steal the
// dispatcher's events.
func TestEventDrivenDispatch(t *testing.T) {
	reg := newRegistry(t)
	a := join(t, reg, "mon", "a", nil)
	b := join(t, reg, "mon", "b", &Options{Dispatch: EventDriven})
	a.WaitForPeers(1, time.Second)
	b.WaitForPeers(1, time.Second)

	done := make(chan Event, 1)
	b.Subscribe(func(ev Event) { done <- Event{From: ev.From, Payload: ev.CopyPayload(), Seq: ev.Seq} })
	if _, err := a.Publish([]byte("now"), PublishOpts{}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-done:
		if string(ev.Payload) != "now" || ev.From != "a" {
			t.Fatalf("event = %q from %q", ev.Payload, ev.From)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event-driven dispatch did not deliver without Poll")
	}
	if n := b.Poll(); n != 0 {
		t.Fatalf("Poll = %d in EventDriven mode, want 0", n)
	}
}

// TestEventDrivenSerializedAndBackpressured pins the two properties that
// distinguish EventDriven from Immediate: handler calls never overlap even
// with many submitting peers, and a slow handler queues events (bounded by
// the inbox) instead of dropping them locally.
func TestEventDrivenSerializedAndBackpressured(t *testing.T) {
	reg := newRegistry(t)
	b := join(t, reg, "mon", "b", &Options{Dispatch: EventDriven, InboxSize: 8})
	const pubs = 4
	chans := make([]*Channel, pubs)
	for i := 0; i < pubs; i++ {
		chans[i] = join(t, reg, "mon", fmt.Sprintf("pub%d", i), nil)
	}
	if !b.WaitForPeers(pubs, 2*time.Second) {
		t.Fatal("mesh did not form")
	}
	var inHandler atomic.Int64
	var overlapped atomic.Bool
	var got atomic.Int64
	b.Subscribe(func(Event) {
		if inHandler.Add(1) != 1 {
			overlapped.Store(true)
		}
		time.Sleep(2 * time.Millisecond) // a slow handler
		inHandler.Add(-1)
		got.Add(1)
	})
	const per = 20
	for i := 0; i < per; i++ {
		for _, c := range chans {
			if _, err := c.Publish([]byte("x"), PublishOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := int64(pubs * per)
	deadline := time.Now().Add(15 * time.Second)
	for got.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d", got.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if overlapped.Load() {
		t.Fatal("handler calls overlapped; EventDriven dispatch must be serialized")
	}
	if d := b.Stats().Dropped; d != 0 {
		t.Fatalf("receiver dropped %d events; slow handler must backpressure, not drop", d)
	}
}
