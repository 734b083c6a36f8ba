//go:build !linux

package kecho

// On platforms without the epoll read reactor every peer conn gets a
// fallback reader goroutine; the writer pool is unaffected.
type readReactor struct{}

func startReadReactor(*Channel) *readReactor { return nil }
func (*readReactor) register(*peer) bool     { return false }
func (*readReactor) forget(*peer)            {}
func (*readReactor) shutdown()               {}
func (*readReactor) closeFDs()               {}
