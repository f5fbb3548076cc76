// Package realtime implements the env runtime over wall-clock time and real
// UDP sockets, so the same protocol code that runs under the deterministic
// simulator also runs as an actual daemon (cmd/wackamole, the loopback
// example).
//
// Each node gets one Loop goroutine; inbound datagrams and timer firings
// are posted onto it, preserving the env contract that all callbacks are
// serialized.
package realtime

import (
	"fmt"
	"net"
	"sync"
	"time"

	"wackamole/internal/env"
)

// Loop serializes callbacks for one node.
type Loop struct {
	mu     sync.Mutex
	ch     chan func()
	closed bool
	done   chan struct{}
}

// NewLoop starts the callback goroutine.
func NewLoop() *Loop {
	l := &Loop{ch: make(chan func(), 256), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for f := range l.ch {
			f()
		}
	}()
	return l
}

// Post enqueues f for serialized execution. Posts after Close are dropped.
func (l *Loop) Post(f func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.ch <- f
}

// Close stops the loop after draining queued callbacks and waits for the
// goroutine to exit.
func (l *Loop) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	l.mu.Unlock()
	<-l.done
}

// Clock is a wall clock whose timers fire on the loop.
type Clock struct {
	loop *Loop
}

// NewClock returns a Clock posting to loop.
func NewClock(loop *Loop) *Clock { return &Clock{loop: loop} }

// Now implements env.Clock.
func (c *Clock) Now() time.Time { return time.Now() }

// AfterFunc implements env.Clock.
func (c *Clock) AfterFunc(d time.Duration, f func()) env.Timer {
	t := time.AfterFunc(d, func() { c.loop.Post(f) })
	return timerWrapper{t}
}

type timerWrapper struct{ t *time.Timer }

func (w timerWrapper) Stop() bool { return w.t.Stop() }

var _ env.Clock = (*Clock)(nil)

// Conn is an env.PacketConn over a UDP socket. Broadcast fans out to a
// configured peer list (which should include this node), making it usable
// on loopback and on networks where IP broadcast is unavailable.
type Conn struct {
	udp   *net.UDPConn
	loop  *Loop
	local env.Addr
	peers []env.Addr

	mu      sync.Mutex
	handler env.Handler
	closed  bool
	rdDone  chan struct{}

	// resolved caches each destination's *net.UDPAddr after its first
	// successful resolve (env.Addr -> *net.UDPAddr), so sends and
	// broadcasts do not resolve per datagram. Failures are not cached.
	resolved sync.Map
}

// resolveUDPAddr resolves destination addresses; tests replace it to count
// lookups.
var resolveUDPAddr = net.ResolveUDPAddr

// Listen binds listen ("ip:port") and returns a Conn whose Broadcast sends
// to every address in peers.
func Listen(loop *Loop, listen string, peers []string) (*Conn, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("realtime: resolve %q: %w", listen, err)
	}
	udp, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("realtime: listen %q: %w", listen, err)
	}
	c := &Conn{
		udp:    udp,
		loop:   loop,
		local:  env.Addr(udp.LocalAddr().String()),
		rdDone: make(chan struct{}),
	}
	for _, p := range peers {
		c.peers = append(c.peers, env.Addr(p))
	}
	go c.readLoop()
	return c, nil
}

func (c *Conn) readLoop() {
	defer close(c.rdDone)
	buf := make([]byte, 64*1024)
	for {
		n, from, err := c.udp.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		src := env.Addr(from.String())
		c.loop.Post(func() {
			c.mu.Lock()
			h := c.handler
			closed := c.closed
			c.mu.Unlock()
			if h != nil && !closed {
				h(src, payload)
			}
		})
	}
}

// LocalAddr implements env.PacketConn.
func (c *Conn) LocalAddr() env.Addr { return c.local }

// SendTo implements env.PacketConn.
func (c *Conn) SendTo(to env.Addr, payload []byte) error {
	dst, err := c.resolve(to)
	if err != nil {
		return err
	}
	if _, err := c.udp.WriteToUDP(payload, dst); err != nil {
		return fmt.Errorf("realtime: send to %s: %w", to, err)
	}
	return nil
}

// resolve returns to's UDP address, resolving it on first use only.
func (c *Conn) resolve(to env.Addr) (*net.UDPAddr, error) {
	if dst, ok := c.resolved.Load(to); ok {
		return dst.(*net.UDPAddr), nil
	}
	dst, err := resolveUDPAddr("udp", string(to))
	if err != nil {
		return nil, fmt.Errorf("realtime: resolve %q: %w", to, err)
	}
	c.resolved.Store(to, dst)
	return dst, nil
}

// Broadcast implements env.PacketConn by unicasting to every configured
// peer, including this node when it appears in the list.
func (c *Conn) Broadcast(payload []byte) error {
	var first error
	for _, p := range c.peers {
		if err := c.SendTo(p, payload); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetHandler implements env.PacketConn.
func (c *Conn) SetHandler(h env.Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

// Close implements env.PacketConn.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.udp.Close()
	<-c.rdDone
	return err
}

var _ env.PacketConn = (*Conn)(nil)

// NewEnv assembles a complete runtime for one real node. The returned
// cleanup closes the connection and stops the loop.
func NewEnv(listen string, peers []string, log env.Logger) (env.Env, *Loop, func(), error) {
	loop := NewLoop()
	conn, err := Listen(loop, listen, peers)
	if err != nil {
		loop.Close()
		return env.Env{}, nil, nil, err
	}
	if log == nil {
		log = env.NopLogger{}
	}
	e := env.Env{Clock: NewClock(loop), Conn: conn, Log: log}
	cleanup := func() {
		if err := conn.Close(); err != nil {
			log.Logf("realtime: close: %v", err)
		}
		loop.Close()
	}
	return e, loop, cleanup, nil
}
