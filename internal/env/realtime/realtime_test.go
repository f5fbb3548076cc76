package realtime

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"wackamole/internal/env"
)

func TestLoopSerializesCallbacks(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	var mu sync.Mutex
	inside := false
	violations := 0
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		loop.Post(func() {
			defer wg.Done()
			mu.Lock()
			if inside {
				violations++
			}
			inside = true
			mu.Unlock()
			mu.Lock()
			inside = false
			mu.Unlock()
		})
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d concurrent callback executions", violations)
	}
}

func TestPostAfterCloseDropped(t *testing.T) {
	loop := NewLoop()
	loop.Close()
	loop.Post(func() { t.Error("callback ran after Close") }) // must not panic
	time.Sleep(10 * time.Millisecond)
}

func TestClockAfterFuncFiresOnLoop(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	clock := NewClock(loop)
	done := make(chan struct{})
	clock.AfterFunc(5*time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestClockTimerStop(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	clock := NewClock(loop)
	fired := make(chan struct{}, 1)
	tm := clock.AfterFunc(50*time.Millisecond, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(150 * time.Millisecond):
	}
}

func TestUDPUnicastAndBroadcast(t *testing.T) {
	const n = 3
	loops := make([]*Loop, n)
	conns := make([]*Conn, n)
	// Bind ephemeral ports first, then share the peer list.
	for i := range conns {
		loops[i] = NewLoop()
		c, err := Listen(loops[i], "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	var peers []string
	for _, c := range conns {
		peers = append(peers, string(c.LocalAddr()))
	}
	for _, c := range conns {
		for _, p := range peers {
			c.peers = append(c.peers, env.Addr(p))
		}
	}
	defer func() {
		for i := range conns {
			if err := conns[i].Close(); err != nil {
				t.Error(err)
			}
			loops[i].Close()
		}
	}()

	type msg struct {
		to   int
		from env.Addr
		data string
	}
	got := make(chan msg, 64)
	for i, c := range conns {
		i := i
		c.SetHandler(func(from env.Addr, payload []byte) {
			got <- msg{to: i, from: from, data: string(payload)}
		})
	}

	if err := conns[0].SendTo(conns[1].LocalAddr(), []byte("uni")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.to != 1 || m.data != "uni" || m.from != conns[0].LocalAddr() {
			t.Fatalf("unexpected message %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unicast never arrived")
	}

	if err := conns[2].Broadcast([]byte("bc")); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	deadline := time.After(2 * time.Second)
	for len(seen) < n {
		select {
		case m := <-got:
			if m.data == "bc" {
				seen[m.to] = true
			}
		case <-deadline:
			t.Fatalf("broadcast reached %d of %d (self-delivery required)", len(seen), n)
		}
	}
}

func TestNewEnvLifecycle(t *testing.T) {
	e, loop, cleanup, err := NewEnv("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Clock == nil || e.Conn == nil || e.Log == nil {
		t.Fatal("incomplete env")
	}
	ran := make(chan struct{})
	loop.Post(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(time.Second):
		t.Fatal("loop not running")
	}
	cleanup()
	// Cleanup is idempotent at the conn level.
	if err := e.Conn.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestListenBadAddress(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	if _, err := Listen(loop, "not-an-address", nil); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestManyMessagesNoLossOnLoopback(t *testing.T) {
	loopA, loopB := NewLoop(), NewLoop()
	defer loopA.Close()
	defer loopB.Close()
	a, err := Listen(loopA, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(loopB, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(_ env.Addr, _ []byte) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	const total = 200
	for i := 0; i < total; i++ {
		if err := a.SendTo(b.LocalAddr(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c >= total*9/10 { // UDP: allow a sliver of kernel-buffer loss
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", c, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countResolves swaps in a resolver that counts lookups per address for
// the rest of the test.
func countResolves(t *testing.T) map[string]int {
	t.Helper()
	counts := map[string]int{}
	var mu sync.Mutex
	orig := resolveUDPAddr
	resolveUDPAddr = func(network, addr string) (*net.UDPAddr, error) {
		mu.Lock()
		counts[addr]++
		mu.Unlock()
		return orig(network, addr)
	}
	t.Cleanup(func() { resolveUDPAddr = orig })
	return counts
}

func TestSendResolvesEachPeerOnce(t *testing.T) {
	counts := countResolves(t)
	loop := NewLoop()
	defer loop.Close()
	rx, err := Listen(loop, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	got := make(chan struct{}, 64)
	rx.SetHandler(func(env.Addr, []byte) { got <- struct{}{} })
	tx, err := Listen(loop, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	tx.peers = []env.Addr{rx.LocalAddr(), tx.LocalAddr()}

	for i := 0; i < 5; i++ {
		if err := tx.SendTo(rx.LocalAddr(), []byte("uni")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Broadcast([]byte("bc")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("nothing arrived through the cached address")
	}
	for _, a := range tx.peers {
		if n := counts[string(a)]; n != 1 {
			t.Errorf("%s resolved %d times over 15 sends, want 1", a, n)
		}
	}
}

func TestUnresolvableAddressFailsEverySend(t *testing.T) {
	counts := countResolves(t)
	loop := NewLoop()
	defer loop.Close()
	c, err := Listen(loop, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const bad = env.Addr("127.0.0.1") // no port
	first := c.SendTo(bad, []byte("x"))
	if first == nil {
		t.Fatal("send to an address without a port succeeded")
	}
	for i := 0; i < 3; i++ {
		err := c.SendTo(bad, []byte("x"))
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("send %d: error %v, want %v", i+2, err, first)
		}
	}
	if n := counts[string(bad)]; n != 4 {
		t.Errorf("unresolvable address looked up %d times, want 4 (failures are not cached)", n)
	}
}

func TestConcurrentSendsShareResolveCache(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	c, err := Listen(loop, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.peers = []env.Addr{c.LocalAddr()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := c.Broadcast([]byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
