package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/env"
	"wackamole/internal/env/realtime"
	"wackamole/internal/gcs"
	"wackamole/internal/ipmgr"
)

// The live-multicast workload: three daemons on 127.0.0.1 UDP, wired as
// cmd/wackamole wires them but with the in-memory address backend, and one
// extra client session on node 0 multicasting 64-byte Agreed messages
// open-loop at a fixed rate well under the ring's capacity (5000 msg/s held
// steady on a 2-vCPU machine; 10000 msg/s did not). Loopback carries the
// traffic with no injected delay.
const (
	liveNodes   = 3
	liveRate    = 5000
	livePayload = 64
	liveGroups  = 10
	// liveSetups is how many rings a run builds to sample set-up time; the
	// last one is loaded. It runs for the whole load: a daemon keeps every
	// ordered message until the next membership change (about 1 KB per
	// message across the ring), and a long-lived ring is what shows it.
	liveSetups = 3
	// liveQuiet is the idle period between set-up and load; the traced run
	// measures the daemons' background CPU over it.
	liveQuiet     = time.Second
	liveDrain     = 2 * time.Second
	liveFormLimit = 30 * time.Second
	// liveBacklogLimit bounds sent − delivered when generation stops: more
	// than 100ms of offered load still queued means the open loop outran
	// the ring and the latencies measure a growing queue.
	liveBacklogLimit = liveRate / 10
	liveProbeEvery   = 2 * time.Millisecond
	liveWindow       = time.Second
	liveGroupName    = "wackbench"
	liveClientName   = "bench"
)

// liveNode is one daemon with its callback loop.
type liveNode struct {
	node    *wackamole.Node
	loop    *realtime.Loop
	cleanup func()
}

// liveCluster is a running three-daemon ring with the benchmark's session
// joined on node 0. The delivery bookkeeping is touched only on node 0's
// loop.
type liveCluster struct {
	nodes []*liveNode
	sess  *gcs.Session
	trace *liveTrace // nil unless traced

	payload    [livePayload]byte
	accepted   uint64 // messages the session accepted (next sequence number)
	refused    uint64 // messages refused by backpressure
	delivered  uint64 // every delivery
	advanced   uint64 // deliveries that moved the sequence forward
	next       uint64 // the sequence number expected next
	misordered uint64 // deliveries behind the sequence: duplicated or reordered
	latencies  []float64
}

func runLive(cfg runConfig, out io.Writer) (*result, error) {
	res := newResult()
	if !cfg.traced {
		// Set-up is sampled on liveSetups rings; the last one is loaded.
		var setups []float64
		var lc *liveCluster
		for i := 0; i < liveSetups; i++ {
			if lc != nil {
				lc.stop()
			}
			var setup time.Duration
			var err error
			if lc, setup, err = startLive(nil); err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
		}
		defer lc.stop()
		idle := lc.quiet()
		ph, err := lc.load(cfg.duration)
		if err != nil {
			return nil, err
		}
		if err := lc.account(res, ph); err != nil {
			return nil, err
		}
		lc.stop() // no delivery touches lc.latencies after this
		res.set("setup_s", median(setups))
		res.set("max_rss_mb", peakRSSMB())
		res.set("ops_per_s", ph.rate())
		res.set("cpu_us_per_op", median(ph.cpuWindows))
		fmt.Fprintf(out, "%d messages, delivery p50 %.3fms p99 %.3fms, generator p99 late %.3fms, backlog %d, idle %.1f ms/s, setup median of %d\n",
			ph.sent, quantile(lc.latencies, 0.5), quantile(lc.latencies, 0.99), ph.lateP99, ph.backlog, idle, len(setups))
		return res, nil
	}

	// Traced run: one ring loaded plain, then a fresh one — so both start
	// from the same heap — loaded with the wrappers recording, the loop
	// probes running and the CPU profiler on.
	lc, _, err := startLive(&liveTrace{})
	if err != nil {
		return nil, err
	}
	lc.quiet()
	plain, err := lc.load(cfg.duration / 2)
	if err == nil {
		err = lc.account(res, plain)
	}
	lc.stop()
	if err != nil {
		return nil, err
	}
	p50, p99 := quantile(lc.latencies, 0.5), quantile(lc.latencies, 0.99)
	if lc, _, err = startLive(&liveTrace{}); err != nil {
		return nil, err
	}
	defer lc.stop()
	idle := lc.quiet()
	stats0 := lc.daemonStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	lc.trace.on.Store(true)
	stopProbes := lc.probeLoops()
	traced, err := lc.load(cfg.duration / 2)
	stopProbes()
	lc.trace.on.Store(false)
	byLayer, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	runtime.ReadMemStats(&ms1)
	stats1 := lc.daemonStats()
	if err := lc.account(res, traced); err != nil {
		return nil, err
	}
	msgs := float64(traced.delivered)
	for _, l := range layers {
		res.set(l+".self_us_per_op", byLayer[l]/1e3/msgs)
	}
	res.set("gc.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/msgs)
	res.set("gc.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/msgs)
	var sent, retrans, tokens, views, deliveries float64
	for i := range stats1 {
		sent += float64(stats1[i].DataSent - stats0[i].DataSent)
		retrans += float64(stats1[i].DataRetransmitted - stats0[i].DataRetransmitted)
		tokens += float64(stats1[i].TokensForwarded - stats0[i].TokensForwarded)
		views += float64(stats1[i].MembershipsInstalled - stats0[i].MembershipsInstalled)
		deliveries += float64(stats1[i].DataDelivered - stats0[i].DataDelivered)
	}
	visits := float64(stats1[0].TokensForwarded - stats0[0].TokensForwarded)
	res.set("gcs.token_passes_per_op", tokens/msgs)
	res.set("gcs.views_per_op", views/msgs)
	res.set("gcs.deliveries_per_op", deliveries/msgs)
	if sent > 0 {
		res.set("gcs.retransmit_share", retrans/sent)
	}
	if visits > 0 {
		res.set("gcs.token_rotation_ms", float64(traced.wall)/float64(time.Millisecond)/visits)
		res.set("gcs.msgs_per_token_visit", float64(stats1[0].DataSent-stats0[0].DataSent)/visits)
	}
	t := lc.trace
	if n := t.datagrams.Load(); n > 0 {
		res.set("realtime.send_us", float64(t.sendNanos.Load())/1e3/float64(n))
	}
	res.set("realtime.datagrams_per_msg", float64(t.datagrams.Load())/msgs)
	res.set("realtime.bytes_per_msg", float64(t.bytes.Load())/msgs)
	res.set("gcs.handler_us_per_msg", float64(t.handlerNanos.Load())/1e3/msgs)
	t.mu.Lock()
	res.set("realtime.loop_wait_p99_us", quantile(t.loopWait, 0.99))
	res.set("realtime.timer_late_p99_us", quantile(t.timerLate, 0.99))
	t.mu.Unlock()
	res.set("realtime.idle_cpu_ms_per_s", idle)
	res.set("gcs.deliver_p50_ms", p50)
	res.set("gcs.deliver_p99_ms", p99)
	res.set("gen.late_ms", traced.lateP99)
	res.set("gen.backlog_msgs", float64(traced.backlog))
	res.set("trace.untraced_ops_per_s", plain.rate())
	res.set("trace.ops_per_s", traced.rate())
	res.set("trace.overhead_pct", 100*(traced.cpuPerMsg()/plain.cpuPerMsg()-1))
	fmt.Fprintf(out, "traced: %.2f us/msg plain vs %.2f us/msg traced, idle %.1f ms/s\n",
		plain.cpuPerMsg(), traced.cpuPerMsg(), idle)
	return res, nil
}

// quiet lets the ring idle for liveQuiet and returns the process CPU time
// it used per idle second, in milliseconds.
func (lc *liveCluster) quiet() float64 {
	cpu0 := cpuTime()
	time.Sleep(liveQuiet)
	return float64(cpuTime()-cpu0) / float64(time.Millisecond) / liveQuiet.Seconds()
}

// startLive builds a ring on fresh loopback ports and returns once every
// daemon has installed the full membership and the benchmark's session has
// joined its group, with the wall time that took.
func startLive(tr *liveTrace) (*liveCluster, time.Duration, error) {
	start := time.Now()
	peers, err := reservePorts(liveNodes)
	if err != nil {
		return nil, 0, err
	}
	groups := make([]core.VIPGroup, liveGroups)
	for j := range groups {
		groups[j] = core.VIPGroup{
			Name:  fmt.Sprintf("vip%d", j),
			Addrs: []netip.Addr{wackamole.VIPAddr(j)},
		}
	}
	lc := &liveCluster{trace: tr}
	formed := make(chan struct{}, liveNodes) // one signal per daemon
	for _, addr := range peers {
		e, loop, cleanup, err := realtime.NewEnv(addr, peers, nil)
		if err != nil {
			lc.stop()
			return nil, 0, err
		}
		if tr != nil {
			e.Clock = &tracedClock{Clock: e.Clock, t: tr}
			e.Conn = &tracedConn{PacketConn: e.Conn, t: tr, peers: len(peers)}
		}
		node, err := wackamole.NewNode(e, wackamole.Config{
			GCS:    gcs.TunedConfig(),
			Engine: core.Config{Groups: groups, StartMature: true},
		}, &ipmgr.FakeBackend{}, nil)
		if err != nil {
			cleanup()
			lc.stop()
			return nil, 0, err
		}
		var once sync.Once
		node.Daemon().AddMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
			if len(members) == liveNodes {
				once.Do(func() { formed <- struct{}{} })
			}
		})
		lc.nodes = append(lc.nodes, &liveNode{node: node, loop: loop, cleanup: cleanup})
		started := make(chan error, 1)
		loop.Post(func() { started <- node.Start() })
		if err := <-started; err != nil {
			lc.stop()
			return nil, 0, err
		}
	}
	deadline := time.After(liveFormLimit)
	for i := 0; i < liveNodes; i++ {
		select {
		case <-formed:
		case <-deadline:
			lc.stop()
			return nil, 0, fmt.Errorf("ring of %d daemons not formed within %v", liveNodes, liveFormLimit)
		}
	}
	joined := make(chan struct{})
	err = lc.onLoop(0, func() error {
		sess, err := lc.nodes[0].node.Daemon().Connect(liveClientName)
		if err != nil {
			return err
		}
		var once sync.Once
		sess.SetViewHandler(func(v gcs.View) {
			if v.Group == liveGroupName && v.Contains(sess.Member()) {
				once.Do(func() { close(joined) })
			}
		})
		sess.SetMessageHandler(lc.onMessage)
		lc.sess = sess
		return sess.Join(liveGroupName)
	})
	if err != nil {
		lc.stop()
		return nil, 0, err
	}
	select {
	case <-joined:
	case <-time.After(liveFormLimit):
		lc.stop()
		return nil, 0, fmt.Errorf("session not joined within %v", liveFormLimit)
	}
	return lc, time.Since(start), nil
}

// reservePorts finds n free UDP ports on 127.0.0.1.
func reservePorts(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		defer c.Close()
		addrs = append(addrs, c.LocalAddr().String())
	}
	return addrs, nil
}

// onLoop runs f on node i's loop and waits for it.
func (lc *liveCluster) onLoop(i int, f func() error) error {
	done := make(chan error, 1)
	lc.nodes[i].loop.Post(func() { done <- f() })
	select {
	case err := <-done:
		return err
	case <-time.After(liveFormLimit):
		return errors.New("daemon loop unresponsive")
	}
}

// stop shuts every daemon down and waits for its loop to exit.
func (lc *liveCluster) stop() {
	for _, n := range lc.nodes {
		done := make(chan struct{})
		n.loop.Post(func() { n.node.Stop(); close(done) })
		select {
		case <-done:
		case <-time.After(2 * time.Second):
		}
		n.cleanup()
	}
	lc.nodes = nil
}

// send multicasts one message per due time, numbering the accepted ones.
// Runs on node 0's loop.
func (lc *liveCluster) send(dues []int64) {
	for _, due := range dues {
		binary.LittleEndian.PutUint64(lc.payload[0:], lc.accepted)
		binary.LittleEndian.PutUint64(lc.payload[8:], uint64(due))
		if err := lc.sess.Multicast(liveGroupName, lc.payload[:]); err != nil {
			lc.refused++
			continue
		}
		lc.accepted++
	}
}

// onMessage checks that deliveries arrive exactly once in send order — a
// sequence number behind the last one is a duplicate or a reordering, one
// skipped over is missing unless it arrives later — and records each
// delivery's latency from its due time. Runs on node 0's loop.
func (lc *liveCluster) onMessage(_ gcs.GroupMember, group string, p []byte) {
	now := time.Now().UnixNano()
	if group != liveGroupName || len(p) != livePayload {
		lc.misordered++
		return
	}
	seq := binary.LittleEndian.Uint64(p[0:])
	due := int64(binary.LittleEndian.Uint64(p[8:]))
	if seq < lc.next {
		lc.misordered++
	} else {
		lc.next = seq + 1
		lc.advanced++
	}
	lc.delivered++
	lc.latencies = append(lc.latencies, float64(now-due)/float64(time.Millisecond))
}

// livePhase is one open-loop load period.
type livePhase struct {
	wall      time.Duration
	cpu       time.Duration // generation and drain
	sent      uint64        // messages generated
	delivered uint64        // delivered by the end of generation
	backlog   uint64        // accepted − delivered when generation stopped
	lateP99   float64       // generator lateness, ms
	// cpuWindows is process CPU per generated message (µs) in each
	// liveWindow of generation.
	cpuWindows []float64
}

func (p *livePhase) rate() float64 { return float64(p.delivered) / p.wall.Seconds() }

func (p *livePhase) cpuPerMsg() float64 {
	return float64(p.cpu) / 1e3 / float64(p.delivered)
}

// load offers liveRate msg/s for d from one generator goroutine, then
// waits for in-flight messages to be delivered.
func (lc *liveCluster) load(d time.Duration) (*livePhase, error) {
	var delivered0 uint64
	if err := lc.onLoop(0, func() error { delivered0 = lc.delivered; return nil }); err != nil {
		return nil, err
	}
	loop := lc.nodes[0].loop
	interval := time.Second / liveRate
	n := int(d / interval)
	late := make([]float64, 0, n)
	// Process CPU per message is also taken over each liveWindow of
	// generation; the median window does not follow a slow stretch of the
	// machine.
	var windows []float64
	winCPU, winMsgs := cpuTime(), 0
	cpu0, t0 := winCPU, time.Now()
	nextWin := t0.Add(liveWindow)
	for i := 0; i < n; {
		now := time.Now()
		if !now.Before(nextWin) {
			c := cpuTime()
			windows = append(windows, float64(c-winCPU)/1e3/float64(i-winMsgs))
			winCPU, winMsgs = c, i
			nextWin = nextWin.Add(liveWindow)
		}
		k := int(now.Sub(t0)/interval) + 1
		if k > n {
			k = n
		}
		dues := make([]int64, 0, k-i)
		for ; i < k; i++ {
			due := t0.Add(time.Duration(i) * interval)
			dues = append(dues, due.UnixNano())
			late = append(late, float64(now.Sub(due))/float64(time.Millisecond))
		}
		loop.Post(func() { lc.send(dues) })
		if i < n {
			time.Sleep(time.Until(t0.Add(time.Duration(i) * interval)))
		}
	}
	ph := &livePhase{wall: time.Since(t0), sent: uint64(n), lateP99: quantile(late, 0.99), cpuWindows: windows}
	if err := lc.onLoop(0, func() error {
		ph.delivered = lc.delivered - delivered0
		if lc.accepted > lc.advanced {
			ph.backlog = lc.accepted - lc.advanced
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for drainEnd := time.Now().Add(liveDrain); time.Now().Before(drainEnd); time.Sleep(5 * time.Millisecond) {
		var drained bool
		if err := lc.onLoop(0, func() error { drained = lc.advanced >= lc.accepted; return nil }); err != nil {
			return nil, err
		}
		if drained {
			break
		}
	}
	ph.cpu = cpuTime() - cpu0
	return ph, nil
}

// account folds the run's load phases into the result: every generated
// message is an operation, failed when refused, delivered out of order, or
// never delivered; a backlog past the bound makes the run invalid.
func (lc *liveCluster) account(res *result, phases ...*livePhase) error {
	for _, ph := range phases {
		res.Attempted += ph.sent
		if ph.backlog > liveBacklogLimit {
			res.problem("open loop: backlog of %d messages when generation stopped (limit %d)", ph.backlog, liveBacklogLimit)
		}
	}
	return lc.onLoop(0, func() error {
		res.Failed += messageFailures(lc.refused, lc.misordered, lc.accepted, lc.advanced)
		return nil
	})
}

// messageFailures counts the failed messages: refused by backpressure,
// delivered behind the sequence, or accepted but never delivered in it.
func messageFailures(refused, misordered, accepted, advanced uint64) uint64 {
	var lost uint64
	if accepted > advanced {
		lost = accepted - advanced
	}
	return refused + misordered + lost
}

// daemonStats snapshots every daemon's counters (safe off the loop).
func (lc *liveCluster) daemonStats() []gcs.Stats {
	out := make([]gcs.Stats, len(lc.nodes))
	for i, n := range lc.nodes {
		out[i] = n.node.Daemon().Stats()
	}
	return out
}

// probeLoops posts a timestamped no-op on every node's loop every
// liveProbeEvery, recording how long each waited to run; the returned
// function stops the prober and waits for it.
func (lc *liveCluster) probeLoops() func() {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(liveProbeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, n := range lc.nodes {
				posted := time.Now()
				n.loop.Post(func() { lc.trace.record(&lc.trace.loopWait, time.Since(posted)) })
			}
		}
	}()
	return func() { close(stop); <-done }
}

// liveTrace holds the traced run's measurements across all three daemons.
// The wrappers are installed when a daemon is built and record only while
// on is set.
type liveTrace struct {
	on           atomic.Bool
	sendNanos    atomic.Int64
	datagrams    atomic.Int64
	bytes        atomic.Int64
	handlerNanos atomic.Int64

	mu        sync.Mutex
	timerLate []float64 // µs
	loopWait  []float64 // µs
}

func (t *liveTrace) record(dst *[]float64, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, float64(d)/float64(time.Microsecond))
	t.mu.Unlock()
}

// tracedClock records how late each timer callback runs against the time
// it was scheduled for (timer firing plus the wait on the loop).
type tracedClock struct {
	env.Clock
	t *liveTrace
}

func (c *tracedClock) AfterFunc(d time.Duration, f func()) env.Timer {
	if !c.t.on.Load() {
		return c.Clock.AfterFunc(d, f)
	}
	due := time.Now().Add(d)
	return c.Clock.AfterFunc(d, func() {
		c.t.record(&c.t.timerLate, time.Since(due))
		f()
	})
}

// tracedConn times sends and the inbound handler and counts datagrams and
// bytes put on the wire.
type tracedConn struct {
	env.PacketConn
	t     *liveTrace
	peers int
}

func (c *tracedConn) SendTo(to env.Addr, payload []byte) error {
	if !c.t.on.Load() {
		return c.PacketConn.SendTo(to, payload)
	}
	start := time.Now()
	err := c.PacketConn.SendTo(to, payload)
	c.t.sendNanos.Add(int64(time.Since(start)))
	c.t.datagrams.Add(1)
	c.t.bytes.Add(int64(len(payload)))
	return err
}

func (c *tracedConn) Broadcast(payload []byte) error {
	if !c.t.on.Load() {
		return c.PacketConn.Broadcast(payload)
	}
	start := time.Now()
	err := c.PacketConn.Broadcast(payload)
	c.t.sendNanos.Add(int64(time.Since(start)))
	c.t.datagrams.Add(int64(c.peers))
	c.t.bytes.Add(int64(c.peers * len(payload)))
	return err
}

func (c *tracedConn) SetHandler(h env.Handler) {
	c.PacketConn.SetHandler(func(from env.Addr, payload []byte) {
		if !c.t.on.Load() {
			h(from, payload)
			return
		}
		start := time.Now()
		h(from, payload)
		c.t.handlerNanos.Add(int64(time.Since(start)))
	})
}
