package load

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/flow"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// rig is a two-host LAN: a client host and a server host answering flow
// requests on 8090.
type rig struct {
	s      *sim.Sim
	client *netsim.Host
	server *netsim.Host
	srv    *flow.Server
	target netip.AddrPort
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	ch := nw.NewHost("client")
	ch.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	sh := nw.NewHost("server")
	sh.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	srv, err := flow.NewServer(sh, 8090, flow.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		s: s, client: ch, server: sh, srv: srv,
		target: netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090),
	}
}

func TestOpenLoopRateAndClassification(t *testing.T) {
	r := newRig(t, 1)
	reg := metrics.New()
	e, err := New(r.client, Config{
		Clients: 100, Mode: Open, RPS: 500, Target: r.target, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(10 * time.Second)
	e.Stop()

	st := e.Stats()
	total := st.Total()
	// Poisson with mean 5000; allow wide but meaningful bounds.
	if total < 4000 || total > 6000 {
		t.Fatalf("completed %d requests in 10s at 500rps, want ≈5000", total)
	}
	if st.Requests[ClassOK] != total {
		t.Fatalf("fault-free run had %d non-ok requests (stats %+v)", total-st.Requests[ClassOK], st.Requests)
	}
	if st.ErrorFraction() != 0 {
		t.Fatalf("error fraction = %v, want 0", st.ErrorFraction())
	}
	if got := e.ByServer()["server"]; got != total {
		t.Errorf("ByServer[server] = %d, want %d", got, total)
	}
	// The latency histogram family must carry every response.
	hist := reg.Snapshot().MergedHistogram("load_request_latency_seconds")
	if hist.Count() != total {
		t.Errorf("latency histogram count = %d, want %d", hist.Count(), total)
	}
}

func TestClosedLoopThinkTimePacing(t *testing.T) {
	r := newRig(t, 2)
	e, err := New(r.client, Config{
		Clients: 50, Mode: Closed, ThinkTime: 100 * time.Millisecond, Target: r.target,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(10 * time.Second)
	e.Stop()

	st := e.Stats()
	total := st.Total()
	// 50 clients cycling every ≈100ms ⇒ ≈500 req/s ⇒ ≈5000 in 10s (minus
	// the staggered start of up to one think time per client).
	if total < 4000 || total > 5100 {
		t.Fatalf("completed %d requests, want ≈4950", total)
	}
	if st.Requests[ClassOK] != total {
		t.Fatalf("fault-free closed loop had errors: %+v", st.Requests)
	}
	if st.DialsOK != 50 {
		t.Errorf("DialsOK = %d, want 50 (one per client)", st.DialsOK)
	}
	if st.ConnsLost != 0 {
		t.Errorf("ConnsLost = %d in fault-free run, want 0", st.ConnsLost)
	}
}

// TestTakeoverResetsAndRecovery emulates a takeover at the flow level: the
// server process is replaced by one with no connection state. Established
// closed-loop clients must be reset, redial, and recover full goodput.
func TestTakeoverResetsAndRecovery(t *testing.T) {
	r := newRig(t, 3)
	e, err := New(r.client, Config{
		Clients: 200, Mode: Closed, ThinkTime: 200 * time.Millisecond,
		Target: r.target, RedialBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(3 * time.Second) // warm up: all 200 connected
	e.ResetStats()
	r.s.RunFor(2 * time.Second) // pre-fault window

	// Replace the server: existing connections become orphans.
	r.srv.Close()
	if _, err := flow.NewServer(r.server, 8090, flow.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(5 * time.Second)
	e.Stop()

	st := e.Stats()
	if st.ConnsLost == 0 {
		t.Fatal("no connections lost at takeover")
	}
	if st.Requests[ClassReset] == 0 {
		t.Fatal("no requests classified reset at takeover")
	}
	if st.Requests[ClassOK] == 0 {
		t.Fatal("no successful requests at all")
	}
	if st.LastOKAt.Sub(st.GapEnd) <= 0 {
		t.Error("no ok completions after the reset gap — clients did not recover")
	}
	// Goodput recovery: the last full bucket should be all-ok again.
	buckets := e.Buckets()
	if len(buckets) < 3 {
		t.Fatalf("only %d buckets", len(buckets))
	}
	last := buckets[len(buckets)-2] // -1 may be partial
	if last.Counts[ClassOK] == 0 || last.Counts[ClassReset] != 0 {
		t.Errorf("final bucket not recovered: %+v", last.Counts)
	}
}

// TestOpenLoopOutageClassesBounded drives open-loop traffic through a full
// NIC outage with no takeover: requests must terminate as timeouts (or late
// stale responses), never hang, and the ok-gap must span the outage.
func TestOpenLoopOutageClassesBounded(t *testing.T) {
	r := newRig(t, 4)
	e, err := New(r.client, Config{
		Clients: 50, Mode: Open, RPS: 200, Target: r.target,
		RTO: 100 * time.Millisecond, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(2 * time.Second)
	e.ResetStats()
	r.s.RunFor(time.Second)

	nic := r.server.NICs()[0]
	nic.SetUp(false)
	r.s.RunFor(2 * time.Second)
	nic.SetUp(true)
	r.s.RunFor(3 * time.Second)
	e.Stop()

	st := e.Stats()
	if st.Requests[ClassTimeout] == 0 {
		t.Fatalf("outage produced no timeouts: %+v", st.Requests)
	}
	if st.MaxOKGap < 1500*time.Millisecond {
		t.Errorf("MaxOKGap = %v, want ≥ most of the 2s outage", st.MaxOKGap)
	}
	if st.MaxOKGap > 4*time.Second {
		t.Errorf("MaxOKGap = %v, implausibly larger than the outage", st.MaxOKGap)
	}
	// Everything issued must eventually classify: no stuck requests.
	if pending := st.Issued - st.Total(); pending > uint64(e.fc.Conns())*4 {
		t.Errorf("%d requests unaccounted for after recovery", pending)
	}
}

func TestResetStatsClearsWindow(t *testing.T) {
	r := newRig(t, 5)
	e, err := New(r.client, Config{Clients: 10, Mode: Open, RPS: 100, Target: r.target})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(2 * time.Second)
	if e.Stats().Total() == 0 {
		t.Fatal("no traffic before reset")
	}
	e.ResetStats()
	if got := e.Stats().Total(); got != 0 {
		t.Fatalf("Total = %d immediately after ResetStats, want 0", got)
	}
	if len(e.Completions()) != 0 || len(e.Buckets()) != 0 {
		t.Fatal("completion log or timeline survived ResetStats")
	}
	r.s.RunFor(2 * time.Second)
	e.Stop()
	st := e.Stats()
	if st.Total() == 0 {
		t.Fatal("no traffic after reset")
	}
	// Bucket starts must be relative to the new epoch.
	if b := e.Buckets(); len(b) > 0 && b[0].Start != e.Epoch() {
		t.Errorf("first bucket starts %v, want epoch %v", b[0].Start, e.Epoch())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, int) {
		r := newRig(t, 42)
		e, err := New(r.client, Config{Clients: 40, Mode: Open, RPS: 300, Target: r.target})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		r.s.RunFor(5 * time.Second)
		e.Stop()
		return e.Stats().Total(), len(e.Buckets())
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("same seed diverged: totals %d/%d, buckets %d/%d", t1, t2, b1, b2)
	}
}

// TestOpenLoopArrivalDoesNotAllocate pins the open-loop arrival cycle —
// the gap draw, the host-gated Post and the arrival firing and
// rescheduling itself — at zero allocations in steady state. Every client
// is held mid-dial so arrivals only queue and no request traffic runs.
func TestOpenLoopArrivalDoesNotAllocate(t *testing.T) {
	r := newRig(t, 6)
	e, err := New(r.client, Config{Clients: 4, Mode: Open, RPS: 1000, Target: r.target})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range e.clients {
		cs.dialing = true
	}
	e.Start()
	for i := 0; i < 10; i++ {
		r.s.Step()
	}
	fired := r.s.Fired()
	if avg := testing.AllocsPerRun(1000, func() { r.s.Step() }); avg != 0 {
		t.Fatalf("open-loop arrival allocates %.2f objects, want 0", avg)
	}
	queued := 0
	for _, cs := range e.clients {
		queued += cs.queued
	}
	if got := r.s.Fired() - fired; got != 1001 || queued != 1011 {
		t.Fatalf("fired %d events and queued %d arrivals, want 1001 and 1011", got, queued)
	}
}
