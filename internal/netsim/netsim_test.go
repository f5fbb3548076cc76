package netsim

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/sim"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// lan builds a single-segment network with n hosts 10.0.0.1..n/24.
func lan(t *testing.T, seed int64, n int) (*sim.Sim, *Network, *Segment, []*Host) {
	t.Helper()
	s := sim.New(seed)
	nw := New(s)
	seg := nw.NewSegment("lan", DefaultSegmentConfig())
	hosts := make([]*Host, n)
	for i := range hosts {
		h := nw.NewHost(string(rune('a' + i)))
		h.AttachNIC(seg, "eth0", mustPrefix(t, netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}).String()+"/24"))
		hosts[i] = h
	}
	return s, nw, seg, hosts
}

func TestUnicastUDPWithARP(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]
	var got []byte
	var gotSrc netip.AddrPort
	if _, err := b.BindUDP(netip.Addr{}, 9000, func(src, dst netip.AddrPort, payload []byte) {
		got = payload
		gotSrc = src
	}); err != nil {
		t.Fatal(err)
	}
	err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 9000), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if string(got) != "hello" {
		t.Fatalf("payload = %q, want hello", got)
	}
	if gotSrc.Addr() != addr("10.0.0.1") {
		t.Fatalf("src = %v, want 10.0.0.1", gotSrc)
	}
	// ARP resolution should have populated both caches (b learns a from the
	// request it answered).
	if _, ok := a.NICs()[0].ARPEntry(addr("10.0.0.2")); !ok {
		t.Error("sender did not cache the resolved entry")
	}
	if _, ok := b.NICs()[0].ARPEntry(addr("10.0.0.1")); !ok {
		t.Error("responder did not learn the requester's entry")
	}
}

func TestSecondSendUsesCache(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]
	count := 0
	if _, err := b.BindUDP(netip.Addr{}, 9000, func(_, _ netip.AddrPort, _ []byte) { count++ }); err != nil {
		t.Fatal(err)
	}
	dst := netip.AddrPortFrom(addr("10.0.0.2"), 9000)
	if err := a.SendUDP(netip.AddrPort{}, dst, []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	first := s.Fired()
	if err := a.SendUDP(netip.AddrPort{}, dst, []byte("2")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if count != 2 {
		t.Fatalf("delivered %d, want 2", count)
	}
	// The cached send needs exactly one frame event; the first needed the
	// ARP exchange too.
	if delta := s.Fired() - first; delta != 1 {
		t.Fatalf("cached send used %d events, want 1", delta)
	}
}

func TestBroadcastReachesAllIncludingSender(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 4)
	got := map[string]int{}
	for _, h := range hosts {
		h := h
		if _, err := h.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) {
			got[h.Name()]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	err := hosts[0].SendUDP(
		netip.AddrPortFrom(addr("10.0.0.1"), 7000),
		netip.AddrPortFrom(addr("10.0.0.255"), 7000),
		[]byte("all"))
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for _, h := range hosts {
		if got[h.Name()] != 1 {
			t.Fatalf("host %s received %d, want 1 (got map %v)", h.Name(), got[h.Name()], got)
		}
	}
}

func TestLossRateOneDropsEverything(t *testing.T) {
	s := sim.New(1)
	nw := New(s)
	cfg := DefaultSegmentConfig()
	cfg.LossRate = 1.0
	seg := nw.NewSegment("lossy", cfg)
	a := nw.NewHost("a")
	a.AttachNIC(seg, "eth0", mustPrefix(t, "10.0.0.1/24"))
	b := nw.NewHost("b")
	b.AttachNIC(seg, "eth0", mustPrefix(t, "10.0.0.2/24"))
	delivered := false
	if _, err := b.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.255"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if delivered {
		t.Fatal("frame delivered on a segment with 100% loss")
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	s, _, seg, hosts := lan(t, 1, 3)
	a, b, c := hosts[0], hosts[1], hosts[2]
	recv := map[string]int{}
	for _, h := range []*Host{b, c} {
		h := h
		if _, err := h.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) { recv[h.Name()]++ }); err != nil {
			t.Fatal(err)
		}
	}
	seg.Partition([]*Host{a, b}, []*Host{c})
	if err := a.SendUDP(netip.AddrPortFrom(addr("10.0.0.1"), 7000), netip.AddrPortFrom(addr("10.0.0.255"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if recv["b"] != 1 || recv["c"] != 0 {
		t.Fatalf("partitioned delivery = %v, want b only", recv)
	}
	seg.Heal()
	if err := a.SendUDP(netip.AddrPortFrom(addr("10.0.0.1"), 7000), netip.AddrPortFrom(addr("10.0.0.255"), 7000), []byte("y")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if recv["b"] != 2 || recv["c"] != 1 {
		t.Fatalf("post-heal delivery = %v, want b:2 c:1", recv)
	}
}

func TestPartitionRequiresFullCoverage(t *testing.T) {
	_, _, seg, hosts := lan(t, 1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Partition missing a host did not panic")
		}
	}()
	seg.Partition([]*Host{hosts[0], hosts[1]}) // hosts[2] omitted
}

func TestNICDownBlocksTraffic(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]
	delivered := false
	if _, err := b.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	b.NICs()[0].SetUp(false)
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * time.Second)
	if delivered {
		t.Fatal("delivered through a downed NIC")
	}
}

func TestCrashStopsTimers(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	fired := false
	h.AfterFunc(time.Second, func() { fired = true })
	h.Crash()
	s.Run()
	if fired {
		t.Fatal("timer fired on crashed host")
	}
	h.Restart()
	h.AfterFunc(time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("timer did not fire after restart")
	}
}

// recorder is a Runnable that logs the instant it runs.
type recorder struct {
	s   *sim.Sim
	id  int
	log *[]string
}

func (r *recorder) Run() { *r.log = append(*r.log, fmt.Sprintf("%d@%v", r.id, r.s.Elapsed())) }

// TestHostPostMatchesAfterFunc pins Post to AfterFunc's schedule: the same
// jitter draw at schedule time and the same sequence use, so swapping one
// for the other moves no event and no later random draw.
func TestHostPostMatchesAfterFunc(t *testing.T) {
	run := func(usePost bool) ([]string, int64) {
		s, _, _, hosts := lan(t, 9, 1)
		h := hosts[0]
		h.SetProcessingJitter(3 * time.Millisecond)
		var log []string
		for i := 0; i < 50; i++ {
			r := &recorder{s: s, id: i, log: &log}
			d := time.Duration(i%7) * time.Millisecond
			if usePost {
				h.Post(d, r)
			} else {
				h.AfterFunc(d, r.Run)
			}
		}
		s.Run()
		return log, s.Rand().Int63()
	}
	gotLog, gotNext := run(true)
	wantLog, wantNext := run(false)
	if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Fatalf("Post order %v\nAfterFunc order %v", gotLog, wantLog)
	}
	if gotNext != wantNext {
		t.Fatal("Post and AfterFunc left the random source in different states")
	}
}

func TestHostPostSkipsDownHost(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	var log []string
	h.Post(time.Second, &recorder{s: s, id: 1, log: &log})
	h.Crash()
	s.Run()
	if len(log) != 0 {
		t.Fatalf("runnable ran on crashed host: %v", log)
	}
	h.Restart()
	h.Post(time.Second, &recorder{s: s, id: 2, log: &log})
	s.Run()
	if len(log) != 1 {
		t.Fatalf("runnable did not run after restart: %v", log)
	}
}

type nopRunnable struct{}

func (*nopRunnable) Run() {}

func TestHostPostDoesNotAllocate(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	h.SetProcessingJitter(time.Millisecond)
	r := &nopRunnable{}
	h.Post(time.Millisecond, r)
	s.Step()
	if avg := testing.AllocsPerRun(1000, func() {
		h.Post(time.Millisecond, r)
		s.Step()
	}); avg != 0 {
		t.Fatalf("Host.Post+Step allocates %.2f objects, want 0", avg)
	}
}

func TestRouterForwardsBetweenSegments(t *testing.T) {
	s := sim.New(1)
	nw := New(s)
	inside := nw.NewSegment("inside", DefaultSegmentConfig())
	outside := nw.NewSegment("outside", DefaultSegmentConfig())

	server := nw.NewHost("server")
	server.AttachNIC(inside, "eth0", mustPrefix(t, "10.0.0.10/24"))
	server.SetDefaultGateway(server.NICs()[0], addr("10.0.0.1"))

	router := nw.NewHost("router")
	rIn := router.AttachNIC(inside, "in", mustPrefix(t, "10.0.0.1/24"))
	_ = rIn
	router.AttachNIC(outside, "out", mustPrefix(t, "192.168.1.1/24"))
	router.EnableForwarding()

	client := nw.NewHost("client")
	client.AttachNIC(outside, "eth0", mustPrefix(t, "192.168.1.50/24"))
	client.SetDefaultGateway(client.NICs()[0], addr("192.168.1.1"))

	var reply []byte
	if _, err := server.BindUDP(netip.Addr{}, 8000, func(src, dst netip.AddrPort, payload []byte) {
		if err := server.SendUDP(netip.AddrPortFrom(dst.Addr(), dst.Port()), src, append([]byte("re:"), payload...)); err != nil {
			t.Errorf("server reply: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.BindUDP(netip.Addr{}, 8001, func(_, _ netip.AddrPort, payload []byte) {
		reply = payload
	}); err != nil {
		t.Fatal(err)
	}

	err := client.SendUDP(
		netip.AddrPortFrom(addr("192.168.1.50"), 8001),
		netip.AddrPortFrom(addr("10.0.0.10"), 8000),
		[]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if string(reply) != "re:ping" {
		t.Fatalf("reply = %q, want re:ping", reply)
	}
}

// TestStaleARPBlackholeAndSpoofRecovery reproduces the core network
// mechanism of the paper: after a virtual address moves hosts, traffic keeps
// flowing to the dead MAC until a spoofed ARP reply updates the router's
// cache (§5.1).
func TestStaleARPBlackholeAndSpoofRecovery(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 3)
	a, b, probe := hosts[0], hosts[1], hosts[2]
	vip := addr("10.0.0.100")

	if err := a.NICs()[0].AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	responses := 0
	for _, h := range []*Host{a, b} {
		h := h
		if _, err := h.BindUDP(netip.Addr{}, 8000, func(src, dst netip.AddrPort, payload []byte) {
			if err := h.SendUDP(dst, src, []byte(h.Name())); err != nil {
				t.Errorf("%s reply: %v", h.Name(), err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	var last string
	if _, err := probe.BindUDP(netip.Addr{}, 8001, func(_, _ netip.AddrPort, payload []byte) {
		responses++
		last = string(payload)
	}); err != nil {
		t.Fatal(err)
	}

	send := func() {
		if err := probe.SendUDP(netip.AddrPortFrom(addr("10.0.0.3"), 8001), netip.AddrPortFrom(vip, 8000), []byte("q")); err != nil {
			t.Fatalf("probe send: %v", err)
		}
	}
	send()
	s.RunFor(time.Second)
	if responses != 1 || last != "a" {
		t.Fatalf("initial probe: responses=%d last=%q, want 1 from a", responses, last)
	}

	// Fail a; move the VIP to b without telling anyone.
	a.NICs()[0].SetUp(false)
	if err := b.NICs()[0].AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	send()
	s.RunFor(time.Second)
	if responses != 1 {
		t.Fatalf("blackholed probe got a response (stale ARP should blackhole); responses=%d", responses)
	}

	// Spoofed ARP reply from b fixes the probe's cache.
	if err := b.SendGratuitousARP(b.NICs()[0], vip); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	send()
	s.RunFor(time.Second)
	if responses != 2 || last != "b" {
		t.Fatalf("post-spoof probe: responses=%d last=%q, want 2 from b", responses, last)
	}
}

func TestGratuitousARPUpdateOnlyByDefault(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]
	vip := addr("10.0.0.100")
	// b has never resolved vip; a's gratuitous ARP must not create an entry.
	if err := a.SendGratuitousARP(a.NICs()[0], vip); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if _, ok := b.NICs()[0].ARPEntry(vip); ok {
		t.Fatal("gratuitous ARP created an entry on a host with update-only policy")
	}
	b.SetAcceptUnsolicitedARP(true)
	if err := a.SendGratuitousARP(a.NICs()[0], vip); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if _, ok := b.NICs()[0].ARPEntry(vip); !ok {
		t.Fatal("gratuitous ARP ignored despite unsolicited learning enabled")
	}
}

func TestARPEntryExpires(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]
	a.SetARPTTL(time.Second)
	if _, err := b.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if _, ok := a.NICs()[0].ARPEntry(addr("10.0.0.2")); !ok {
		t.Fatal("entry missing immediately after resolution")
	}
	s.RunFor(2 * time.Second)
	if _, ok := a.NICs()[0].ARPEntry(addr("10.0.0.2")); ok {
		t.Fatal("entry still fresh after TTL expiry")
	}
}

func TestAddrManagement(t *testing.T) {
	_, _, _, hosts := lan(t, 1, 1)
	nic := hosts[0].NICs()[0]
	vip := addr("10.0.0.200")
	if err := nic.AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	if err := nic.AddAddr(vip); err == nil {
		t.Fatal("duplicate AddAddr succeeded")
	}
	if !nic.HasAddr(vip) {
		t.Fatal("HasAddr = false after AddAddr")
	}
	if err := nic.RemoveAddr(vip); err != nil {
		t.Fatal(err)
	}
	if err := nic.RemoveAddr(vip); err == nil {
		t.Fatal("double RemoveAddr succeeded")
	}
	if err := nic.RemoveAddr(nic.Primary()); err == nil {
		t.Fatal("RemoveAddr(primary) succeeded")
	}
	if got := nic.Broadcast(); got != addr("10.0.0.255") {
		t.Fatalf("Broadcast() = %v, want 10.0.0.255", got)
	}
}

func TestBindUDPPortInUse(t *testing.T) {
	_, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	sock, err := h.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) {}); err == nil {
		t.Fatal("double bind succeeded")
	}
	sock.Close()
	if _, err := h.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) {}); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestEndpointRoundTrip(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 3)
	eps := make([]*Endpoint, len(hosts))
	var err error
	for i, h := range hosts {
		eps[i], err = h.OpenEndpoint(h.NICs()[0], 4803)
		if err != nil {
			t.Fatal(err)
		}
	}
	type rcv struct {
		from env.Addr
		data string
	}
	inbox := map[int][]rcv{}
	for i, ep := range eps {
		i := i
		ep.SetHandler(func(from env.Addr, payload []byte) {
			inbox[i] = append(inbox[i], rcv{from, string(payload)})
		})
	}
	if got := eps[0].LocalAddr(); got != "10.0.0.1:4803" {
		t.Fatalf("LocalAddr = %q", got)
	}
	if err := eps[0].SendTo(eps[1].LocalAddr(), []byte("uni")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(inbox[1]) != 1 || inbox[1][0].data != "uni" || inbox[1][0].from != "10.0.0.1:4803" {
		t.Fatalf("unicast inbox = %v", inbox[1])
	}
	if err := eps[2].Broadcast([]byte("bc")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	for i := range eps {
		found := false
		for _, r := range inbox[i] {
			if r.data == "bc" {
				found = true
			}
		}
		if !found {
			t.Fatalf("endpoint %d missed broadcast; inbox=%v", i, inbox[i])
		}
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].SendTo(eps[1].LocalAddr(), []byte("x")); err == nil {
		t.Fatal("SendTo after Close succeeded")
	}
}

func TestUnicastToSelfLoopsBack(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	ep, err := h.OpenEndpoint(h.NICs()[0], 4803)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	ep.SetHandler(func(_ env.Addr, payload []byte) { got = string(payload) })
	if err := ep.SendTo(ep.LocalAddr(), []byte("self")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != "self" {
		t.Fatalf("self unicast = %q", got)
	}
}

func TestLatencyWithinConfiguredBounds(t *testing.T) {
	s := sim.New(7)
	nw := New(s)
	cfg := SegmentConfig{LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond}
	seg := nw.NewSegment("lan", cfg)
	a := nw.NewHost("a")
	an := a.AttachNIC(seg, "eth0", mustPrefix(t, "10.0.0.1/24"))
	b := nw.NewHost("b")
	bn := b.AttachNIC(seg, "eth0", mustPrefix(t, "10.0.0.2/24"))
	// Pre-seed ARP to isolate the data frame latency.
	an.arp[addr("10.0.0.2")] = arpEntry{mac: bn.mac, expires: s.Now().Add(time.Hour)}
	var when time.Duration
	if _, err := b.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) {
		when = s.Elapsed()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		start := s.Elapsed()
		if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err != nil {
			t.Fatal(err)
		}
		s.Run()
		d := when - start
		if d < cfg.LatencyMin || d > cfg.LatencyMax {
			t.Fatalf("latency %v outside [%v, %v]", d, cfg.LatencyMin, cfg.LatencyMax)
		}
	}
}

func TestNoRouteError(t *testing.T) {
	_, _, _, hosts := lan(t, 1, 1)
	err := hosts[0].SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("203.0.113.9"), 80), []byte("x"))
	if err == nil {
		t.Fatal("SendUDP off-subnet without a route succeeded")
	}
}

func TestMACFormatting(t *testing.T) {
	m := MAC(0x0A0000000001)
	if got := m.String(); got != "0a:00:00:00:00:01" {
		t.Fatalf("MAC.String() = %q", got)
	}
	if MACFromBytes(m.Bytes()) != m {
		t.Fatal("MAC byte round-trip failed")
	}
	if BroadcastMAC.String() != "ff:ff:ff:ff:ff:ff" {
		t.Fatalf("broadcast MAC = %q", BroadcastMAC.String())
	}
}
