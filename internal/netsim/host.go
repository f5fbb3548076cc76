package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"wackamole/internal/arp"
	"wackamole/internal/env"
	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

// Errors reported by host networking operations.
var (
	ErrHostDown    = errors.New("netsim: host is down")
	ErrNICDown     = errors.New("netsim: interface is down")
	ErrNoRoute     = errors.New("netsim: no route to destination")
	ErrPortInUse   = errors.New("netsim: port already bound")
	ErrAddrInUse   = errors.New("netsim: address already configured")
	ErrAddrMissing = errors.New("netsim: address not configured")
)

// defaultARPTTL is how long a learned ARP entry stays valid. Real stacks use
// anywhere from tens of seconds to hours; ten minutes makes the cost of a
// stale entry visible in fail-over experiments without spoofing.
const defaultARPTTL = 10 * time.Minute

const (
	arpRetryInterval = 500 * time.Millisecond
	arpMaxRetries    = 3
	defaultTTL       = 64
)

// UDPHandler consumes a datagram delivered to a bound socket.
type UDPHandler func(src, dst netip.AddrPort, payload []byte)

// Host is a simulated machine: a set of interfaces, a routing table, UDP
// sockets, and ARP state. Routers are Hosts with forwarding enabled.
type Host struct {
	net        *Network
	name       string
	nics       []*NIC
	alive      bool
	forwarding bool
	routes     []route
	sockets    map[uint16]*Socket
	arpTTL     time.Duration
	// procJitter models a loaded machine: every timer firing and inbound
	// frame is delayed by a uniform draw from [0, procJitter]. The paper's
	// §6 notes that on highly loaded machines the daemons should run with
	// real-time priority to avoid false-positive failure detections; this
	// knob reproduces the effect of not doing so.
	procJitter time.Duration
	// acceptUnsolicitedARP controls whether ARP replies create new cache
	// entries (in addition to updating existing ones). Hosts that must learn
	// bindings they never asked for — cluster peers receiving spoofed
	// announcements — enable it.
	acceptUnsolicitedARP bool
	// ignoreBroadcastGratuitousARP models devices that discard gratuitous
	// announcements arriving as broadcast frames but honour unicast ARP
	// replies addressed to them — the reason the paper's router application
	// shares ARP caches between daemons and spoofs each known host
	// individually (§5.2).
	ignoreBroadcastGratuitousARP bool
}

type route struct {
	prefix netip.Prefix
	nic    *NIC
	gw     netip.Addr // invalid ⇒ on-link
}

// Socket is a bound UDP endpoint on a host.
type Socket struct {
	host    *Host
	addr    netip.Addr // invalid ⇒ wildcard
	port    uint16
	handler UDPHandler
	// closed is atomic so that Close may race with a frame delivery running
	// on the simulation goroutine: tear-down code sometimes runs off-loop,
	// and a delivery that observes the flag must simply drop the datagram
	// rather than invoke the handler of a dead socket.
	closed atomic.Bool
}

// NewHost creates a live host with no interfaces.
func (n *Network) NewHost(name string) *Host {
	h := &Host{
		net:     n,
		name:    name,
		alive:   true,
		sockets: map[uint16]*Socket{},
		arpTTL:  defaultARPTTL,
	}
	n.hosts = append(n.hosts, h)
	return h
}

// Name returns the host's label (also used as the probe server identity).
func (h *Host) Name() string { return h.name }

// Alive reports whether the host is running.
func (h *Host) Alive() bool { return h.alive }

// SetARPTTL overrides the ARP cache entry lifetime for all interfaces.
func (h *Host) SetARPTTL(ttl time.Duration) { h.arpTTL = ttl }

// SetProcessingJitter makes the host behave like a loaded machine: timers
// and inbound frames are delayed by up to max.
func (h *Host) SetProcessingJitter(max time.Duration) { h.procJitter = max }

// jitter draws one scheduling delay.
func (h *Host) jitter() time.Duration {
	if h.procJitter <= 0 {
		return 0
	}
	return time.Duration(h.net.sim.Rand().Int63n(int64(h.procJitter)))
}

// SetAcceptUnsolicitedARP controls whether replies may create cache entries.
func (h *Host) SetAcceptUnsolicitedARP(v bool) { h.acceptUnsolicitedARP = v }

// SetIgnoreBroadcastGratuitousARP makes the host discard broadcast-frame
// gratuitous announcements (unicast ARP replies still update its cache).
func (h *Host) SetIgnoreBroadcastGratuitousARP(v bool) { h.ignoreBroadcastGratuitousARP = v }

// EnableForwarding turns the host into a packet-forwarding router.
func (h *Host) EnableForwarding() { h.forwarding = true }

// Crash stops the host: interfaces go silent, timers stop firing, sockets
// deliver nothing. State is retained for a later Restart.
func (h *Host) Crash() {
	h.alive = false
	h.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindFault, Node: h.name, Detail: "crash"})
}

// Restart brings a crashed host back with its configuration intact.
// Protocol state machines running on the host are responsible for their own
// recovery.
func (h *Host) Restart() {
	h.alive = true
	h.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindRestore, Node: h.name, Detail: "restart"})
}

// Now returns the current virtual time.
func (h *Host) Now() time.Time { return h.net.sim.Now() }

// AfterFunc schedules f on the simulator, gated on the host being alive at
// fire time. It satisfies env.Clock together with Now.
func (h *Host) AfterFunc(d time.Duration, f func()) env.Timer {
	return h.net.sim.After(d+h.jitter(), func() {
		if h.alive {
			f()
		}
	})
}

// Post is the allocation-free form of AfterFunc for high-rate callers: it
// schedules r d from now plus one jitter draw, skips it if the host is down
// when it fires, and returns no handle, so the event cannot be cancelled.
// The RNG and sequence use are the same as AfterFunc's.
func (h *Host) Post(d time.Duration, r sim.Runnable) {
	n := h.net
	var j *hostJob
	if l := len(n.freeHostJobs); l > 0 {
		j = n.freeHostJobs[l-1]
		n.freeHostJobs[l-1] = nil
		n.freeHostJobs = n.freeHostJobs[:l-1]
	} else {
		j = &hostJob{}
	}
	j.h, j.r = h, r
	n.sim.Post(d+h.jitter(), j)
}

// hostJob is the pooled, host-gated wrapper Post schedules.
type hostJob struct {
	h *Host
	r sim.Runnable
}

// Run recycles the job before running the callback, so a callback that
// posts again reuses it.
func (j *hostJob) Run() {
	h, r := j.h, j.r
	j.h, j.r = nil, nil
	h.net.freeHostJobs = append(h.net.freeHostJobs, j)
	if h.alive {
		r.Run()
	}
}

var _ env.Clock = (*Host)(nil)

// NIC is a network interface: one MAC, one subnet, and a set of IPv4
// addresses (the stationary address plus any virtual addresses currently
// held). Virtual IP acquire/release in the paper's IP-address-control
// mechanism maps to AddAddr/RemoveAddr here.
type NIC struct {
	host    *Host
	seg     *Segment
	name    string
	mac     MAC
	up      bool
	prefix  netip.Prefix
	primary netip.Addr
	addrs   map[netip.Addr]bool
	arp     map[netip.Addr]arpEntry
	pending map[netip.Addr]*arpPending
	// Directional gray-failure impairments (armed by internal/faults).
	// txLoss/txDelay apply to frames this interface transmits, rxLoss/rxDelay
	// to frames it would receive — modelling asymmetric reachability, where a
	// link passes traffic one way but not the other. All four default to
	// zero, and every use in the transmit path is gated on the knob being
	// nonzero, so the default path draws exactly the same RNG sequence as it
	// did before the fault plane existed.
	txLoss  float64
	rxLoss  float64
	txDelay time.Duration
	rxDelay time.Duration
}

type arpEntry struct {
	mac     MAC
	expires time.Time
}

type arpPending struct {
	packets []*ipPacket
	retries int
	timer   env.Timer
}

// AttachNIC connects the host to seg with primary address addr (which also
// defines the subnet). The NIC comes up immediately.
func (h *Host) AttachNIC(seg *Segment, name string, addr netip.Prefix) *NIC {
	if !addr.Addr().Is4() {
		panic(fmt.Sprintf("netsim: %s: only IPv4 is modelled, got %v", h.name, addr))
	}
	mac := h.net.nextMAC
	h.net.nextMAC++
	nic := &NIC{
		host:    h,
		seg:     seg,
		name:    name,
		mac:     mac,
		up:      true,
		prefix:  addr.Masked(),
		primary: addr.Addr(),
		addrs:   map[netip.Addr]bool{addr.Addr(): true},
		arp:     map[netip.Addr]arpEntry{},
		pending: map[netip.Addr]*arpPending{},
	}
	h.nics = append(h.nics, nic)
	seg.nics = append(seg.nics, nic)
	// Connected route for the subnet.
	h.routes = append(h.routes, route{prefix: nic.prefix, nic: nic})
	return nic
}

// Name returns the interface label.
func (nic *NIC) Name() string { return nic.name }

// MAC returns the interface's hardware address.
func (nic *NIC) MAC() MAC { return nic.mac }

// Primary returns the stationary address.
func (nic *NIC) Primary() netip.Addr { return nic.primary }

// Prefix returns the interface's subnet.
func (nic *NIC) Prefix() netip.Prefix { return nic.prefix }

// Segment returns the broadcast domain the NIC is attached to.
func (nic *NIC) Segment() *Segment { return nic.seg }

// Host returns the owning host.
func (nic *NIC) Host() *Host { return nic.host }

// Up reports whether the interface is enabled.
func (nic *NIC) Up() bool { return nic.up }

// SetUp enables or disables the interface. Disabling models the paper's
// fault-injection method: "disconnecting the interface through which Spread,
// Wackamole, and the experimental server access the network".
func (nic *NIC) SetUp(up bool) {
	if nic.up == up {
		return
	}
	nic.up = up
	kind := obs.KindFault
	if up {
		kind = obs.KindRestore
	}
	nic.host.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: kind,
		Node: nic.host.name, Detail: nic.name})
}

// SetTxImpairment installs a loss probability and an added fixed delay on
// frames the interface transmits. Zero values clear the direction.
func (nic *NIC) SetTxImpairment(loss float64, delay time.Duration) {
	nic.txLoss, nic.txDelay = loss, delay
}

// SetRxImpairment installs a loss probability and an added fixed delay on
// frames the interface receives. Zero values clear the direction.
func (nic *NIC) SetRxImpairment(loss float64, delay time.Duration) {
	nic.rxLoss, nic.rxDelay = loss, delay
}

// ClearImpairments removes all directional loss and delay from the
// interface, restoring the clean-link behaviour.
func (nic *NIC) ClearImpairments() {
	nic.txLoss, nic.rxLoss, nic.txDelay, nic.rxDelay = 0, 0, 0, 0
}

// Impaired reports whether any directional impairment is active.
func (nic *NIC) Impaired() bool {
	return nic.txLoss > 0 || nic.rxLoss > 0 || nic.txDelay > 0 || nic.rxDelay > 0
}

// AddAddr configures an additional (virtual) address on the interface.
func (nic *NIC) AddAddr(a netip.Addr) error {
	if nic.addrs[a] {
		return fmt.Errorf("%w: %v on %s/%s", ErrAddrInUse, a, nic.host.name, nic.name)
	}
	nic.addrs[a] = true
	return nil
}

// RemoveAddr drops an address from the interface. The primary address cannot
// be removed.
func (nic *NIC) RemoveAddr(a netip.Addr) error {
	if a == nic.primary {
		return fmt.Errorf("netsim: cannot remove primary address %v from %s/%s", a, nic.host.name, nic.name)
	}
	if !nic.addrs[a] {
		return fmt.Errorf("%w: %v on %s/%s", ErrAddrMissing, a, nic.host.name, nic.name)
	}
	delete(nic.addrs, a)
	return nil
}

// HasAddr reports whether the interface currently answers for a.
func (nic *NIC) HasAddr(a netip.Addr) bool { return nic.addrs[a] }

// Addrs returns all configured addresses, sorted.
func (nic *NIC) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(nic.addrs))
	for a := range nic.addrs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Broadcast returns the subnet broadcast address for the NIC.
func (nic *NIC) Broadcast() netip.Addr {
	bits := nic.prefix.Bits()
	a4 := nic.prefix.Addr().As4()
	var mask uint32 = 0xFFFFFFFF >> bits
	v := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	v |= mask
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// ARPEntry reports the cached binding for ip, if present and fresh.
func (nic *NIC) ARPEntry(ip netip.Addr) (MAC, bool) {
	e, ok := nic.arp[ip]
	if !ok || nic.host.net.sim.Now().After(e.expires) {
		return 0, false
	}
	return e.mac, true
}

// ARPEntries returns a copy of the interface's fresh cache entries. The
// ARP-cache-sharing mechanism of the paper's router application (§5.2)
// reads these, standing in for /proc/net/arp.
func (nic *NIC) ARPEntries() map[netip.Addr]MAC {
	now := nic.host.net.sim.Now()
	out := make(map[netip.Addr]MAC, len(nic.arp))
	for ip, e := range nic.arp {
		if !now.After(e.expires) {
			out[ip] = e.mac
		}
	}
	return out
}

// FlushARP clears the interface's ARP cache.
func (nic *NIC) FlushARP() {
	nic.arp = map[netip.Addr]arpEntry{}
}

// AddRoute installs a static route. A valid gw makes it a gateway route;
// an invalid gw means on-link.
func (h *Host) AddRoute(prefix netip.Prefix, nic *NIC, gw netip.Addr) {
	h.routes = append(h.routes, route{prefix: prefix.Masked(), nic: nic, gw: gw})
}

// RemoveRoute deletes the first route exactly matching prefix and gateway.
// It reports whether a route was removed.
func (h *Host) RemoveRoute(prefix netip.Prefix, gw netip.Addr) bool {
	prefix = prefix.Masked()
	for i, r := range h.routes {
		if r.prefix == prefix && r.gw == gw {
			h.routes = append(h.routes[:i], h.routes[i+1:]...)
			return true
		}
	}
	return false
}

// SetDefaultGateway installs a 0.0.0.0/0 route via gw out of nic.
func (h *Host) SetDefaultGateway(nic *NIC, gw netip.Addr) {
	h.AddRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0), nic, gw)
}

// lookupRoute performs longest-prefix match.
func (h *Host) lookupRoute(dst netip.Addr) (nic *NIC, nexthop netip.Addr, ok bool) {
	best := -1
	for _, r := range h.routes {
		if r.prefix.Contains(dst) && r.prefix.Bits() > best {
			best = r.prefix.Bits()
			nic = r.nic
			if r.gw.IsValid() {
				nexthop = r.gw
			} else {
				nexthop = dst
			}
			ok = true
		}
	}
	return nic, nexthop, ok
}

// hasLocalAddr reports whether any interface answers for a.
func (h *Host) hasLocalAddr(a netip.Addr) bool {
	for _, nic := range h.nics {
		if nic.addrs[a] {
			return true
		}
	}
	return false
}

// NICs returns the host's interfaces in attachment order.
func (h *Host) NICs() []*NIC {
	out := make([]*NIC, len(h.nics))
	copy(out, h.nics)
	return out
}

// BindUDP registers a handler for datagrams to (addr, port). An invalid addr
// binds the wildcard. One socket per port is supported, matching what the
// simulated workloads need.
func (h *Host) BindUDP(addr netip.Addr, port uint16, fn UDPHandler) (*Socket, error) {
	if s, ok := h.sockets[port]; ok && !s.closed.Load() {
		return nil, fmt.Errorf("%w: %s port %d", ErrPortInUse, h.name, port)
	}
	s := &Socket{host: h, addr: addr, port: port, handler: fn}
	h.sockets[port] = s
	return s, nil
}

// Close unbinds the socket. Close only flips the atomic flag — it does not
// touch the host's socket map — so it is safe to call concurrently with the
// simulation loop; BindUDP reclaims the port by overwriting the closed
// socket's slot.
func (s *Socket) Close() {
	s.closed.Store(true)
}

// SendUDP transmits a datagram. The source address may be invalid, in which
// case the egress interface's primary address is used. Destinations equal to
// a local address are delivered locally (loopback); subnet broadcast
// destinations fan out on the segment and also loop back to local sockets.
func (h *Host) SendUDP(src, dst netip.AddrPort, payload []byte) error {
	if !h.alive {
		return ErrHostDown
	}
	p := &ipPacket{
		src:     src.Addr(),
		dst:     dst.Addr(),
		ttl:     defaultTTL,
		srcPort: src.Port(),
		dstPort: dst.Port(),
		payload: append([]byte(nil), payload...),
	}
	// Local delivery.
	if h.hasLocalAddr(p.dst) {
		if !p.src.IsValid() {
			p.src = p.dst
		}
		h.net.sim.After(10*time.Microsecond, func() {
			if h.alive {
				h.deliverUDP(p)
			}
		})
		return nil
	}
	nic, nexthop, ok := h.lookupRoute(p.dst)
	if !ok {
		// Maybe a broadcast to a directly attached subnet.
		if bnic := h.broadcastNIC(p.dst); bnic != nil {
			nic, nexthop, ok = bnic, p.dst, true
		}
	}
	if !ok {
		return fmt.Errorf("%w: %v from %s", ErrNoRoute, p.dst, h.name)
	}
	if !p.src.IsValid() {
		p.src = nic.primary
		if p.srcPort == 0 {
			p.srcPort = src.Port()
		}
	}
	return h.egress(nic, nexthop, p)
}

// Network returns the network this host belongs to. Traffic generators use
// it to reach the payload-buffer pool that pairs with SendUDPOwned.
func (h *Host) Network() *Network { return h.net }

// SendUDPOwned transmits a datagram whose payload buffer the caller hands
// over to the network, typically one obtained from Network.GetBuf. Unlike
// SendUDP no defensive copy is made; the buffer and the packet record are
// recycled after the receiving socket's handler returns. Two contracts
// follow: the caller must not touch payload after a successful call, and
// receiving handlers must not retain the payload slice past their return.
// Only unicast destinations take the owned fast path — broadcast and local
// loopback destinations fall back to SendUDP's copy-free-of-pools
// semantics. On error the caller retains ownership of payload.
func (h *Host) SendUDPOwned(src, dst netip.AddrPort, payload []byte) error {
	if !h.alive {
		return ErrHostDown
	}
	if h.hasLocalAddr(dst.Addr()) {
		return h.SendUDP(src, dst, payload)
	}
	nic, nexthop, ok := h.lookupRoute(dst.Addr())
	if !ok || h.isBroadcastFor(nic, dst.Addr()) {
		// Unroutable (possibly a limited broadcast) or subnet broadcast:
		// both are off the fast path.
		return h.SendUDP(src, dst, payload)
	}
	p := h.net.getPacket()
	p.src = src.Addr()
	p.dst = dst.Addr()
	p.ttl = defaultTTL
	p.srcPort = src.Port()
	p.dstPort = dst.Port()
	p.payload = payload
	p.owned = true
	if !p.src.IsValid() {
		p.src = nic.primary
	}
	if err := h.egress(nic, nexthop, p); err != nil {
		p.payload = nil // caller keeps the buffer on error
		h.net.putPacket(p)
		return err
	}
	return nil
}

// broadcastNIC returns the NIC whose subnet broadcast (or the limited
// broadcast address) matches dst.
func (h *Host) broadcastNIC(dst netip.Addr) *NIC {
	for _, nic := range h.nics {
		if dst == nic.Broadcast() || dst == netip.AddrFrom4([4]byte{255, 255, 255, 255}) {
			return nic
		}
	}
	return nil
}

func (h *Host) isBroadcastFor(nic *NIC, dst netip.Addr) bool {
	return dst == nic.Broadcast() || dst == netip.AddrFrom4([4]byte{255, 255, 255, 255})
}

// egress pushes p out of nic towards nexthop, resolving ARP as needed.
func (h *Host) egress(nic *NIC, nexthop netip.Addr, p *ipPacket) error {
	if !nic.up {
		return fmt.Errorf("%w: %s/%s", ErrNICDown, h.name, nic.name)
	}
	if h.isBroadcastFor(nic, p.dst) {
		// Broadcast fans out to many receivers; an owned packet would be
		// recycled once per receiver, so release ownership first (the one
		// extra garbage-collected packet is irrelevant off the fast path).
		p.owned = false
		nic.seg.transmit(nic, frame{src: nic.mac, dst: BroadcastMAC, kind: frameIPv4, pkt: p})
		// Local sockets also hear subnet broadcasts.
		h.net.sim.After(10*time.Microsecond, func() {
			if h.alive && nic.up {
				h.deliverUDP(p)
			}
		})
		return nil
	}
	if mac, ok := nic.ARPEntry(nexthop); ok {
		nic.seg.transmit(nic, frame{src: nic.mac, dst: mac, kind: frameIPv4, pkt: p})
		return nil
	}
	h.arpResolve(nic, nexthop, p)
	return nil
}

// arpResolve queues p and issues an ARP request for ip, with bounded retry.
func (h *Host) arpResolve(nic *NIC, ip netip.Addr, p *ipPacket) {
	pend, ok := nic.pending[ip]
	if ok {
		pend.packets = append(pend.packets, p)
		return
	}
	pend = &arpPending{packets: []*ipPacket{p}}
	nic.pending[ip] = pend
	h.sendARPRequest(nic, ip)
	var retry func()
	retry = func() {
		cur, still := nic.pending[ip]
		if !still || cur != pend {
			return
		}
		if pend.retries >= arpMaxRetries {
			delete(nic.pending, ip)
			h.net.log.Logf("netsim: %s: ARP for %v timed out, dropping %d packets", h.name, ip, len(pend.packets))
			return
		}
		pend.retries++
		h.sendARPRequest(nic, ip)
		pend.timer = h.AfterFunc(arpRetryInterval, retry)
	}
	pend.timer = h.AfterFunc(arpRetryInterval, retry)
}

func (h *Host) sendARPRequest(nic *NIC, ip netip.Addr) {
	if !nic.up {
		return
	}
	req := arp.Packet{
		Op:        arp.OpRequest,
		SenderMAC: nic.mac.Bytes(),
		SenderIP:  nic.primary,
		TargetIP:  ip,
	}
	payload, err := req.Encode()
	if err != nil {
		h.net.log.Logf("netsim: %s: encode ARP request: %v", h.name, err)
		return
	}
	nic.seg.transmit(nic, frame{src: nic.mac, dst: BroadcastMAC, kind: frameARP, arp: payload})
}

// SendGratuitousARP broadcasts a gratuitous ARP reply announcing that this
// interface answers for ip. This is the mechanism Wackamole's
// platform-specific code uses to update router caches after a take-over.
func (h *Host) SendGratuitousARP(nic *NIC, ip netip.Addr) error {
	return h.SendSpoofedARP(nic, ip, BroadcastMAC)
}

// SendSpoofedARP sends an unsolicited ARP reply claiming <ip, nic.mac> to a
// specific destination MAC (or broadcast). The paper's §5.1 describes
// exactly this: "spoofing of ARP reply packets to force updates to the
// router ARP cache".
func (h *Host) SendSpoofedARP(nic *NIC, ip netip.Addr, dst MAC) error {
	if !h.alive {
		return ErrHostDown
	}
	if !nic.up {
		return fmt.Errorf("%w: %s/%s", ErrNICDown, h.name, nic.name)
	}
	rep := arp.Packet{
		Op:        arp.OpReply,
		SenderMAC: nic.mac.Bytes(),
		SenderIP:  ip,
		TargetMAC: dst.Bytes(),
		TargetIP:  ip, // gratuitous form: sender == target
	}
	payload, err := rep.Encode()
	if err != nil {
		return fmt.Errorf("netsim: encode spoofed ARP: %w", err)
	}
	h.net.counters.ARPSpoofs++
	if h.net.tracer.Enabled() {
		detail := "unicast"
		if dst == BroadcastMAC {
			detail = "broadcast"
		}
		h.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindARPSpoof,
			Node: h.name, Addr: ip.String(), Detail: detail})
	}
	nic.seg.transmit(nic, frame{src: nic.mac, dst: dst, kind: frameARP, arp: payload})
	return nil
}

// receiveFrame is the inbound path for a frame accepted by nic.
func (h *Host) receiveFrame(nic *NIC, fr frame) {
	switch fr.kind {
	case frameARP:
		h.receiveARP(nic, fr)
	case frameIPv4:
		h.receiveIP(nic, fr)
	}
}

func (h *Host) receiveARP(nic *NIC, fr frame) {
	p, err := arp.Decode(fr.arp)
	if err != nil {
		h.net.log.Logf("netsim: %s: drop ARP frame: %v", h.name, err)
		return
	}
	senderMAC := MACFromBytes(p.SenderMAC)
	now := h.net.sim.Now()
	targetIsUs := nic.addrs[p.TargetIP]

	_, known := nic.arp[p.SenderIP]
	// Standard cache maintenance: update an existing entry on any ARP
	// traffic from the sender; create a new entry when we are the target,
	// when the packet answers an outstanding resolution, or when the host
	// opts into unsolicited learning.
	_, awaited := nic.pending[p.SenderIP]
	discard := h.ignoreBroadcastGratuitousARP && p.IsGratuitous() && fr.dst == BroadcastMAC && !awaited
	if !discard && (known || targetIsUs || awaited || h.acceptUnsolicitedARP) {
		nic.arp[p.SenderIP] = arpEntry{mac: senderMAC, expires: now.Add(h.arpTTL)}
	}
	if awaited {
		h.flushPending(nic, p.SenderIP, senderMAC)
	}

	if p.Op == arp.OpRequest && targetIsUs {
		rep := arp.Packet{
			Op:        arp.OpReply,
			SenderMAC: nic.mac.Bytes(),
			SenderIP:  p.TargetIP,
			TargetMAC: p.SenderMAC,
			TargetIP:  p.SenderIP,
		}
		payload, err := rep.Encode()
		if err != nil {
			h.net.log.Logf("netsim: %s: encode ARP reply: %v", h.name, err)
			return
		}
		nic.seg.transmit(nic, frame{src: nic.mac, dst: senderMAC, kind: frameARP, arp: payload})
	}
}

func (h *Host) flushPending(nic *NIC, ip netip.Addr, mac MAC) {
	pend, ok := nic.pending[ip]
	if !ok {
		return
	}
	delete(nic.pending, ip)
	if pend.timer != nil {
		pend.timer.Stop()
	}
	for _, p := range pend.packets {
		if nic.up {
			nic.seg.transmit(nic, frame{src: nic.mac, dst: mac, kind: frameIPv4, pkt: p})
		}
	}
}

func (h *Host) receiveIP(nic *NIC, fr frame) {
	p := fr.pkt
	if nic.addrs[p.dst] || h.isBroadcastFor(nic, p.dst) {
		h.deliverUDP(p)
		return
	}
	if h.forwarding {
		h.forward(p)
		return
	}
	// Not for us and not forwarding: drop silently, as a real stack would.
	if p.owned {
		h.net.putPacket(p)
	}
}

func (h *Host) forward(p *ipPacket) {
	if h.net.trace != nil {
		h.net.emitTrace(TraceEvent{Kind: TraceForward, Host: h.name, SrcIP: p.src, DstIP: p.dst})
	}
	if p.ttl <= 1 {
		h.net.log.Logf("netsim: %s: TTL expired for %v -> %v", h.name, p.src, p.dst)
		if p.owned {
			h.net.putPacket(p)
		}
		return
	}
	nic, nexthop, ok := h.lookupRoute(p.dst)
	if !ok {
		h.net.log.Logf("netsim: %s: no route for %v", h.name, p.dst)
		if p.owned {
			h.net.putPacket(p)
		}
		return
	}
	out := p
	if !p.owned {
		// A broadcast frame shares its packet between receivers, so the
		// hop count must not be decremented in place. Owned packets are
		// unicast with a single consumer and forward without copying.
		cp := *p
		out = &cp
	}
	out.ttl--
	if err := h.egress(nic, nexthop, out); err != nil {
		h.net.log.Logf("netsim: %s: forward %v -> %v: %v", h.name, p.src, p.dst, err)
		if out.owned {
			h.net.putPacket(out)
		}
	}
}

func (h *Host) deliverUDP(p *ipPacket) {
	if s, ok := h.sockets[p.dstPort]; ok && !s.closed.Load() &&
		(!s.addr.IsValid() || s.addr == p.dst) {
		src := netip.AddrPortFrom(p.src, p.srcPort)
		dst := netip.AddrPortFrom(p.dst, p.dstPort)
		s.handler(src, dst, p.payload)
	}
	// Terminal consumption point for owned packets: whether or not a
	// handler ran, the datagram's life ends here. Handlers must not retain
	// the payload past their return — SendUDPOwned documents the contract.
	if p.owned {
		h.net.putPacket(p)
	}
}

// Ensure sim.Timer satisfies env.Timer (compile-time interface check).
var _ env.Timer = (*sim.Timer)(nil)
