// Package netsim simulates the local-area network testbed of the Wackamole
// paper (§6) under deterministic virtual time: Ethernet-like segments with
// MAC addressing and broadcast domains, ARP with per-interface caches and
// TTLs, UDP sockets, an IP forwarding path for routers, network partitions,
// and interface/host fault injection.
//
// The simulation operates at the level the paper's mechanisms need: frames
// are addressed by MAC, IP-to-MAC resolution uses real ARP request/reply
// exchanges (encoded in RFC 826 wire format by package arp), and stale ARP
// cache entries blackhole traffic exactly the way they would on a real
// segment — which is what makes Wackamole's ARP spoofing observable.
package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

// MAC is a 48-bit Ethernet address stored in the low bits of a uint64.
type MAC uint64

// BroadcastMAC is the all-ones Ethernet broadcast address.
const BroadcastMAC MAC = 0xFFFFFFFFFFFF

// String formats the MAC in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// Bytes returns the 6-byte big-endian representation.
func (m MAC) Bytes() [6]byte {
	return [6]byte{byte(m >> 40), byte(m >> 32), byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)}
}

// MACFromBytes builds a MAC from its 6-byte representation.
func MACFromBytes(b [6]byte) MAC {
	return MAC(uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5]))
}

type frameKind uint8

const (
	frameARP frameKind = iota + 1
	frameIPv4
)

// frame is an Ethernet-level datagram on a segment.
type frame struct {
	src  MAC
	dst  MAC
	kind frameKind
	arp  []byte    // RFC 826 payload when kind == frameARP
	pkt  *ipPacket // when kind == frameIPv4
}

// ipPacket is a simulated IPv4+UDP datagram. Only UDP is modelled; that is
// all the paper's protocols and measurement workload use.
type ipPacket struct {
	src     netip.Addr
	dst     netip.Addr
	ttl     uint8
	srcPort uint16
	dstPort uint16
	payload []byte
	// owned marks a packet whose struct and payload buffer came from the
	// network's pools (the SendUDPOwned fast path). Owned packets have
	// exactly one consumer — they are only ever unicast — and are recycled
	// at their terminal consumption point (after the socket handler
	// returns, or on a drop decision in the forwarding path). Packets lost
	// to link faults simply fall to the garbage collector; the pools
	// replenish themselves, so leaks under fault injection are harmless.
	owned bool
}

// SegmentConfig holds per-broadcast-domain link characteristics.
type SegmentConfig struct {
	// LatencyMin and LatencyMax bound one-way frame latency; each frame
	// draws uniformly from the interval.
	LatencyMin time.Duration
	LatencyMax time.Duration
	// LossRate is the probability, per receiver, that a frame is dropped.
	LossRate float64
}

// DefaultSegmentConfig models a lightly loaded switched 100 Mbit LAN.
func DefaultSegmentConfig() SegmentConfig {
	return SegmentConfig{
		LatencyMin: 100 * time.Microsecond,
		LatencyMax: 300 * time.Microsecond,
	}
}

// Network is a collection of segments and hosts driven by one simulator.
type Network struct {
	sim      *sim.Sim
	nextMAC  MAC
	hosts    []*Host
	log      env.Logger
	trace    func(TraceEvent)
	tracer   *obs.Tracer
	metrics  *metrics.Registry
	counters Counters

	// Freelists for the zero-allocation traffic fast path. The simulation
	// loop is single-goroutine, so plain slices suffice — no locking, no
	// sync.Pool churn.
	freePackets  []*ipPacket
	freeBufs     [][]byte
	freeJobs     []*deliveryJob
	freeHostJobs []*hostJob
}

// maxPooledBuf caps the payload buffers the network keeps; anything larger
// is left to the garbage collector so a single jumbo payload cannot pin
// memory for the rest of a trial.
const maxPooledBuf = 64 << 10

// GetBuf returns a payload buffer of length n from the network's pool,
// allocating if the pool is dry. The buffer's contents are unspecified.
// Callers hand the buffer to SendUDPOwned, which assumes ownership; the
// network returns it to the pool after final delivery.
func (n *Network) GetBuf(size int) []byte {
	if l := len(n.freeBufs); l > 0 {
		b := n.freeBufs[l-1]
		n.freeBufs[l-1] = nil
		n.freeBufs = n.freeBufs[:l-1]
		if cap(b) >= size {
			return b[:size]
		}
	}
	if size < 128 {
		return make([]byte, size, 128)
	}
	return make([]byte, size)
}

// PutBuf returns a buffer to the pool. Only buffers no longer referenced
// anywhere else may be returned.
func (n *Network) PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	n.freeBufs = append(n.freeBufs, b[:0])
}

// getPacket draws a zeroed pooled packet marked owned.
func (n *Network) getPacket() *ipPacket {
	if l := len(n.freePackets); l > 0 {
		p := n.freePackets[l-1]
		n.freePackets[l-1] = nil
		n.freePackets = n.freePackets[:l-1]
		return p
	}
	return &ipPacket{}
}

// putPacket recycles an owned packet and its payload buffer.
func (n *Network) putPacket(p *ipPacket) {
	n.PutBuf(p.payload)
	*p = ipPacket{}
	n.freePackets = append(n.freePackets, p)
}

// SetMetrics installs a latency-metrics registry; segments then record
// per-segment queue depth and frame latency (nil disables measurement).
func (n *Network) SetMetrics(r *metrics.Registry) { n.metrics = r }

// SetEventTracer installs a structured event tracer recording ARP spoofs,
// frame drops and injected faults (nil disables). This is distinct from
// SetPacketTrace, which observes every frame; the event tracer captures
// only protocol-relevant occurrences.
func (n *Network) SetEventTracer(t *obs.Tracer) { n.tracer = t }

// Counters aggregates network-wide traffic totals since construction. The
// simulation loop is single-threaded, so plain integers suffice; callers
// snapshot them between RunFor calls.
type Counters struct {
	// FramesSent counts frames entering a segment (one per transmit, not
	// per receiver).
	FramesSent uint64
	// FramesDropped counts explicit per-receiver loss draws.
	FramesDropped uint64
	// ARPSpoofs counts unsolicited ARP replies injected by hosts —
	// gratuitous broadcasts after a take-over and the §5.2 targeted
	// variants alike.
	ARPSpoofs uint64
}

// Counters returns a snapshot of the network's traffic totals.
func (n *Network) Counters() Counters { return n.counters }

// New returns an empty network on s.
func New(s *sim.Sim) *Network {
	return &Network{sim: s, nextMAC: 0x0A0000000001, log: env.NopLogger{}}
}

// SetLogger routes network-level diagnostics (drops, unroutable packets) to l.
func (n *Network) SetLogger(l env.Logger) {
	if l == nil {
		l = env.NopLogger{}
	}
	n.log = l
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *sim.Sim { return n.sim }

// Hosts returns all hosts created on the network, in creation order.
func (n *Network) Hosts() []*Host {
	out := make([]*Host, len(n.hosts))
	copy(out, n.hosts)
	return out
}

// NewSegment creates a broadcast domain with the given link characteristics.
func (n *Network) NewSegment(name string, cfg SegmentConfig) *Segment {
	if cfg.LatencyMax < cfg.LatencyMin {
		cfg.LatencyMax = cfg.LatencyMin
	}
	return &Segment{net: n, name: name, cfg: cfg, partition: map[*NIC]int{}}
}

// Segment is an Ethernet broadcast domain (one switch). Partitioning a
// segment models a switch failure splitting it into isolated port groups, as
// footnote 1 of the paper describes.
type Segment struct {
	net       *Network
	name      string
	cfg       SegmentConfig
	nics      []*NIC
	partition map[*NIC]int

	// Instruments are created lazily on the first transmit because the
	// registry may be installed after segment construction; nil instruments
	// are no-ops.
	mQueueDepth   *metrics.Gauge
	mFrameLatency *metrics.Histogram
	instrumented  bool
}

// Name returns the segment's label.
func (s *Segment) Name() string { return s.name }

// Partition splits the segment so that only hosts within the same group can
// exchange frames. Every host with a NIC on this segment must appear in
// exactly one group; Partition panics otherwise, because a silently missing
// host would invalidate an experiment.
func (s *Segment) Partition(groups ...[]*Host) {
	assigned := make(map[*NIC]int, len(s.nics))
	for gi, group := range groups {
		for _, h := range group {
			found := false
			for _, nic := range h.nics {
				if nic.seg == s {
					if _, dup := assigned[nic]; dup {
						panic(fmt.Sprintf("netsim: host %s listed in multiple partition groups", h.name))
					}
					assigned[nic] = gi + 1
					found = true
				}
			}
			if !found {
				panic(fmt.Sprintf("netsim: host %s has no NIC on segment %s", h.name, s.name))
			}
		}
	}
	if len(assigned) != len(s.nics) {
		panic(fmt.Sprintf("netsim: partition of %s covers %d of %d NICs", s.name, len(assigned), len(s.nics)))
	}
	s.partition = assigned
}

// Heal removes any partition, restoring full connectivity.
func (s *Segment) Heal() {
	s.partition = map[*NIC]int{}
}

// PartitionGroup returns the partition group nic currently belongs to (0 for
// every NIC when the segment is whole). Two NICs on the segment can exchange
// frames iff their groups are equal; checkers use this to reason about
// reachable network components without re-deriving the partition.
func (s *Segment) PartitionGroup(nic *NIC) int {
	return s.partition[nic]
}

func (s *Segment) reachable(a, b *NIC) bool {
	return s.partition[a] == s.partition[b]
}

func (s *Segment) latency() time.Duration {
	spread := s.cfg.LatencyMax - s.cfg.LatencyMin
	if spread <= 0 {
		return s.cfg.LatencyMin
	}
	return s.cfg.LatencyMin + time.Duration(s.net.sim.Rand().Int63n(int64(spread)))
}

// transmit schedules delivery of fr from src to all matching reachable NICs.
func (s *Segment) transmit(src *NIC, fr frame) {
	s.net.counters.FramesSent++
	if !s.instrumented && s.net.metrics.Enabled() {
		s.instrumented = true
		seg := metrics.L("segment", s.name)
		s.mQueueDepth = s.net.metrics.Gauge("netsim_segment_queue_depth",
			"frames currently in flight on the segment (scheduled, not yet delivered)", seg)
		s.mFrameLatency = s.net.metrics.Histogram("netsim_frame_latency_seconds",
			"one-way frame latency drawn for each scheduled delivery, including receiver jitter", seg)
	}
	if s.net.trace != nil {
		s.net.emitTrace(traceOf(s, fr, TraceSend, src.host.name))
	}
	// Transmit-side impairment: the frame dies at the sending NIC, before
	// any receiver sees it. Gated on the knob so un-impaired runs draw the
	// same RNG sequence as ever.
	if src.txLoss > 0 && s.net.sim.Rand().Float64() < src.txLoss {
		s.net.counters.FramesDropped++
		s.net.log.Logf("netsim: %s impaired tx drop %s -> %s", s.name, fr.src, fr.dst)
		s.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindFrameDrop,
			Node: src.host.name, Group: s.name, Detail: "tx-impair"})
		if s.net.trace != nil {
			s.net.emitTrace(traceOf(s, fr, TraceDrop, src.host.name))
		}
		return
	}
	for _, nic := range s.nics {
		if nic == src || !nic.up || !nic.host.alive {
			continue
		}
		if !s.reachable(src, nic) {
			continue
		}
		if fr.dst != BroadcastMAC && fr.dst != nic.mac {
			continue
		}
		if s.cfg.LossRate > 0 && s.net.sim.Rand().Float64() < s.cfg.LossRate {
			s.net.counters.FramesDropped++
			s.net.log.Logf("netsim: %s dropped frame %s -> %s", s.name, fr.src, fr.dst)
			s.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindFrameDrop,
				Node: nic.host.name, Group: s.name})
			if s.net.trace != nil {
				s.net.emitTrace(traceOf(s, fr, TraceDrop, nic.host.name))
			}
			continue
		}
		// Receive-side impairment, drawn after the segment's own loss so the
		// base draw order is preserved.
		if nic.rxLoss > 0 && s.net.sim.Rand().Float64() < nic.rxLoss {
			s.net.counters.FramesDropped++
			s.net.log.Logf("netsim: %s impaired rx drop %s -> %s", s.name, fr.src, fr.dst)
			s.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindFrameDrop,
				Node: nic.host.name, Group: s.name, Detail: "rx-impair"})
			if s.net.trace != nil {
				s.net.emitTrace(traceOf(s, fr, TraceDrop, nic.host.name))
			}
			continue
		}
		// Draw the latency exactly as before instrumentation existed (one
		// latency draw plus one jitter draw, in that order) so seeded runs
		// stay byte-identical whether or not metrics are enabled.
		delay := s.latency() + nic.host.jitter()
		if d := src.txDelay + nic.rxDelay; d > 0 {
			delay += d
		}
		s.mFrameLatency.ObserveDuration(delay)
		s.mQueueDepth.Inc()
		var j *deliveryJob
		if l := len(s.net.freeJobs); l > 0 {
			j = s.net.freeJobs[l-1]
			s.net.freeJobs[l-1] = nil
			s.net.freeJobs = s.net.freeJobs[:l-1]
		} else {
			j = &deliveryJob{}
		}
		j.seg, j.nic, j.fr = s, nic, fr
		s.net.sim.Post(delay, j)
	}
}

// deliveryJob is the pooled, pre-allocated form of the frame-delivery
// callback; together with sim.Post it keeps per-frame scheduling free of
// closure and timer allocations on busy segments.
type deliveryJob struct {
	seg *Segment
	nic *NIC
	fr  frame
}

// Run delivers the frame. The job recycles itself before touching the host
// so that sends performed inside the receive path can reuse it immediately.
func (j *deliveryJob) Run() {
	seg, nic, fr := j.seg, j.nic, j.fr
	j.seg, j.nic, j.fr = nil, nil, frame{}
	seg.net.freeJobs = append(seg.net.freeJobs, j)

	seg.mQueueDepth.Dec()
	if nic.up && nic.host.alive {
		if seg.net.trace != nil {
			seg.net.emitTrace(traceOf(seg, fr, TraceDeliver, nic.host.name))
		}
		nic.host.receiveFrame(nic, fr)
	} else if fr.kind == frameIPv4 && fr.pkt != nil && fr.pkt.owned {
		// The receiver vanished between transmit and delivery; reclaim the
		// owned packet here since no consumption point will see it.
		seg.net.putPacket(fr.pkt)
	}
}
