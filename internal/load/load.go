// Package load is the many-client workload engine: it drives thousands of
// concurrent simulated clients over flow connections against a service
// virtual address and classifies what each of them experiences. Where
// internal/probe measures availability with a single 10ms heartbeat, this
// engine measures it the way FRAPPÉ and the resilient-cloud literature do —
// request error rate, dropped connections and tail latency as seen by the
// client population — which is the level at which the paper's claim about
// connection loss at takeover is actually observable.
//
// Two canonical workload shapes are provided:
//
//   - open loop: requests arrive by a Poisson process at a configured
//     aggregate rate, assigned round-robin to clients, independent of how
//     the system is coping (the arrival rate does not slow down during the
//     outage, which is what makes open-loop measurement honest about
//     overload and interruption);
//   - closed loop: each client holds one connection and cycles
//     request → response → think time → request, so offered load adapts to
//     response time the way a population of interactive users does.
//
// Every request terminates in exactly one class:
//
//	ok       response arrived within RequestTimeout
//	stale    response arrived, but later than RequestTimeout (the flow
//	         layer's retries outlived the user's patience)
//	reset    the connection was RST — the paper's lost-connection case
//	timeout  the flow layer's retry budget expired with no answer at all
//
// The engine keeps a per-class timeline in fixed-width buckets (goodput and
// error rate across a fault), a completion log for latency-window analysis,
// and the maximum gap between consecutive ok completions — the
// request-level analogue of the probe's service-interruption measure.
package load

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"wackamole/internal/flow"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/obs"
)

// Mode selects the workload shape.
type Mode uint8

const (
	// Open issues requests by a Poisson arrival process at Config.RPS.
	Open Mode = iota + 1
	// Closed cycles each client through request/think loops.
	Closed
)

// String names the mode as the CLI spells it.
func (m Mode) String() string {
	switch m {
	case Open:
		return "open"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMode converts a CLI spelling into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "open":
		return Open, nil
	case "closed":
		return Closed, nil
	default:
		return 0, fmt.Errorf("load: unknown mode %q (want open or closed)", s)
	}
}

// Class is the terminal classification of one request.
type Class uint8

const (
	// ClassOK: response within the deadline.
	ClassOK Class = iota
	// ClassReset: connection reset by the peer before a response.
	ClassReset
	// ClassTimeout: retry budget exhausted with no response.
	ClassTimeout
	// ClassStale: response arrived after the deadline.
	ClassStale
	// NumClasses sizes per-class arrays.
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassReset:
		return "reset"
	case ClassTimeout:
		return "timeout"
	case ClassStale:
		return "stale"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Clients is the number of concurrent simulated clients (each holds at
	// most one connection).
	Clients int
	// Mode selects open- or closed-loop behaviour.
	Mode Mode
	// RPS is the aggregate Poisson arrival rate (open loop only).
	RPS float64
	// ThinkTime separates a response from the client's next request
	// (closed loop only; default 1s).
	ThinkTime time.Duration
	// Target is the service address requests are sent to — typically a
	// virtual address owned by whichever server currently holds it.
	Target netip.AddrPort
	// LocalPort is the shared client-side UDP port (default 9100).
	LocalPort uint16
	// RequestTimeout is the classification deadline separating ok from
	// stale (default 1s). It does not abort the request — the flow layer's
	// retry budget governs that — it is the user's patience.
	RequestTimeout time.Duration
	// RTO and MaxRetries tune the underlying flow client (zero = flow
	// defaults).
	RTO        time.Duration
	MaxRetries int
	// PayloadSize is the request body size in bytes (default 64).
	PayloadSize int
	// BucketWidth is the timeline resolution (default 100ms).
	BucketWidth time.Duration
	// RedialBackoff delays a closed-loop client's reconnect after a reset
	// (default 100ms — an aggressive browser retry).
	RedialBackoff time.Duration
	// Metrics receives the load and flow instrument families (nil
	// disables).
	Metrics *metrics.Registry
	// Tracer receives flow events (nil disables).
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Mode == 0 {
		c.Mode = Closed
	}
	if c.ThinkTime <= 0 {
		c.ThinkTime = time.Second
	}
	if c.LocalPort == 0 {
		c.LocalPort = 9100
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = time.Second
	}
	if c.PayloadSize <= 0 {
		c.PayloadSize = 64
	}
	if c.BucketWidth <= 0 {
		c.BucketWidth = 100 * time.Millisecond
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 100 * time.Millisecond
	}
	return c
}

// Metrics bundles the engine's registry instruments.
type Metrics struct {
	Requests [NumClasses]*metrics.Counter
	Latency  *metrics.Histogram
}

// Register creates (or finds) the load instrument families in r, keeping
// the family set stable whether or not traffic flows.
func Register(r *metrics.Registry) Metrics {
	var m Metrics
	for c := Class(0); c < NumClasses; c++ {
		m.Requests[c] = r.Counter("load_requests_total",
			"workload requests by terminal classification", metrics.L("result", c.String()))
	}
	m.Latency = r.Histogram("load_request_latency_seconds",
		"client-observed request round-trip time (first transmission to response)")
	return m
}

// Completion records one finished request.
type Completion struct {
	// At is the completion instant.
	At time.Time
	// RTT is the round-trip time (zero for reset/timeout, which have no
	// response).
	RTT time.Duration
	// Class is the terminal classification.
	Class Class
}

// Bucket is one timeline cell: per-class completion counts in one
// BucketWidth-wide interval starting at Start.
type Bucket struct {
	Start  time.Time
	Counts [NumClasses]uint64
}

// Stats is a snapshot of everything counted since the last ResetStats.
type Stats struct {
	// Requests counts completions per class.
	Requests [NumClasses]uint64
	// Issued counts requests handed to the flow layer (pending requests
	// make Issued exceed the completion total).
	Issued uint64
	// DialsOK and DialsFailed count connection attempts.
	DialsOK     uint64
	DialsFailed uint64
	// ConnsLost counts established connections torn down by a peer RST —
	// the paper's "clients with open connections ... lose their
	// connections" population.
	ConnsLost uint64
	// FirstOKAt and LastOKAt bracket successful service.
	FirstOKAt time.Time
	LastOKAt  time.Time
	// MaxOKGap is the longest interval between consecutive ok completions
	// (measured from the stats epoch) — the request-level service
	// interruption. GapStart/GapEnd locate it.
	MaxOKGap time.Duration
	GapStart time.Time
	GapEnd   time.Time
}

// Total returns the number of completed requests.
func (s Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Requests {
		t += n
	}
	return t
}

// ErrorFraction returns the fraction of completed requests that were not ok.
func (s Stats) ErrorFraction() float64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	return float64(total-s.Requests[ClassOK]) / float64(total)
}

// Engine drives the workload. All methods must be called on the simulation
// goroutine.
type Engine struct {
	host *netsim.Host
	cfg  Config
	fc   *flow.Client
	rng  *rand.Rand
	m    Metrics

	clients []*clientState
	rr      int // round-robin cursor (open loop)
	payload []byte
	running bool

	epoch       time.Time
	stats       Stats
	lastOKAt    time.Time
	completions []Completion
	buckets     []Bucket
	byServer    map[string]uint64
	// names interns responding server identities, so counting a response
	// in byServer does not allocate a key string.
	names map[string]string
}

// clientState is one simulated client. Its callbacks are allocated once at
// construction so the steady-state request cycle creates no closures.
type clientState struct {
	e       *Engine
	conn    *flow.Conn
	dialing bool
	queued  int // open loop: arrivals awaiting an established connection

	onDial  func(*flow.Conn, error)
	onResp  func([]byte, time.Duration, error)
	onAbort func(error)
	thinkFn func() // closed loop: next request after think time
	redial  func() // closed loop: reconnect after backoff
}

// New builds an engine on h. The flow client binds cfg.LocalPort
// immediately; traffic starts with Start.
func New(h *netsim.Host, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode == Open && cfg.RPS <= 0 {
		return nil, errors.New("load: open-loop workload requires RPS > 0")
	}
	if !cfg.Target.IsValid() {
		return nil, errors.New("load: config requires a target address")
	}
	fc, err := flow.NewClient(h, cfg.LocalPort, flow.ClientConfig{
		RTO:        cfg.RTO,
		MaxRetries: cfg.MaxRetries,
		Metrics:    cfg.Metrics,
		Tracer:     cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		host:     h,
		cfg:      cfg,
		fc:       fc,
		rng:      h.Network().Sim().Rand(),
		m:        Register(cfg.Metrics),
		payload:  make([]byte, cfg.PayloadSize),
		byServer: map[string]uint64{},
		names:    map[string]string{},
	}
	e.clients = make([]*clientState, cfg.Clients)
	for i := range e.clients {
		cs := &clientState{e: e}
		cs.onDial = cs.handleDial
		cs.onResp = cs.handleResp
		cs.onAbort = cs.handleAbort
		cs.thinkFn = cs.nextRequest
		cs.redial = cs.doRedial
		e.clients[i] = cs
	}
	e.ResetStats()
	return e, nil
}

// Start begins issuing traffic.
func (e *Engine) Start() {
	if e.running {
		return
	}
	e.running = true
	switch e.cfg.Mode {
	case Open:
		e.scheduleArrival()
	case Closed:
		// Stagger initial dials across one think time so the population
		// desynchronizes instead of phase-locking.
		for _, cs := range e.clients {
			cs := cs
			delay := time.Duration(e.rng.Int63n(int64(e.cfg.ThinkTime)))
			e.host.AfterFunc(delay, func() {
				if e.running {
					cs.dial()
				}
			})
		}
	}
}

// Stop ceases issuing traffic and closes every connection. In-flight
// requests complete against closed state and are not counted.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	e.running = false
	e.fc.Close()
	for _, cs := range e.clients {
		cs.conn = nil
		cs.dialing = false
		cs.queued = 0
	}
}

// ResetStats zeroes counters, the completion log, the timeline and the
// ok-gap tracker, and restarts the stats epoch at the current instant.
// Call it after warm-up so measurements cover only the window of interest.
func (e *Engine) ResetStats() {
	now := e.host.Now()
	e.epoch = now
	e.stats = Stats{}
	e.lastOKAt = now
	e.completions = e.completions[:0]
	e.buckets = e.buckets[:0]
	for k := range e.byServer {
		delete(e.byServer, k)
	}
}

// Stats returns the snapshot since the last ResetStats. The terminal gap —
// from the last ok completion to now — is folded into MaxOKGap so a
// fault window with no recovery is visible.
func (e *Engine) Stats() Stats {
	s := e.stats
	if tail := e.host.Now().Sub(e.lastOKAt); tail > s.MaxOKGap {
		s.MaxOKGap = tail
		s.GapStart = e.lastOKAt
		s.GapEnd = e.host.Now()
	}
	return s
}

// Epoch returns the instant the current stats window began.
func (e *Engine) Epoch() time.Time { return e.epoch }

// Completions returns the completion log since the last ResetStats. The
// slice is live; callers must not mutate it and should copy anything they
// keep past the next ResetStats.
func (e *Engine) Completions() []Completion { return e.completions }

// Buckets returns the per-class timeline since the last ResetStats (live
// slice, same caveat as Completions). Bucket i covers
// [epoch+i*BucketWidth, epoch+(i+1)*BucketWidth).
func (e *Engine) Buckets() []Bucket { return e.buckets }

// ByServer returns response counts keyed by responding server identity
// (the default flow handler answers with the host name, so this shows the
// takeover shifting traffic between servers).
func (e *Engine) ByServer() map[string]uint64 { return e.byServer }

// ---------------------------------------------------------------------------
// Open loop

func (e *Engine) scheduleArrival() {
	if !e.running {
		return
	}
	gap := time.Duration(e.rng.ExpFloat64() * float64(time.Second) / e.cfg.RPS)
	e.host.Post(gap, (*arrival)(e))
}

// arrival is the engine viewed as the open-loop arrival event. Posting the
// converted pointer schedules the next request with no closure or timer.
type arrival Engine

// Run issues one open-loop request and schedules the next arrival.
func (a *arrival) Run() { (*Engine)(a).arrive() }

func (e *Engine) arrive() {
	if !e.running {
		return
	}
	cs := e.clients[e.rr]
	e.rr++
	if e.rr == len(e.clients) {
		e.rr = 0
	}
	if cs.conn != nil && cs.conn.Established() {
		cs.request()
	} else {
		cs.queued++
		if !cs.dialing {
			cs.dial()
		}
	}
	e.scheduleArrival()
}

// ---------------------------------------------------------------------------
// Client state machine (shared)

func (cs *clientState) dial() {
	cs.dialing = true
	cs.e.fc.Dial(cs.e.cfg.Target, cs.onDial)
}

func (cs *clientState) handleDial(conn *flow.Conn, err error) {
	e := cs.e
	cs.dialing = false
	if !e.running {
		return
	}
	if err != nil {
		e.stats.DialsFailed++
		// Every request that queued behind this dial shares its fate.
		class := classOf(err)
		for ; cs.queued > 0; cs.queued-- {
			e.record(class, 0)
		}
		if e.cfg.Mode == Closed {
			e.host.AfterFunc(e.cfg.RedialBackoff, cs.redial)
		}
		return
	}
	e.stats.DialsOK++
	cs.conn = conn
	conn.SetAbortHandler(cs.onAbort)
	switch e.cfg.Mode {
	case Open:
		for ; cs.queued > 0; cs.queued-- {
			cs.request()
		}
	case Closed:
		cs.request()
	}
}

func (cs *clientState) request() {
	e := cs.e
	e.stats.Issued++
	cs.conn.Request(e.payload, cs.onResp)
}

func (cs *clientState) handleResp(resp []byte, rtt time.Duration, err error) {
	e := cs.e
	if !e.running {
		return
	}
	switch {
	case err == nil:
		if rtt <= e.cfg.RequestTimeout {
			e.record(ClassOK, rtt)
		} else {
			e.record(ClassStale, rtt)
		}
		name, ok := e.names[string(resp)]
		if !ok {
			name = string(resp)
			e.names[name] = name
		}
		e.byServer[name]++
		if e.cfg.Mode == Closed {
			e.host.AfterFunc(e.cfg.ThinkTime, cs.thinkFn)
		}
	case errors.Is(err, flow.ErrTimedOut):
		e.record(ClassTimeout, 0)
		// The connection survives a request timeout; a closed-loop client
		// keeps using it (the next request may be reset at takeover, which
		// is the behaviour under measurement).
		if e.cfg.Mode == Closed {
			e.host.AfterFunc(e.cfg.ThinkTime, cs.thinkFn)
		}
	case errors.Is(err, flow.ErrReset):
		e.record(ClassReset, 0)
		// handleAbort clears the conn and schedules the redial exactly
		// once per connection, however many requests it had in flight.
	}
}

// handleAbort is the flow layer's RST notification: the connection record
// is about to be reused, so the reference must be dropped here.
func (cs *clientState) handleAbort(error) {
	e := cs.e
	cs.conn = nil
	if !e.running {
		return
	}
	e.stats.ConnsLost++
	if e.cfg.Mode == Closed {
		e.host.AfterFunc(e.cfg.RedialBackoff, cs.redial)
	}
}

// nextRequest is the closed-loop think-time continuation.
func (cs *clientState) nextRequest() {
	e := cs.e
	if !e.running {
		return
	}
	if cs.conn != nil && cs.conn.Established() {
		cs.request()
	} else if !cs.dialing {
		cs.dial()
	}
}

// doRedial is the closed-loop post-reset reconnect.
func (cs *clientState) doRedial() {
	e := cs.e
	if !e.running || cs.dialing || cs.conn != nil {
		return
	}
	cs.dial()
}

func classOf(err error) Class {
	if errors.Is(err, flow.ErrReset) {
		return ClassReset
	}
	return ClassTimeout
}

// record is the single classification point every completed request passes
// through.
func (e *Engine) record(class Class, rtt time.Duration) {
	now := e.host.Now()
	e.stats.Requests[class]++
	e.m.Requests[class].Inc()
	if class == ClassOK || class == ClassStale {
		e.m.Latency.ObserveDuration(rtt)
	}
	if class == ClassOK {
		if e.stats.FirstOKAt.IsZero() {
			e.stats.FirstOKAt = now
		}
		if gap := now.Sub(e.lastOKAt); gap > e.stats.MaxOKGap {
			e.stats.MaxOKGap = gap
			e.stats.GapStart = e.lastOKAt
			e.stats.GapEnd = now
		}
		e.lastOKAt = now
		e.stats.LastOKAt = now
	}
	e.completions = append(e.completions, Completion{At: now, RTT: rtt, Class: class})
	idx := int(now.Sub(e.epoch) / e.cfg.BucketWidth)
	for len(e.buckets) <= idx {
		e.buckets = append(e.buckets, Bucket{
			Start: e.epoch.Add(time.Duration(len(e.buckets)) * e.cfg.BucketWidth),
		})
	}
	e.buckets[idx].Counts[class]++
}
