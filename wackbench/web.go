package main

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"wackamole"
	"wackamole/internal/experiment"
	"wackamole/internal/flow"
	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
	"wackamole/internal/load"
	"wackamole/internal/metrics"
)

// The web-failover workload: the paper's §6 method applied to a whole
// client population. Four servers with the tuned Spread timeouts (T=1s,
// H=400ms, D=1.4s) and the always-on invariant monitors, the default
// 100–300µs segment latency and no loss; 1000 clients send open-loop
// Poisson traffic at 5000 req/s to one virtual address, and the owner's
// interface fails mid-trial while requests keep arriving.
const (
	webServers  = 4
	webClients  = 1000
	webRPS      = 5000
	webWarmup   = 2 * time.Second
	webPreFault = 4 * time.Second
	// webRecoverySlack is how long after the first post-fault ok response
	// the takeover may still be resetting connections to the failed server:
	// one flow RTO (250ms) for the last retransmission to reach the new
	// owner plus the RTO wheel's rounding tick.
	webRecoverySlack = 250*time.Millisecond + 250*time.Millisecond/8
	// webInFlight bounds how long after the fault responses already on the
	// wire keep arriving (a four-hop path of at most 300µs segments, with
	// room to spare): the interruption must start within it.
	webInFlight = 10 * time.Millisecond
)

var webGCS = gcs.TunedConfig()

// webPostFault is the post-fault run: four fail-over rounds plus a
// PreFault-wide recovery window, as experiment.Availability runs it.
func webPostFault() time.Duration {
	return 4*(webGCS.FaultDetectTimeout+webGCS.DiscoveryTimeout) + webPreFault + time.Second
}

// webTrial is one seeded fail-over trial: its simulated outputs (which a
// pure speed change must not move) and the wall time it took.
type webTrial struct {
	Seed int64
	// Simulated outputs.
	Interruption  time.Duration
	Requests      [load.NumClasses]uint64
	Unexplained   uint64 // non-ok requests outside the fail-over window
	Views         uint64 // daemon membership installs, all servers
	Deliveries    uint64 // gcs Agreed deliveries, all servers
	Events        uint64 // simulator events fired
	Frames        uint64
	TokenPasses   uint64
	DataSent      uint64
	DataRetrans   uint64
	Moves         uint64
	Retransmits   uint64 // flow-layer RTO retransmissions
	DetectLatency time.Duration
	SimElapsed    time.Duration
	Problems      []string
	// Wall-clock costs.
	Setup time.Duration // cluster build and settle
	Body  time.Duration // traffic, fault, recovery and the settled check
	CPU   time.Duration // process CPU during Body
}

// ops is the number of requests the trial completed in its measured window.
func (t *webTrial) ops() uint64 {
	var n uint64
	for _, c := range t.Requests {
		n += c
	}
	return n
}

// failed counts the requests the output checks charge as failures: every
// request of a trial that failed a check, otherwise the non-ok requests the
// fail-over does not explain.
func (t *webTrial) failed() uint64 {
	if len(t.Problems) > 0 {
		return t.ops()
	}
	return t.Unexplained
}

// digest renders the simulated outputs; two runs of one seed must print the
// same digest byte for byte.
func (t *webTrial) digest() string {
	return fmt.Sprintf("seed=%d interruption_ns=%d ok=%d reset=%d timeout=%d stale=%d unexplained=%d views=%d deliveries=%d events=%d frames=%d tokens=%d data_sent=%d data_retrans=%d moves=%d retransmits=%d detect_ns=%d sim_ns=%d problems=%q",
		t.Seed, t.Interruption.Nanoseconds(),
		t.Requests[load.ClassOK], t.Requests[load.ClassReset], t.Requests[load.ClassTimeout], t.Requests[load.ClassStale],
		t.Unexplained, t.Views, t.Deliveries, t.Events, t.Frames, t.TokenPasses, t.DataSent, t.DataRetrans, t.Moves, t.Retransmits,
		t.DetectLatency.Nanoseconds(), t.SimElapsed.Nanoseconds(), t.Problems)
}

// runWebTrial builds the cluster through the public constructors, drives the
// trial and checks its outputs.
func runWebTrial(seed int64) (*webTrial, error) {
	t := &webTrial{Seed: seed}
	start := time.Now()

	mon := invariant.New(invariant.Config{
		Nodes: webServers,
		Name:  fmt.Sprintf("wackbench-web-seed%d", seed),
	})
	reg := metrics.New()
	var (
		simNow      func() time.Time
		victimID    string
		firstDetect time.Time
	)
	wc, err := experiment.NewWebCluster(seed, webServers, webGCS, func(o *wackamole.ClusterOptions) {
		o.Invariants = mon
		o.OnNode = func(i int, n *wackamole.Node) {
			n.Daemon().SetDetectionHook(func(peer, _ string) {
				if victimID != "" && peer == victimID && firstDetect.IsZero() {
					firstDetect = simNow()
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	simNow = wc.Sim.Now
	epoch := wc.Sim.Now()
	mon.SetNow(func() time.Duration { return wc.Sim.Now().Sub(epoch) })
	for _, srv := range wc.Servers {
		if _, err := flow.NewServer(srv.Host, experiment.FlowPort, flow.ServerConfig{Metrics: reg}); err != nil {
			return nil, err
		}
	}
	engine, err := load.New(wc.ClientHost, load.Config{
		Clients:   webClients,
		Mode:      load.Open,
		RPS:       webRPS,
		Target:    netip.AddrPortFrom(wc.Target, experiment.FlowPort),
		LocalPort: experiment.LoadClientPort,
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	wc.Settle()
	t.Setup = time.Since(start)

	bodyStart, cpuStart := time.Now(), cpuTime()
	engine.Start()
	wc.RunFor(webWarmup)
	// A seed-derived offset within the heartbeat interval spreads the fault
	// phase uniformly, as the paper's measurements do.
	wc.RunFor(time.Duration(wc.Sim.Rand().Int63n(int64(webGCS.HeartbeatInterval))))
	engine.ResetStats()
	wc.RunFor(webPreFault)

	victim, holders := wc.Owner(wc.Target)
	if holders != 1 {
		t.Problems = append(t.Problems, fmt.Sprintf("%d holders of the target before the fault", holders))
	}
	victimID = string(wc.Servers[victim].Node.Daemon().ID())
	movesBase := clusterMoves(wc.Cluster)
	faultAt := wc.Sim.Now()
	wc.FailServer(victim)
	wc.RunFor(webPostFault())

	st := engine.Stats()
	t.Requests = st.Requests
	t.Interruption = st.MaxOKGap
	completions := engine.Completions()
	recovered := st.GapEnd
	for _, c := range completions {
		if c.Class != load.ClassOK && (c.At.Before(faultAt) || c.At.After(recovered.Add(webRecoverySlack))) {
			t.Unexplained++
		}
	}
	pre := okShare(completions, engine.Epoch(), faultAt)
	post := okShare(completions, wc.Sim.Now().Add(-webPreFault), wc.Sim.Now())
	engine.Stop()

	// Output checks: a detected takeover by a survivor, service recovered to
	// the pre-fault ok share, the interruption spanning the fault, and every
	// invariant oracle clean.
	if firstDetect.IsZero() {
		t.Problems = append(t.Problems, "no survivor detected the failed server")
	} else {
		t.DetectLatency = firstDetect.Sub(faultAt)
	}
	if owner, n := wc.Owner(wc.Target); n != 1 || owner == victim {
		t.Problems = append(t.Problems, fmt.Sprintf("target held by %d servers (owner %d, victim %d) after recovery", n, owner, victim))
	}
	if st.GapStart.After(faultAt.Add(webInFlight)) || !st.GapEnd.After(faultAt) {
		t.Problems = append(t.Problems, fmt.Sprintf("longest ok gap does not span the fault: %v..%v", st.GapStart.Sub(faultAt), st.GapEnd.Sub(faultAt)))
	}
	if pre == 0 || post < pre*0.99 {
		t.Problems = append(t.Problems, fmt.Sprintf("goodput not recovered: ok share %.4f before, %.4f after", pre, post))
	}
	mon.CheckOrder()
	mon.CheckSettled(wc.Cluster.InvariantView(), wc.RunFor)
	if v := mon.Violation(); v != nil {
		t.Problems = append(t.Problems, "invariant: "+v.String())
	}

	t.Moves = clusterMoves(wc.Cluster) - movesBase
	t.Events = wc.Sim.Fired()
	t.Frames = wc.Net.Counters().FramesSent
	t.SimElapsed = wc.Sim.Elapsed()
	for _, srv := range wc.Servers {
		ds := srv.Node.Daemon().Stats()
		t.Views += ds.MembershipsInstalled
		t.Deliveries += ds.DataDelivered
		t.TokenPasses += ds.TokensForwarded
		t.DataSent += ds.DataSent
		t.DataRetrans += ds.DataRetransmitted
	}
	t.Retransmits = counterValue(reg, "flow_retransmits_total")
	t.Body = time.Since(bodyStart)
	t.CPU = cpuTime() - cpuStart
	return t, nil
}

// okShare is the fraction of requests completing in [from, to) that were ok.
func okShare(cs []load.Completion, from, to time.Time) float64 {
	var n, ok int
	for _, c := range cs {
		if c.At.Before(from) || !c.At.Before(to) {
			continue
		}
		n++
		if c.Class == load.ClassOK {
			ok++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}

func clusterMoves(c *wackamole.Cluster) uint64 {
	var n uint64
	for _, srv := range c.Servers {
		n += srv.Node.Engine().Stats().Moves
	}
	return n
}

// counterValue sums every series of the named counter family.
func counterValue(r *metrics.Registry, name string) uint64 {
	var n float64
	for _, f := range r.Snapshot().Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			n += s.Value
		}
	}
	return uint64(n)
}

const (
	// webPrefix is the number of trials whose outputs and work counts a run
	// reports.
	webPrefix = 8
	// webPerSecond: a 2-vCPU machine runs about two trials a second.
	webPerSecond = 1.8
	// webPasses: the trials all do about the same work, so few of them
	// give a steady figure and each is timed five times.
	webPasses = 5
)

func runWeb(cfg runConfig, out io.Writer) (*result, error) {
	return runSimWorkload(simWorkload{
		prefix:    webPrefix,
		perSecond: webPerSecond,
		passes:    webPasses,
		run: func(seed int64) (*unit, error) {
			t, err := runWebTrial(seed)
			if err != nil {
				return nil, err
			}
			return &unit{
				ops:    t.ops(),
				failed: t.failed(),
				wall:   t.Body,
				cpu:    t.CPU,
				setup:  t.Setup,
				digest: t.digest(),
				counts: map[string]float64{
					"trials":         1,
					"events":         float64(t.Events),
					"sim_s":          t.SimElapsed.Seconds(),
					"frames":         float64(t.Frames),
					"tokens":         float64(t.TokenPasses),
					"views":          float64(t.Views),
					"deliveries":     float64(t.Deliveries),
					"data_sent":      float64(t.DataSent),
					"data_retrans":   float64(t.DataRetrans),
					"detect_s":       t.DetectLatency.Seconds(),
					"moves":          float64(t.Moves),
					"retransmits":    float64(t.Retransmits),
					"ok":             float64(t.Requests[load.ClassOK]),
					"interruption_s": t.Interruption.Seconds(),
				},
			}, nil
		},
		ratios: []ratio{
			{"sim.events_per_op", "events", ""},
			{"sim.simulated_s_per_op", "sim_s", ""},
			{"netsim.frames_per_op", "frames", ""},
			{"gcs.token_passes_per_op", "tokens", ""},
			{"gcs.views_per_op", "views", ""},
			{"gcs.deliveries_per_op", "deliveries", ""},
			{"gcs.retransmit_share", "data_retrans", "data_sent"},
			{"gcs.detect_latency_s", "detect_s", "trials"},
			{"core.vip_moves_per_op", "moves", ""},
			{"flow.retransmits_per_request", "retransmits", ""},
			{"load.ok_share", "ok", ""},
			{"load.interruption_s", "interruption_s", "trials"},
		},
	}, cfg, out)
}
