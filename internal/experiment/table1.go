package experiment

import (
	"fmt"
	"time"

	"wackamole"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
)

// Table1Row reports one configuration of the paper's Table 1 together with
// the measured membership-notification time it induces: the delay between a
// fault and the surviving daemons installing the new configuration. The
// paper predicts [T−H, T] + D: 10–12s for the defaults, 2–2.4s tuned.
type Table1Row struct {
	Config ConfigName
	// The three configured timeouts (the columns of Table 1).
	FaultDetect time.Duration
	Heartbeat   time.Duration
	Discovery   time.Duration
	// Predicted notification bounds.
	PredictedMin time.Duration
	PredictedMax time.Duration
	// Measured notification delay over the trials.
	Measured Stat
	// Metrics sums the protocol activity of the successful trials.
	Metrics runner.Metrics
	Errors  int
}

// Table1Trial measures one membership-notification delay: disconnect a
// member at a seed-derived phase of the heartbeat cycle and time a
// survivor's installation of the shrunken membership.
func Table1Trial(seed int64, n int, cfg gcs.Config) (runner.Sample, error) {
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:    seed,
		Servers: n,
		VIPs:    10,
		GCS:     cfg,
	})
	if err != nil {
		return runner.Sample{}, err
	}
	c.Settle()
	// Uniformly distribute the fault phase within the heartbeat interval.
	c.RunFor(time.Duration(c.Sim.Rand().Int63n(int64(cfg.HeartbeatInterval))))

	var installedAt time.Duration
	observer := c.Servers[0].Node.Daemon()
	observer.AddMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
		if len(members) == n-1 && installedAt == 0 {
			installedAt = c.Sim.Elapsed()
		}
	})
	faultAt := c.Sim.Elapsed()
	c.FailServer(n - 1)
	maxWait := 3 * (cfg.FaultDetectTimeout + cfg.DiscoveryTimeout)
	for waited := time.Duration(0); waited < maxWait && installedAt == 0; waited += 100 * time.Millisecond {
		c.RunFor(100 * time.Millisecond)
	}
	if installedAt == 0 {
		return runner.Sample{}, fmt.Errorf("experiment: no membership installed within %v", maxWait)
	}
	return runner.Sample{Value: installedAt - faultAt, Metrics: clusterMetrics(c)}, nil
}

// Table1 reproduces the paper's Table 1, augmenting the configured timeout
// values with the measured notification-time distribution each induces.
func Table1(baseSeed int64, trials int, opts ...Option) ([]Table1Row, error) {
	const n = 5
	configs := NamedConfigs()
	var points []runner.Point
	for _, nc := range configs {
		nc := nc
		points = append(points, runner.Point{
			Label: fmt.Sprintf("table1/%s", nc.Name),
			Seeds: Seeds(baseSeed, trials),
			Run: func(seed int64) (runner.Sample, error) {
				return Table1Trial(seed, n, nc.Cfg)
			},
		})
	}
	var rows []Table1Row
	for i, res := range runSweep(points, opts) {
		stat, metrics, errs, err := collectPoint(res)
		if err != nil {
			return nil, err
		}
		nc := configs[i]
		rows = append(rows, Table1Row{
			Config:       nc.Name,
			FaultDetect:  nc.Cfg.FaultDetectTimeout,
			Heartbeat:    nc.Cfg.HeartbeatInterval,
			Discovery:    nc.Cfg.DiscoveryTimeout,
			PredictedMin: nc.Cfg.FaultDetectTimeout - nc.Cfg.HeartbeatInterval + nc.Cfg.DiscoveryTimeout,
			PredictedMax: nc.Cfg.FaultDetectTimeout + nc.Cfg.DiscoveryTimeout,
			Measured:     stat,
			Metrics:      metrics,
			Errors:       errs,
		})
	}
	return rows, nil
}

// RenderTable1 formats the rows, mirroring the layout of the paper's
// Table 1 with the measured column appended.
func RenderTable1(rows []Table1Row) string {
	header := []string{"parameter / measurement", "Default Spread", "Tuned Spread"}
	var cells [][]string
	row := func(label string, f func(Table1Row) string) {
		line := []string{label}
		for _, r := range rows {
			line = append(line, f(r))
		}
		cells = append(cells, line)
	}
	row("Fault-detection timeout (s)", func(r Table1Row) string { return fmt.Sprintf("%g", r.FaultDetect.Seconds()) })
	row("Distributed heartbeat timeout (s)", func(r Table1Row) string { return fmt.Sprintf("%g", r.Heartbeat.Seconds()) })
	row("Discovery timeout (s)", func(r Table1Row) string { return fmt.Sprintf("%g", r.Discovery.Seconds()) })
	row("Predicted notification range (s)", func(r Table1Row) string {
		return fmt.Sprintf("%g – %g", r.PredictedMin.Seconds(), r.PredictedMax.Seconds())
	})
	row("Measured notification mean", func(r Table1Row) string { return Seconds(r.Measured.Mean) })
	row("Measured notification min", func(r Table1Row) string { return Seconds(r.Measured.Min) })
	row("Measured notification p50", func(r Table1Row) string { return Seconds(r.Measured.P50) })
	row("Measured notification p99", func(r Table1Row) string { return Seconds(r.Measured.P99) })
	row("Measured notification max", func(r Table1Row) string { return Seconds(r.Measured.Max) })
	row("Trials", func(r Table1Row) string { return fmt.Sprintf("%d", r.Measured.N) })
	return Table(header, cells)
}
