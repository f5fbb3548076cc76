package main

import (
	"fmt"
	"io"
	"time"

	"wackamole"
	"wackamole/internal/check"
	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
)

// The model-check workload: generated fault schedules as wackcheck -gray
// makes them, each run to completion under every oracle.
var modelGen = check.GenConfig{Servers: 5, VIPs: 10, Steps: 12, Leaves: true, Gray: true}

const (
	// modelPrefix is the number of schedules whose outputs a run reports.
	modelPrefix = 24
	// modelPerSecond: a 2-vCPU machine checks five to seven schedules a
	// second, and four on a busy host.
	modelPerSecond = 5
	// modelPasses: one schedule can cost five times another, so a run
	// checks many of them and times each three times.
	modelPasses = 3
)

func runModelCheck(cfg runConfig, out io.Writer) (*result, error) {
	opts := check.Options{GCS: gcs.TunedConfig()}
	return runSimWorkload(simWorkload{
		prefix:    modelPrefix,
		perSecond: modelPerSecond,
		passes:    modelPasses,
		run: func(seed int64) (*unit, error) {
			// check.Run does not report its own set-up time, so each unit
			// first times a build of the cluster the schedule starts from.
			setup, err := modelSetup(seed)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			s := check.Generate(seed, modelGen)
			start, cpu0 := time.Now(), cpuTime()
			rep, err := check.Run(s, opts)
			u := &unit{ops: 1, wall: time.Since(start), cpu: cpuTime() - cpu0, setup: setup}
			verdict := "ok"
			switch {
			case err != nil:
				// A harness error fails the schedule; it is not a reason to
				// stop measuring.
				u.failed = 1
				u.digest = fmt.Sprintf("seed=%d error=%q", seed, err.Error())
				u.counts = map[string]float64{}
				return u, nil
			case rep.Violation != nil:
				u.failed = 1
				verdict = rep.Violation.String()
			}
			u.digest = fmt.Sprintf("seed=%d steps=%d installs=%d deliveries=%d sim_ns=%d verdict=%q",
				seed, rep.StepsExecuted, rep.Installs, rep.Deliveries, rep.Elapsed.Nanoseconds(), verdict)
			u.counts = map[string]float64{
				"views":      float64(rep.Installs),
				"deliveries": float64(rep.Deliveries),
				"sim_s":      rep.Elapsed.Seconds(),
			}
			return u, nil
		},
		ratios: []ratio{
			{"gcs.views_per_op", "views", ""},
			{"gcs.deliveries_per_op", "deliveries", ""},
			{"sim.simulated_s_per_op", "sim_s", ""},
		},
	}, cfg, out)
}

// modelSetup builds and settles the cluster a schedule runs on — five
// servers, ten addresses, the tuned timeouts, a strict invariant monitor —
// the way check.Run does before its first fault.
func modelSetup(seed int64) (time.Duration, error) {
	start := time.Now()
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:           seed,
		Servers:        modelGen.Servers,
		VIPs:           modelGen.VIPs,
		GCS:            gcs.TunedConfig(),
		BalanceTimeout: 5 * time.Second,
		Invariants:     invariant.New(invariant.Config{Nodes: modelGen.Servers, Strict: true}),
	})
	if err != nil {
		return 0, err
	}
	c.Settle()
	return time.Since(start), nil
}
