// Command wackbench is the repository's benchmark. It runs one of three
// workloads for about --seconds, checks the program's outputs while it
// does, and prints one JSON result line:
//
//	go run . --workload web-failover --seed 1 --seconds 30 --trace 0
//
// The simulated workloads do a fixed amount of work for a given seed and
// --seconds (sized so that a 2-vCPU machine takes about that long) and time
// every unit of it several times, taking each unit's fastest pass; the live
// workload offers a fixed rate for exactly --seconds.
//
// Workloads:
//
//   - web-failover: simulated fail-over trials of a four-server web cluster
//     under 5000 req/s of open-loop Poisson traffic from 1000 clients, the
//     owner of the target address losing its interface mid-trial (the
//     paper's §6 method). The request path does most of the work, so
//     simulator-core, netsim and flow/load changes show here. An operation
//     is a simulated request.
//   - model-check: generated fault schedules (5 servers, 10 VIPs, 12 steps,
//     graceful leaves and gray-failure shapes, as wackcheck -gray makes
//     them), each run to completion under every oracle. Membership change,
//     recovery and state sync with no client traffic: gcs send-path changes
//     show most here, flow changes must not show. An operation is a schedule.
//   - live-multicast: three daemons wired as cmd/wackamole wires them (fake
//     address backend) on 127.0.0.1 UDP in this process, with no injected
//     delay; one extra session on node 0 multicasts 64-byte Agreed messages
//     open-loop at 5000 msg/s. The only workload on real sockets and wall
//     clock timers: realtime and the gcs data path show here, simulator
//     changes must not. An operation is a message.
//
// End-to-end metrics (--trace 0), reported on every workload:
//
//	setup_s        median wall time to build the cluster and settle it
//	               (live: sockets bound, ring formed, group joined); on the
//	               simulated workloads each sample is its fastest pass
//	max_rss_mb     peak resident memory of the process
//	ops_per_s      operations completed per wall second: simulated requests
//	               (web-failover), checked schedules (model-check), messages
//	               delivered (live-multicast, pinned by the offered rate
//	               unless the ring falls behind)
//	cpu_us_per_op  process CPU time per operation, all threads
//
// Wall-clock delivery latency on live-multicast varied by a quarter to a
// half between runs on a shared 2-vCPU machine, too much to carry a
// regression bound, so it is reported by the traced run (gcs.deliver_p50_ms,
// gcs.deliver_p99_ms, timed from each message's due time) and printed by
// the untraced one.
//
// The traced run (--trace 1) reports per-layer metrics instead: self CPU
// time per operation for each of the program's modules from a CPU profile
// of this process, work counts read from the layers' public counters,
// wasted-work ratios, and on live-multicast the waits measured by wrapping
// the clock and socket realtime.NewEnv returns. Which end-to-end metric
// each layer metric should move, and on which workload:
//
//	sim, netsim, gc self time; sim.events_per_op, netsim.frames_per_op,
//	gc.allocs_per_op, gc.alloc_bytes_per_op
//	    -> ops_per_s and cpu_us_per_op on web-failover and model-check
//	flow, load self time; flow.retransmits_per_request, load.ok_share
//	    -> ops_per_s on web-failover only (and its failed share)
//	gcs, wire self time; gcs.token_passes_per_op, gcs.views_per_op,
//	gcs.retransmit_share
//	    -> ops_per_s on model-check; cpu_us_per_op and gcs.deliver_* on live
//	gcs.detect_latency_s, core.vip_moves_per_op
//	    -> load.interruption_s, the paper's §6 quantity, on web-failover
//	realtime self time; realtime.send_us, realtime.datagrams_per_msg,
//	realtime.bytes_per_msg, gcs.handler_us_per_msg
//	    -> cpu_us_per_op on live-multicast only
//	realtime.loop_wait_p99_us, realtime.timer_late_p99_us,
//	gcs.token_rotation_ms, gcs.msgs_per_token_visit
//	    -> gcs.deliver_p99_ms and realtime.idle_cpu_ms_per_s on live-multicast
//	gen.late_ms, gen.backlog_msgs
//	    -> validity of the live open loop
//
// A metric a workload does not exercise reads 0. Simulated outputs and work
// counts depend on the seed alone: every run repeats its first seed, every
// pass and a traced run's replay repeat every unit, and all of them must
// reproduce identical outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one run's command line.
type runConfig struct {
	seed     int64
	duration time.Duration
	traced   bool
}

var workloads = map[string]func(runConfig, io.Writer) (*result, error){
	"web-failover":   runWeb,
	"model-check":    runModelCheck,
	"live-multicast": runLive,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "web-failover | model-check | live-multicast")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "wackbench: want --workload web-failover|model-check|live-multicast, --seconds > 0, --trace 0|1")
		return 2
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	res, err := w(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "wackbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := res.finish(metricSet(cfg.traced))
	if err != nil {
		fmt.Fprintf(stderr, "wackbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_us_per_op", "us/op"})
	}
	return append(defs,
		metricDef{"sim.events_per_op", "count/op"},
		metricDef{"sim.simulated_s_per_op", "s/op"},
		metricDef{"netsim.frames_per_op", "count/op"},
		metricDef{"gcs.token_passes_per_op", "count/op"},
		metricDef{"gcs.views_per_op", "count/op"},
		metricDef{"gcs.deliveries_per_op", "count/op"},
		metricDef{"gcs.retransmit_share", "ratio"},
		metricDef{"gcs.deliver_p50_ms", "ms"},
		metricDef{"gcs.deliver_p99_ms", "ms"},
		metricDef{"gcs.detect_latency_s", "s"},
		metricDef{"gcs.handler_us_per_msg", "us/op"},
		metricDef{"gcs.token_rotation_ms", "ms"},
		metricDef{"gcs.msgs_per_token_visit", "count"},
		metricDef{"core.vip_moves_per_op", "count/op"},
		metricDef{"flow.retransmits_per_request", "count/op"},
		metricDef{"load.ok_share", "ratio"},
		metricDef{"load.interruption_s", "s"},
		metricDef{"realtime.send_us", "us"},
		metricDef{"realtime.datagrams_per_msg", "count/op"},
		metricDef{"realtime.bytes_per_msg", "B/op"},
		metricDef{"realtime.loop_wait_p99_us", "us"},
		metricDef{"realtime.timer_late_p99_us", "us"},
		metricDef{"realtime.idle_cpu_ms_per_s", "ms/s"},
		metricDef{"gen.late_ms", "ms"},
		metricDef{"gen.backlog_msgs", "count"},
		metricDef{"gc.allocs_per_op", "count/op"},
		metricDef{"gc.alloc_bytes_per_op", "B/op"},
		metricDef{"trace.untraced_ops_per_s", "1/s"},
		metricDef{"trace.ops_per_s", "1/s"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

func metricSet(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// result is one run's outcome. Operation failures are counted in Failed;
// problems are checks on the run as a whole (the determinism self-check,
// the live open loop's validity), and any of them makes the run incorrect.
type result struct {
	Attempted uint64
	Failed    uint64
	values    map[string]float64
	problems  []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish renders the result line with exactly the metrics in defs: a metric
// the workload does not exercise reads 0, and a value that is not a finite
// number or a metric outside defs is a bug in the workload.
func (r *result) finish(defs []metricDef) ([]byte, error) {
	out := resultJSON{
		Correct:   len(r.problems) == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricJSON{},
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range r.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		return nil, fmt.Errorf("metrics outside the reported set: %s", strings.Join(extra, ", "))
	}
	return json.Marshal(out)
}
