package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// unit is one seeded piece of simulated work — a fail-over trial or a
// checked fault schedule — with what it did and what it cost.
type unit struct {
	seed   int64
	ops    uint64 // operations completed (requests, schedules)
	failed uint64 // of which failed an output check
	wall   time.Duration
	cpu    time.Duration
	// setup is the wall time to build and settle the unit's cluster.
	setup time.Duration
	// digest renders the unit's simulated outputs; a re-run of the same
	// seed must reproduce it byte for byte.
	digest string
	// counts are the unit's work counts, summed into per-op ratios.
	counts map[string]float64
}

// simWorkload describes a simulated workload to runSimWorkload.
type simWorkload struct {
	// prefix is the number of leading units whose digests are printed and
	// whose work counts are reported; a run always has at least that many.
	prefix int
	// perSecond is the number of unit executions, all passes together, one
	// second of --seconds stands for: a little under what a 2-vCPU machine
	// completes, so that a slower stretch still ends near --seconds.
	// A run's units follow from it, the seed and --seconds alone, so two
	// runs with the same arguments do the same operations.
	perSecond float64
	// passes is how often an untraced run times each of its units. Other
	// tenants of a shared host only ever slow a unit down — by up to four
	// fifths, for seconds to minutes at a time — so a unit's cost is taken
	// from its fastest pass. The passes are spread over the whole run, so
	// one slow stretch seldom covers all of them, and every pass must
	// reproduce the unit's simulated outputs.
	passes int
	run    func(seed int64) (*unit, error)
	// ratios lists the per-layer work-count metrics as numerator count and
	// denominator count; a denominator "" divides by ops.
	ratios []ratio
}

type ratio struct{ metric, num, den string }

// simOverrun bounds an untraced run at this multiple of --seconds: no pass
// starts after it, so a much slower machine still finishes in time, with
// fewer passes over the same operations.
const simOverrun = 2

// units returns the number of distinct units a run of duration d times.
func (w *simWorkload) units(d time.Duration) int {
	n := int(math.Round(d.Seconds() * w.perSecond / float64(w.passes)))
	if n < w.prefix {
		n = w.prefix
	}
	return n
}

// unitSeed derives the i-th unit's seed from the run's seed; distinct run
// seeds never share a unit seed within 100003 units.
func unitSeed(seed int64, i int) int64 { return seed*100003 + int64(i) }

// phaseResult sums one pass over a run's units.
type phaseResult struct {
	units        []*unit
	ops, failed  uint64
	wall, cpu    time.Duration
	layerNanos   map[string]float64
	allocs, heap uint64
}

// pass runs the given unit seeds in order, under the CPU profiler and with
// allocations counted when traced.
func (w *simWorkload) pass(seeds []int64, traced bool) (*phaseResult, error) {
	pr := &phaseResult{}
	var prof *profiler
	var ms0 runtime.MemStats
	var err error
	if traced {
		runtime.ReadMemStats(&ms0)
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
	}
	for i, seed := range seeds {
		// Each unit starts on a collected heap, so what the collector costs
		// it depends on its own work, not on what the unit before it left.
		runtime.GC()
		u, err := w.run(seed)
		if err != nil {
			if prof != nil {
				prof.stop()
			}
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		u.seed = seed
		pr.units = append(pr.units, u)
		pr.ops += u.ops
		pr.failed += u.failed
		pr.wall += u.wall
		pr.cpu += u.cpu
	}
	if traced {
		if pr.layerNanos, err = prof.stop(); err != nil {
			return nil, err
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		pr.allocs, pr.heap = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	}
	return pr, nil
}

// fastest reduces passes over the same units to each unit's fastest pass:
// the operations of one pass, the sums of each unit's least wall and CPU
// time, and each unit's least set-up time in seconds.
func fastest(passes []*phaseResult) (ops uint64, wall, cpu time.Duration, setups []float64) {
	for i, u := range passes[0].units {
		bw, bc, bs := u.wall, u.cpu, u.setup
		for _, pr := range passes[1:] {
			v := pr.units[i]
			bw, bc, bs = min(bw, v.wall), min(bc, v.cpu), min(bs, v.setup)
		}
		ops += u.ops
		wall += bw
		cpu += bc
		setups = append(setups, bs.Seconds())
	}
	return ops, wall, cpu, setups
}

// runSimWorkload runs a simulated workload's units and reduces them to the
// run's result. An untraced run times w.passes passes over the units; a
// traced run times one, then replays it under the CPU profiler.
func runSimWorkload(w simWorkload, cfg runConfig, out io.Writer) (*result, error) {
	// Warm-up and determinism self-check in one: the first unit runs once
	// untimed, so lazy start-up costs stay out of the measurement, and its
	// timed runs must reproduce its simulated outputs exactly.
	warm, err := w.run(unitSeed(cfg.seed, 0))
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	seeds := make([]int64, w.units(cfg.duration))
	for i := range seeds {
		seeds[i] = unitSeed(cfg.seed, i)
	}
	start := time.Now()
	first, err := w.pass(seeds, false)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.Attempted, res.Failed = first.ops, first.failed
	for i, u := range first.units[:w.prefix] {
		fmt.Fprintf(out, "unit %d %s\n", i, u.digest)
	}
	if warm.digest != first.units[0].digest {
		res.problem("determinism: unit 0 re-run differs:\n  first: %s\n  again: %s", warm.digest, first.units[0].digest)
	}
	// again checks a later pass against the first, unit by unit.
	again := func(pr *phaseResult, what string) {
		for i, u := range pr.units {
			if u.digest != first.units[i].digest {
				res.problem("determinism: unit %d %s differs:\n  first: %s\n  again: %s", i, what, first.units[i].digest, u.digest)
			}
		}
	}

	if !cfg.traced {
		passes := []*phaseResult{first}
		for len(passes) < w.passes && time.Since(start) < time.Duration(simOverrun*float64(cfg.duration)) {
			pr, err := w.pass(seeds, false)
			if err != nil {
				return nil, err
			}
			again(pr, fmt.Sprintf("pass %d", len(passes)+1))
			passes = append(passes, pr)
		}
		// Each unit's fastest pass. Operations and failures are counted
		// once: every pass reproduces the first one's outputs, verdicts
		// included, so how many passes ran does not change them.
		ops, wall, cpu, setups := fastest(passes)
		res.set("setup_s", median(setups))
		res.set("max_rss_mb", peakRSSMB())
		res.set("ops_per_s", float64(ops)/wall.Seconds())
		res.set("cpu_us_per_op", float64(cpu)/1e3/float64(ops))
		fmt.Fprintf(out, "units %d, passes %d, ops %d, failed %d, setup median of %d\n",
			len(seeds), len(passes), ops, res.Failed, len(setups))
		return res, nil
	}

	// Traced run: the same units again under the CPU profiler. Every replay
	// must reproduce its first run's outputs; per-layer self time and
	// allocations come from the profiled replay, work counts from the fixed
	// prefix, and the profiler's cost is the replay's CPU per op against
	// the first run's.
	plain := first
	prof, err := w.pass(seeds, true)
	if err != nil {
		return nil, err
	}
	again(prof, "replay")
	for _, l := range layers {
		res.set(l+".self_us_per_op", prof.layerNanos[l]/1e3/float64(prof.ops))
	}
	res.set("gc.allocs_per_op", float64(prof.allocs)/float64(prof.ops))
	res.set("gc.alloc_bytes_per_op", float64(prof.heap)/float64(prof.ops))
	sums := map[string]float64{}
	var prefixOps float64
	for _, u := range plain.units[:w.prefix] {
		prefixOps += float64(u.ops)
		for k, v := range u.counts {
			sums[k] += v
		}
	}
	for _, r := range w.ratios {
		den := prefixOps
		if r.den != "" {
			den = sums[r.den]
		}
		if den > 0 {
			res.set(r.metric, sums[r.num]/den)
		}
	}
	plainRate := float64(plain.ops) / plain.wall.Seconds()
	profRate := float64(prof.ops) / prof.wall.Seconds()
	res.set("trace.untraced_ops_per_s", plainRate)
	res.set("trace.ops_per_s", profRate)
	res.set("trace.overhead_pct", 100*(float64(prof.cpu)/float64(prof.ops)/(float64(plain.cpu)/float64(plain.ops))-1))
	fmt.Fprintf(out, "traced: %d units replayed, %.1f ops/s untraced vs %.1f ops/s profiled\n", len(seeds), plainRate, profRate)
	return res, nil
}
