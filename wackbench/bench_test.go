package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/sim"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{0, 10}, 0.99, 9.9},
	}
	for _, c := range cases {
		xs := append([]float64(nil), c.xs...)
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// An allocation made by gcs code is gcs time.
		{[]string{"runtime.mallocgc", "wackamole/internal/gcs.(*Daemon).onToken.func1", "wackamole/internal/sim.(*Sim).Step"}, "gcs"},
		{[]string{"container/heap.Pop", "wackamole/internal/sim.(*Sim).Step"}, "sim"},
		{[]string{"syscall.Syscall6", "net.(*UDPConn).ReadFromUDP", "wackamole/internal/env/realtime.(*Conn).readLoop"}, "realtime"},
		{[]string{"wackamole/internal/wire.(*Writer).PutU64", "wackamole/internal/gcs.encode"}, "wire"},
		// The program's other packages and the benchmark itself are other.
		{[]string{"wackamole/internal/metrics.(*Counter).Inc", "wackamole/internal/flow.(*Client).receive"}, "other"},
		{[]string{"wackamole.(*Node).Start"}, "other"},
		{[]string{"main.(*liveCluster).onMessage", "wackamole/internal/gcs.(*Daemon).deliver"}, "other"},
		// No program frame: background collection or the runtime.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"wackamole/internal/gcs.(*Daemon).onToken.func1": "wackamole/internal/gcs",
		"wackamole/internal/env/realtime.NewLoop.func1":  "wackamole/internal/env/realtime",
		"wackamole.(*Node).Start":                        "wackamole",
		"runtime.mallocgc":                               "runtime",
		"main.main":                                      "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protocol-buffer encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) key(num, wire int) { b.uvarint(uint64(num<<3 | wire)) }
func (b *pb) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}
func (b *pb) varint(num int, v uint64) { b.key(num, 0); b.uvarint(v) }
func (b *pb) bytes(num int, p []byte) {
	b.key(num, 2)
	b.uvarint(uint64(len(p)))
	b.Write(p)
}
func (b *pb) packed(num int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.uvarint(v)
	}
	b.bytes(num, inner.Bytes())
}

func TestParseProfile(t *testing.T) {
	var p pb
	p.bytes(1, nil) // sample_type: samples/count
	p.bytes(1, nil) // sample_type: cpu/nanoseconds
	// Sample 1: packed location ids, leaf first.
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 1, 10000000)
	p.bytes(2, s1.Bytes())
	// Sample 2: unpacked fields, as the runtime writes short lists.
	var s2 pb
	s2.varint(1, 2)
	s2.varint(2, 2)
	s2.varint(2, 20000000)
	p.bytes(2, s2.Bytes())
	// Location 1 holds an inlined call: line 0 (innermost) is wire, inlined
	// into gcs. Location 2 is sim.
	var l1, l1a, l1b pb
	l1.varint(1, 1)
	l1a.varint(1, 3) // function id: wire
	l1b.varint(1, 4) // function id: gcs
	l1.bytes(4, l1a.Bytes())
	l1.bytes(4, l1b.Bytes())
	p.bytes(4, l1.Bytes())
	var l2, l2a pb
	l2.varint(1, 2)
	l2a.varint(1, 5)
	l2.bytes(4, l2a.Bytes())
	p.bytes(4, l2.Bytes())
	for id, name := range map[uint64]uint64{3: 1, 4: 2, 5: 3} {
		var f pb
		f.varint(1, id)
		f.varint(2, name)
		p.bytes(5, f.Bytes())
	}
	for _, s := range []string{"", "wackamole/internal/wire.PutU32", "wackamole/internal/gcs.(*Daemon).send", "wackamole/internal/sim.(*Sim).Step"} {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	want0 := []string{"wackamole/internal/wire.PutU32", "wackamole/internal/gcs.(*Daemon).send", "wackamole/internal/sim.(*Sim).Step"}
	if got := samples[0].frames; len(got) != 3 || got[0] != want0[0] || got[1] != want0[1] || got[2] != want0[2] {
		t.Errorf("sample 0 frames %v, want %v", got, want0)
	}
	if samples[0].cpuNanos != 10000000 || samples[1].cpuNanos != 20000000 {
		t.Errorf("cpu nanos %d, %d; want 10000000, 20000000", samples[0].cpuNanos, samples[1].cpuNanos)
	}
	if got := attribute(samples[0].frames); got != "wire" {
		t.Errorf("sample 0 charged to %q, want wire (innermost inlined frame)", got)
	}
	if got := attribute(samples[1].frames); got != "sim" {
		t.Errorf("sample 1 charged to %q, want sim", got)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{2<<3 | 2, 10, 1}) // a sample claiming ten bytes, holding one
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

// TestProfilerChargesSimulator profiles real simulator work and checks the
// runtime's own profile format decodes into the sim layer.
func TestProfilerChargesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for half a second")
	}
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	var tick func()
	tick = func() { s.After(time.Microsecond, tick) }
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Nanosecond, tick)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		s.RunFor(time.Millisecond)
	}
	byLayer, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	// The simulator's frames land in sim; the test's own callback and the
	// runtime in other and gc. No other layer ran.
	if byLayer["sim"] == 0 {
		t.Fatalf("no CPU charged to sim: %v", byLayer)
	}
	for l := range byLayer {
		if l != "sim" && l != "other" && l != "gc" {
			t.Errorf("CPU charged to %s, which did not run: %v", l, byLayer)
		}
	}
}

func TestFastestPass(t *testing.T) {
	ms := time.Millisecond
	passes := []*phaseResult{
		{units: []*unit{{ops: 10, wall: 5 * ms, cpu: 4 * ms, setup: 3 * ms}, {ops: 20, wall: 9 * ms, cpu: 9 * ms, setup: 4 * ms}}},
		{units: []*unit{{ops: 10, wall: 7 * ms, cpu: 2 * ms, setup: 1 * ms}, {ops: 20, wall: 6 * ms, cpu: 8 * ms, setup: 5 * ms}}},
		{units: []*unit{{ops: 10, wall: 6 * ms, cpu: 6 * ms, setup: 2 * ms}, {ops: 20, wall: 8 * ms, cpu: 7 * ms, setup: 6 * ms}}},
	}
	ops, wall, cpu, setups := fastest(passes)
	if ops != 30 {
		t.Errorf("ops = %d, want one pass's 30", ops)
	}
	if wall != 11*ms || cpu != 9*ms {
		t.Errorf("wall, cpu = %v, %v, want 5ms+6ms and 2ms+7ms", wall, cpu)
	}
	if len(setups) != 2 || math.Abs(setups[0]-0.001) > 1e-12 || math.Abs(setups[1]-0.004) > 1e-12 {
		t.Errorf("setups = %v, want [0.001 0.004]", setups)
	}
}

func TestUnitsFixed(t *testing.T) {
	w := &simWorkload{prefix: 8, perSecond: 1.8, passes: 5}
	if got := w.units(30 * time.Second); got != 11 {
		t.Errorf("units(30s) = %d, want 11", got)
	}
	if got := w.units(time.Second); got != 8 {
		t.Errorf("units(1s) = %d, want the prefix, 8", got)
	}
}

func TestWebTrialFailures(t *testing.T) {
	tr := &webTrial{Unexplained: 3}
	tr.Requests[0], tr.Requests[1] = 90, 10
	if got := tr.failed(); got != 3 {
		t.Errorf("clean trial: failed %d, want the 3 unexplained", got)
	}
	tr.Problems = []string{"no survivor detected the failed server"}
	if got := tr.failed(); got != 100 {
		t.Errorf("trial failing a check: failed %d, want all 100 requests", got)
	}
}

func TestMessageFailures(t *testing.T) {
	cases := []struct {
		refused, misordered, accepted, advanced, want uint64
	}{
		{0, 0, 100, 100, 0},
		{2, 0, 98, 98, 2},   // refused by backpressure
		{0, 0, 100, 97, 3},  // never delivered
		{0, 1, 100, 100, 1}, // a duplicate: behind the sequence, nothing lost
	}
	for _, c := range cases {
		if got := messageFailures(c.refused, c.misordered, c.accepted, c.advanced); got != c.want {
			t.Errorf("messageFailures(%d, %d, %d, %d) = %d, want %d",
				c.refused, c.misordered, c.accepted, c.advanced, got, c.want)
		}
	}
}

func TestOnMessageChecksSequence(t *testing.T) {
	lc := &liveCluster{}
	msg := func(seq uint64) []byte {
		p := make([]byte, livePayload)
		binary.LittleEndian.PutUint64(p, seq)
		binary.LittleEndian.PutUint64(p[8:], uint64(time.Now().UnixNano()))
		return p
	}
	// Five accepted messages; 2 arrives twice and 3 never does.
	for _, seq := range []uint64{0, 1, 2, 2, 4} {
		lc.onMessage(gcs.GroupMember{}, liveGroupName, msg(seq))
	}
	if lc.delivered != 5 || lc.advanced != 4 || lc.misordered != 1 {
		t.Errorf("delivered %d advanced %d misordered %d, want 5, 4 and 1", lc.delivered, lc.advanced, lc.misordered)
	}
	if got := messageFailures(0, lc.misordered, 5, lc.advanced); got != 2 {
		t.Errorf("%d failed messages, want 2: the duplicate and the missing one", got)
	}
	if len(lc.latencies) != 5 {
		t.Errorf("%d latencies recorded, want 5", len(lc.latencies))
	}
}

func TestResultFinish(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b", "count"}}
	r := newResult()
	r.Attempted, r.Failed = 10, 1
	r.set("a_s", 1.5)
	line, err := r.finish(defs)
	if err != nil {
		t.Fatal(err)
	}
	var got resultJSON
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 10 || got.Failed != 1 {
		t.Errorf("header %+v", got)
	}
	if got.Metrics["a_s"] != (metricJSON{1.5, "s"}) || got.Metrics["b"] != (metricJSON{0, "count"}) {
		t.Errorf("metrics %+v", got.Metrics)
	}

	r.problem("determinism: differs")
	line, _ = r.finish(defs)
	json.Unmarshal(line, &got)
	if got.Correct {
		t.Error("a failed run check left the run correct")
	}

	r.set("c", 1)
	if _, err := r.finish(defs); err == nil {
		t.Error("a metric outside the reported set was accepted")
	}
	r = newResult()
	r.Attempted = 1
	r.set("a_s", math.NaN())
	if _, err := r.finish(defs); err == nil {
		t.Error("NaN was accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark's runner
// reads, in step with the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
