package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The differential test runs one randomly generated program against the
// simulator and against refSim, a deliberately naive model that keeps its
// events in an unordered slice and fires the minimum by (deadline,
// insertion sequence). Both must print the same log, line for line: every
// fire and its instant, every Stop result, and Pending/Fired/Now after
// each top-level operation.

// stopper is a cancellable event handle (*Timer or *refEvent).
type stopper interface{ Stop() bool }

// queueUnderTest is the slice of the simulator's API the programs use.
// Instants are nanoseconds since Epoch.
type queueUnderTest interface {
	nowNS() int64
	at(ns int64, fn func()) stopper
	after(d time.Duration, fn func()) stopper
	post(d time.Duration, fn func())
	step() bool
	runUntil(ns int64)
	pending() int
	fired() uint64
}

type funcRunnable func()

func (f funcRunnable) Run() { f() }

type simQueue struct{ s *Sim }

func (q simQueue) nowNS() int64 { return int64(q.s.Elapsed()) }
func (q simQueue) at(ns int64, fn func()) stopper {
	return q.s.At(Epoch.Add(time.Duration(ns)), fn)
}
func (q simQueue) after(d time.Duration, fn func()) stopper { return q.s.After(d, fn) }
func (q simQueue) post(d time.Duration, fn func())          { q.s.Post(d, funcRunnable(fn)) }
func (q simQueue) step() bool                               { return q.s.Step() }
func (q simQueue) runUntil(ns int64)                        { q.s.RunUntil(Epoch.Add(time.Duration(ns))) }
func (q simQueue) pending() int                             { return q.s.Pending() }
func (q simQueue) fired() uint64                            { return q.s.Fired() }

// refSim is the reference model. Like the simulator it drops cancelled
// events lazily, only when they reach the front of the order, so Pending
// agrees exactly.
type refSim struct {
	now    int64
	seq    uint64
	events []*refEvent
	nFired uint64
}

type refEvent struct {
	at, seq         int64
	fn              func()
	cancellable     bool
	cancelled, done bool
}

func (e *refEvent) Stop() bool {
	if !e.cancellable || e.cancelled || e.done {
		return false
	}
	e.cancelled = true
	return true
}

func (r *refSim) add(at int64, fn func(), cancellable bool) *refEvent {
	if at < r.now {
		at = r.now
	}
	e := &refEvent{at: at, seq: int64(r.seq), fn: fn, cancellable: cancellable}
	r.seq++
	r.events = append(r.events, e)
	return e
}

// front drops cancelled events from the front of the order and returns the
// index of the earliest live one, or -1.
func (r *refSim) front() int {
	for {
		best := -1
		for i, e := range r.events {
			if best < 0 || e.at < r.events[best].at ||
				(e.at == r.events[best].at && e.seq < r.events[best].seq) {
				best = i
			}
		}
		if best < 0 || !r.events[best].cancelled {
			return best
		}
		r.events = append(r.events[:best], r.events[best+1:]...)
	}
}

func (r *refSim) nowNS() int64 { return r.now }
func (r *refSim) at(ns int64, fn func()) stopper {
	return r.add(ns, fn, true)
}
func (r *refSim) after(d time.Duration, fn func()) stopper {
	return r.add(r.now+int64(d), fn, true)
}
func (r *refSim) post(d time.Duration, fn func()) { r.add(r.now+int64(d), fn, false) }
func (r *refSim) step() bool {
	i := r.front()
	if i < 0 {
		return false
	}
	e := r.events[i]
	r.events = append(r.events[:i], r.events[i+1:]...)
	r.now = e.at
	e.done = true
	r.nFired++
	e.fn()
	return true
}
func (r *refSim) runUntil(ns int64) {
	for {
		i := r.front()
		if i < 0 || r.events[i].at > ns {
			break
		}
		r.step()
	}
	if ns > r.now {
		r.now = ns
	}
}
func (r *refSim) pending() int  { return len(r.events) }
func (r *refSim) fired() uint64 { return r.nFired }

// program drives q through one generated schedule and returns its log.
// Every choice comes from a random source keyed by the program seed and the
// event's own id, never from the implementation's state, so two correct
// implementations produce the same log.
type program struct {
	q        queueUnderTest
	seed     int64
	nextID   int
	timers   []stopper
	budget   int // events still allowed to be scheduled
	log      []string
	deadline []int64 // every deadline scheduled so far, for exact boundaries
}

// delay draws a relative delay on a coarse grid, so equal deadlines are
// common, with an occasional negative (past) value.
func delay(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Intn(12)-2) * time.Millisecond
}

func (p *program) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

// schedule adds one event using At, After or Post, chosen by rng.
func (p *program) schedule(rng *rand.Rand) {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := p.nextID
	p.nextID++
	fn := func() { p.fire(id) }
	d := delay(rng)
	at := p.q.nowNS() + int64(d)
	switch rng.Intn(3) {
	case 0:
		p.timers = append(p.timers, p.q.at(at, fn))
	case 1:
		p.timers = append(p.timers, p.q.after(d, fn))
	default:
		p.q.post(d, fn)
	}
	if at < p.q.nowNS() {
		at = p.q.nowNS()
	}
	p.deadline = append(p.deadline, at)
}

// stop cancels a random handle: pending, already fired, already stopped,
// or the event currently firing.
func (p *program) stop(rng *rand.Rand) {
	if len(p.timers) == 0 {
		return
	}
	i := rng.Intn(len(p.timers))
	p.logf("stop %d -> %v", i, p.timers[i].Stop())
}

func (p *program) fire(id int) {
	p.logf("fire %d at %d", id, p.q.nowNS())
	rng := rand.New(rand.NewSource(p.seed*7919 + int64(id)))
	for n := rng.Intn(4); n > 0; n-- {
		if rng.Intn(3) == 0 {
			p.stop(rng)
		} else {
			p.schedule(rng)
		}
	}
}

func (p *program) state(op string) {
	p.logf("%s: now=%d pending=%d fired=%d", op, p.q.nowNS(), p.q.pending(), p.q.fired())
}

func runProgram(q queueUnderTest, seed int64) []string {
	p := &program{q: q, seed: seed, budget: 200}
	rng := rand.New(rand.NewSource(seed))
	for n := 1 + rng.Intn(20); n > 0; n-- {
		p.schedule(rng)
	}
	for i := 0; i < 40; i++ {
		switch rng.Intn(6) {
		case 0:
			p.schedule(rng)
			p.state("schedule")
		case 1:
			p.stop(rng)
			p.state("stop")
		case 2:
			p.logf("step -> %v", q.step())
			p.state("step")
		case 3:
			// Land exactly on a deadline already scheduled (possibly in the
			// past, which must leave the clock alone).
			t := p.deadline[rng.Intn(len(p.deadline))]
			q.runUntil(t)
			p.state(fmt.Sprintf("runUntil %d", t))
		default:
			t := q.nowNS() + int64(delay(rng))
			q.runUntil(t)
			p.state(fmt.Sprintf("runUntil %d", t))
		}
	}
	for q.step() {
	}
	p.state("drain")
	return p.log
}

func TestQueueMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		got := runProgram(simQueue{New(1)}, seed)
		want := runProgram(&refSim{}, seed)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("program %d diverges at line %d:\n  sim:       %q\n  reference: %q", seed, i, g, w)
			}
		}
	}
}

type nopRunnable struct{}

func (*nopRunnable) Run() {}

func TestPostDoesNotAllocate(t *testing.T) {
	s := New(1)
	r := &nopRunnable{}
	s.Post(time.Microsecond, r)
	s.Step()
	if avg := testing.AllocsPerRun(1000, func() {
		s.Post(time.Microsecond, r)
		s.Step()
	}); avg != 0 {
		t.Fatalf("Post+Step allocates %.2f objects, want 0", avg)
	}
}

func TestAfterAllocatesOnce(t *testing.T) {
	s := New(1)
	fn := func() {}
	s.After(time.Microsecond, fn)
	s.Step()
	if avg := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	}); avg > 1 {
		t.Fatalf("After+Step allocates %.2f objects, want at most 1", avg)
	}
}
