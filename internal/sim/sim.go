// Package sim provides a deterministic discrete-event simulation engine.
//
// All protocol code in this repository is written against the abstract
// runtime in package env; under test and in the benchmark harness that
// runtime is backed by a Sim, which executes events in virtual time on a
// single goroutine. A seeded random source makes every run reproducible.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wackamole/internal/env"
)

// Epoch is the instant at which every simulation starts. The concrete value
// is arbitrary; it only needs to be stable so that logs and traces from
// different runs line up.
var Epoch = time.Date(2003, time.June, 22, 0, 0, 0, 0, time.UTC)

// Sim is a discrete-event simulator. It is not safe for concurrent use; all
// interaction must happen from the goroutine driving Run/Step, which is also
// the goroutine on which scheduled callbacks execute.
//
// Deadlines are kept as nanoseconds since Epoch. Events run in
// (deadline, insertion sequence) order; that order is total, so ties break
// deterministically in FIFO order.
type Sim struct {
	now   time.Time
	nowNS int64 // now as nanoseconds since Epoch
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
	fired uint64
	// free recycles detached events (those scheduled with Post, which hand
	// out no Timer and so cannot be referenced after firing). Pooling keeps
	// the per-frame scheduling cost of busy traffic simulations
	// allocation-free in steady state.
	free []*event
}

// New returns a simulator positioned at Epoch whose random source is seeded
// with seed.
func New(seed int64) *Sim {
	return &Sim{
		now: Epoch,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Elapsed returns how much virtual time has passed since the simulation
// started.
func (s *Sim) Elapsed() time.Duration { return time.Duration(s.nowNS) }

// Rand returns the simulator's seeded random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending reports how many events are scheduled but not yet executed,
// including cancelled timers that have not been collected.
func (s *Sim) Pending() int { return len(s.queue) }

// Timer is a handle to a scheduled event. The event record lives inside the
// handle, so scheduling with At or After costs one allocation.
type Timer struct {
	ev event
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.ev.fn == nil || t.ev.cancelled || t.ev.done {
		return false
	}
	t.ev.cancelled = true
	return true
}

// At schedules fn to run at instant t. Instants in the past run as soon as
// control returns to the event loop, at the current virtual time.
func (s *Sim) At(t time.Time, fn func()) *Timer {
	return s.timer(t.Sub(Epoch), fn)
}

// After schedules fn to run d from the current virtual time. Negative
// durations are treated as zero.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	return s.timer(s.deadline(d), fn)
}

func (s *Sim) timer(ns time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: timer scheduled with nil callback")
	}
	tm := &Timer{ev: event{fn: fn}}
	s.schedule(ns, &tm.ev)
	return tm
}

// Runnable is a pre-allocated scheduled callback for the Post fast path.
// Implementations are typically pooled structs carrying their own context,
// which is what lets high-rate traffic paths schedule without allocating a
// closure per event.
type Runnable interface{ Run() }

// Post schedules r to run d from the current virtual time. Unlike After it
// returns no Timer — the event cannot be cancelled — which allows the
// simulator to recycle the event record after it fires. Ordering relative
// to After-scheduled events follows the same (deadline, insertion sequence)
// rule.
func (s *Sim) Post(d time.Duration, r Runnable) {
	if r == nil {
		panic("sim: Post called with nil Runnable")
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.run = r
	s.schedule(s.deadline(d), ev)
}

// deadline returns now+d in nanoseconds since Epoch, saturating instead of
// overflowing for durations that reach past the representable range (about
// 292 years from Epoch).
func (s *Sim) deadline(d time.Duration) time.Duration {
	if d > 0 && s.nowNS > math.MaxInt64-int64(d) {
		return math.MaxInt64
	}
	return time.Duration(s.nowNS) + d
}

// schedule queues ev at ns nanoseconds since Epoch, clamped to now, under
// the next insertion sequence number.
func (s *Sim) schedule(ns time.Duration, ev *event) {
	at := int64(ns)
	if at < s.nowNS {
		at = s.nowNS
	}
	s.queue.push(slot{at: at, seq: s.seq, ev: ev})
	s.seq++
}

// AfterFunc adapts After to the env.Clock interface, so a bare simulator can
// serve as the clock for protocol code that is not tied to a simulated host.
func (s *Sim) AfterFunc(d time.Duration, fn func()) env.Timer {
	return s.After(d, fn)
}

var _ env.Clock = (*Sim)(nil)

// Step executes the next pending event, advancing virtual time to its
// deadline. It reports whether an event was executed.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		top := s.queue.pop()
		ev := top.ev
		if ev.cancelled {
			continue
		}
		if top.at < s.nowNS {
			panic(fmt.Sprintf("sim: event scheduled at %v before now %v",
				Epoch.Add(time.Duration(top.at)), s.now))
		}
		if top.at != s.nowNS {
			s.nowNS = top.at
			s.now = Epoch.Add(time.Duration(top.at))
		}
		ev.done = true
		s.fired++
		if r := ev.run; r != nil {
			// Detached event: recycle the record before running so nested
			// Posts can reuse it immediately.
			ev.run = nil
			s.free = append(s.free, ev)
			r.Run()
			return true
		}
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with deadlines at or before t, then advances the
// clock to exactly t. Events scheduled beyond t remain pending.
func (s *Sim) RunUntil(t time.Time) {
	limit := int64(t.Sub(Epoch))
	for {
		top, ok := s.queue.peekLive()
		if !ok || top.at > limit {
			break
		}
		s.Step()
	}
	if t.After(s.now) {
		s.now = t
		s.nowNS = limit
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Sim) RunFor(d time.Duration) {
	s.RunUntil(s.now.Add(d))
}

// event is one scheduled callback: fn for timers (At/After), run for
// detached Post events.
type event struct {
	fn        func()
	run       Runnable
	cancelled bool
	done      bool
}

// slot is one queue entry. The ordering key sits in the entry itself so
// sifting compares plain integers without touching the event.
type slot struct {
	at  int64 // deadline, nanoseconds since Epoch
	seq uint64
	ev  *event
}

func (a slot) less(b slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of slots ordered by (deadline, sequence).
// The wider fan-out halves the tree depth of a binary heap, so a pop does
// fewer levels of sifting over entries that share cache lines.
type eventQueue []slot

func (q *eventQueue) push(x slot) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

func (q *eventQueue) pop() slot {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = slot{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}

// peekLive discards cancelled events from the top of the queue and returns
// the earliest live one, if any.
func (q *eventQueue) peekLive() (slot, bool) {
	for len(*q) > 0 {
		if top := (*q)[0]; !top.ev.cancelled {
			return top, true
		}
		q.pop()
	}
	return slot{}, false
}
