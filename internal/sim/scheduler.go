package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled callback. Events are ordered by (time, sequence
// number) so that simulations are fully deterministic: two events at the
// same instant fire in the order they were scheduled.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	sched *Scheduler
	index int // position in sched's heap, -1 once fired or stopped
}

// Time returns the global instant the event is scheduled for.
func (e *Event) Time() Time { return e.at }

// Stop cancels the event, taking it out of the scheduler's queue. It
// reports whether the call prevented the event from firing: false once
// the event has fired (including from inside its own callback) or been
// stopped.
func (e *Event) Stop() bool {
	if e == nil || e.index < 0 {
		return false
	}
	e.sched.remove(e.index)
	e.fn = nil
	return true
}

// before is the queue order: (at, seq), a total order.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Scheduler is a single-threaded discrete-event scheduler. All simulated
// activity — message delivery, timers, workload arrivals — is an Event on
// its queue. It is not safe for concurrent use; the entire simulation runs
// on the caller's goroutine.
//
// The queue is a 4-ary min-heap over (at, seq) holding live events only:
// Event.Stop removes its event at once, so nearly-always-cancelled timers
// (retries, lease phases) cost no queue space or GC scanning past their
// Stop.
type Scheduler struct {
	now     Time
	seq     uint64
	queue   []*Event
	rng     *rand.Rand
	stopped bool
	fired   uint64
}

// NewScheduler returns a scheduler at time zero with randomness derived
// from seed. The same seed always produces the same simulation.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current global simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of live events: scheduled and neither fired
// nor stopped.
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn at global time t. Scheduling in the past panics: it is
// always a logic error in a discrete-event model.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := &Event{at: t, seq: s.seq, fn: fn, sched: s, index: len(s.queue)}
	s.seq++
	s.queue = append(s.queue, e)
	s.up(e.index)
	return e
}

// After schedules fn after global duration d. Negative d is clamped to 0.
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Step executes the next event. It reports false when the queue is empty
// or the scheduler is stopped.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 || s.stopped {
		return false
	}
	e := s.queue[0]
	s.remove(0)
	if e.at < s.now {
		panic("sim: event queue went backwards")
	}
	s.now = e.at
	s.fired++
	fn := e.fn
	e.fn = nil // a fired event's handle may outlive it; its closure need not
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
// Events scheduled exactly at t do fire.
func (s *Scheduler) RunUntil(t Time) {
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > t {
			break
		}
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor advances the simulation by global duration d.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// RunWhile executes events while cond() holds and events remain.
func (s *Scheduler) RunWhile(cond func() bool) {
	for cond() && s.Step() {
	}
}

// Stop halts Run/RunUntil after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Scheduler) Stopped() bool { return s.stopped }

func (s *Scheduler) peek() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// remove takes the event at heap index i out of the queue.
func (s *Scheduler) remove(i int) {
	q := s.queue
	n := len(q) - 1
	q[i].index = -1
	q[i] = q[n] // the last event fills the hole; up or down re-seats it
	q[n] = nil
	s.queue = q[:n]
	if i < n && !s.up(i) {
		s.down(i)
	}
}

// up sifts the event at index i toward the root and reports whether it
// moved.
func (s *Scheduler) up(i int) bool {
	q := s.queue
	e := q[i]
	start := i
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
	return i != start
}

// down sifts the event at index i toward the leaves.
func (s *Scheduler) down(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(e) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = e
	e.index = i
}
