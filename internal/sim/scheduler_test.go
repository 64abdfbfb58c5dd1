package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("now = %v, want 30ms", s.Now())
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(time.Second), func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.After(time.Second, func() { fired = true })
	if !e.Stop() {
		t.Fatal("Stop on pending event returned false")
	}
	if e.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerPendingDropsOnStop(t *testing.T) {
	s := NewScheduler(1)
	a := s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d with two events queued, want 2", got)
	}
	a.Stop()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d after Stop, want 1: a stopped event is not live", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Run, want 0", got)
	}
}

// TestSchedulerModel drives the scheduler with thousands of events on
// a few repeated instants, some scheduled from callbacks, and random
// Stops from outside and inside callbacks, against a model: every Stop
// returns true exactly when its event was live, Pending counts the live
// events, and the firing order equals a stable sort of the fired events
// by time over their scheduling order — that is, (at, seq).
func TestSchedulerModel(t *testing.T) {
	const initial, total = 2000, 5000
	type rec struct {
		e              *Event
		at             Time
		fired, stopped bool
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		var all []*rec
		var order []int
		live := 0
		// Which kinds of Stop the run exercised: of a live event, a
		// repeated Stop, a Stop after firing, and a live Stop issued
		// from inside a callback.
		var stopLive, stopAgain, stopFired, stopLiveInCallback int
		inCallback := false
		stop := func(i int) {
			r := all[i]
			want := !r.fired && !r.stopped
			switch {
			case want && inCallback:
				stopLiveInCallback++
				stopLive++
			case want:
				stopLive++
			case r.stopped:
				stopAgain++
			default:
				stopFired++
			}
			if got := r.e.Stop(); got != want {
				t.Fatalf("seed %d: Stop of event %d (fired %v, stopped %v) = %v, want %v",
					seed, i, r.fired, r.stopped, got, want)
			}
			if want {
				r.stopped = true
				live--
			}
			if s.Pending() != live {
				t.Fatalf("seed %d: Pending = %d after Stop, model has %d live", seed, s.Pending(), live)
			}
		}
		var schedule func(at Time)
		schedule = func(at Time) {
			i := len(all)
			r := &rec{at: at}
			all = append(all, r)
			live++
			r.e = s.At(at, func() {
				if r.fired || r.stopped {
					t.Fatalf("seed %d: event %d fired twice or after Stop", seed, i)
				}
				r.fired = true
				live--
				order = append(order, i)
				if s.Now() != r.at {
					t.Fatalf("seed %d: event %d for %v fired at %v", seed, i, r.at, s.Now())
				}
				if s.Pending() != live {
					t.Fatalf("seed %d: Pending = %d in callback, model has %d live", seed, s.Pending(), live)
				}
				inCallback = true
				stop(i) // its own handle, from inside the callback
				if len(all) < total && rng.Intn(3) > 0 {
					schedule(s.Now() + Time(rng.Intn(4)))
				}
				for rng.Intn(3) == 0 {
					stop(rng.Intn(len(all)))
				}
				inCallback = false
			})
		}
		for len(all) < initial {
			schedule(Time(rng.Intn(200)))
			if rng.Intn(4) == 0 {
				stop(rng.Intn(len(all)))
			}
		}
		s.Run()
		for i := range all {
			stop(i) // every event has fired or been stopped: all false
		}
		if live != 0 || s.Pending() != 0 {
			t.Fatalf("seed %d: %d live in model, Pending = %d after Run", seed, live, s.Pending())
		}
		if stopLive == 0 || stopAgain == 0 || stopFired == 0 || stopLiveInCallback == 0 {
			t.Fatalf("seed %d: Stop kinds not all exercised: live %d, again %d, fired %d, live in callback %d",
				seed, stopLive, stopAgain, stopFired, stopLiveInCallback)
		}
		var want []int
		for i, r := range all {
			if r.fired {
				want = append(want, i)
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return all[want[a]].at < all[want[b]].at })
		if len(order) != len(want) {
			t.Fatalf("seed %d: %d events fired, model expects %d", seed, len(order), len(want))
		}
		for k := range want {
			if order[k] != want[k] {
				t.Fatalf("seed %d: firing %d was event %d, reference order has %d", seed, k, order[k], want[k])
			}
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*Time(time.Second), func() { count++ })
	}
	s.RunUntil(Time(5 * time.Second))
	if count != 5 {
		t.Fatalf("count = %d, want 5 (events at t<=5s)", count)
	}
	if s.Now() != Time(5*time.Second) {
		t.Fatalf("now = %v, want 5s", s.Now())
	}
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d after Run, want 10", count)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, rec)
		}
	}
	s.After(0, rec)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if want := Time(99 * time.Millisecond); s.Now() != want {
		t.Fatalf("now = %v, want %v", s.Now(), want)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func() {})
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	for i := 0; i < 10; i++ {
		s.After(Duration(i)*time.Second, func() {
			n++
			if n == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 3 {
		t.Fatalf("n = %d, want 3 after Stop", n)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(42)
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, int64(s.Now()))
			if len(trace) < 50 {
				s.After(Duration(s.Rand().Intn(1000))*time.Microsecond, step)
			}
		}
		s.After(0, step)
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNodeClockRates(t *testing.T) {
	s := NewScheduler(1)
	fast := s.NewClock(1.10, 0)
	slow := s.NewClock(0.90, 0)
	s.RunUntil(Time(10 * time.Second))
	if got, want := fast.Now(), Time(11*time.Second); got != want {
		t.Fatalf("fast.Now() = %v, want %v", got, want)
	}
	if got, want := slow.Now(), Time(9*time.Second); got != want {
		t.Fatalf("slow.Now() = %v, want %v", got, want)
	}
}

func TestNodeClockAfterFunc(t *testing.T) {
	s := NewScheduler(1)
	fast := s.NewClock(2.0, 0) // 2x fast: local 10s elapses in global 5s
	var firedAt Time
	fast.AfterFunc(10*time.Second, func() { firedAt = s.Now() })
	s.Run()
	if want := Time(5 * time.Second); firedAt != want {
		t.Fatalf("fired at global %v, want %v", firedAt, want)
	}
}

func TestNodeClockGlobalAtRoundTrip(t *testing.T) {
	s := NewScheduler(1)
	c := s.NewClock(1.3, 7*time.Hour)
	s.RunUntil(Time(3 * time.Second))
	local := c.Now()
	if got := c.GlobalAt(local); got != s.Now() {
		t.Fatalf("GlobalAt(Now()) = %v, want %v", got, s.Now())
	}
}

func TestNodeClockTimerStop(t *testing.T) {
	s := NewScheduler(1)
	c := s.NewClock(1, 0)
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestRateBound(t *testing.T) {
	b := RateBound{Eps: 0.05}
	if !b.Valid(1.0, 1.0) {
		t.Fatal("equal rates must be valid")
	}
	if !b.Valid(1.0, 1.05) || !b.Valid(1.05, 1.0) {
		t.Fatal("rates at the bound must be valid")
	}
	if b.Valid(1.0, 1.06) {
		t.Fatal("rates beyond the bound must be invalid")
	}
	if b.Valid(0, 1) || b.Valid(1, -2) {
		t.Fatal("non-positive rates must be invalid")
	}
	if got, want := b.Stretch(100*time.Second), 105*time.Second; got != want {
		t.Fatalf("Stretch = %v, want %v", got, want)
	}
}

// Property: for any pair of clocks drawn within eps of nominal, an interval
// of local length d on one clock, converted through global time to the
// other clock, measures within (d/(1+eps'), d*(1+eps')) where
// eps' = (1+eps)^2-1 is the pairwise bound for clocks drawn from
// [1/(1+eps), 1+eps].
func TestClockPairwiseBoundProperty(t *testing.T) {
	const eps = 0.05
	pairEps := (1+eps)*(1+eps) - 1
	f := func(seed int64, dMillis uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		a := s.NewClockWithin(eps, rng)
		b := s.NewClockWithin(eps, rng)
		d := Duration(int64(dMillis)+1) * time.Millisecond
		onB := b.LocalDur(a.GlobalDur(d))
		lo := Duration(float64(d) / (1 + pairEps))
		hi := Duration(float64(d) * (1 + pairEps))
		// Allow a nanosecond of float slack at each edge.
		return onB >= lo-1 && onB <= hi+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(time.Second)
	b := a.Add(500 * time.Millisecond)
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After broken")
	}
	if b.Sub(a) != 500*time.Millisecond {
		t.Fatalf("Sub = %v", b.Sub(a))
	}
	if a.String() != "1s" {
		t.Fatalf("String = %q", a.String())
	}
}

// Property: events fire in exactly nondecreasing-time, FIFO-within-time
// order, regardless of the insertion pattern, including cancellations.
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(seed int64, spec []uint16) bool {
		s := NewScheduler(seed)
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		seq := 0
		var events []*Event
		for _, raw := range spec {
			at := Time(raw % 1000)
			mySeq := seq
			seq++
			e := s.At(at, func() {
				log = append(log, fired{at: s.Now(), seq: mySeq})
			})
			events = append(events, e)
			if raw&0x8000 != 0 && len(events) > 1 {
				// Cancel a random earlier event.
				events[int(raw)%len(events)].Stop()
			}
		}
		s.Run()
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false // time went backwards
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false // same-instant FIFO violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a NodeClock's local measurements are consistent: converting a
// local duration to global and back is identity (within 1ns rounding),
// and Now() is monotone as global time advances.
func TestNodeClockConversionProperty(t *testing.T) {
	f := func(seed int64, rateRaw uint16, dRaw uint32) bool {
		rate := 0.5 + float64(rateRaw%1000)/1000.0 // 0.5..1.5
		s := NewScheduler(seed)
		c := s.NewClock(rate, Duration(seed%1000)*time.Millisecond)
		d := Duration(dRaw%1000000) * time.Microsecond
		back := c.LocalDur(c.GlobalDur(d))
		if diff := back - d; diff < -time.Microsecond || diff > time.Microsecond {
			return false
		}
		before := c.Now()
		s.After(time.Second, func() {})
		s.Run()
		return c.Now() >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
