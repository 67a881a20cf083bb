package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Drain()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Drain()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var depth int
	var fire func()
	fire = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, fire)
		}
	}
	e.Schedule(0, fire)
	e.Drain()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("clock = %v, want 99ns", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !e.Active(ev) {
		t.Fatal("event reported inactive before firing")
	}
	e.Cancel(ev)
	if e.Active(ev) {
		t.Fatal("event still active after cancel")
	}
	e.Drain()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double cancel is a no-op.
	e.Cancel(ev)
	// Cancel of the zero EventID is a no-op.
	e.Cancel(EventID{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []EventID
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.Schedule(Duration(i), func() { got = append(got, i) }))
	}
	for i := 0; i < 20; i += 2 {
		e.Cancel(evs[i])
	}
	e.Drain()
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
	for _, v := range got {
		if v%2 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestRunDeadline(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Duration(i)*Microsecond, func() { count++ })
	}
	e.Run(Time(5 * Microsecond))
	if count != 5 {
		t.Fatalf("fired %d events by deadline, want 5", count)
	}
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("clock = %v, want 5µs", e.Now())
	}
	e.Drain()
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunFor(Millisecond)
	if e.Now() != Time(Millisecond) {
		t.Fatalf("clock = %v, want 1ms", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 100; i++ {
		e.Schedule(Duration(i), func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 7 }, Forever)
	if !ok || n != 7 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want 7/true", n, ok)
	}
	ok = e.RunUntil(func() bool { return n >= 1000 }, Forever)
	if ok || n != 100 {
		t.Fatalf("RunUntil with unreachable pred: n=%d ok=%v", n, ok)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Drain()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5, func() { fired = true })
	e.Drain()
	if !fired || e.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, e.Now())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	e.Schedule(1, func() {})
	if !e.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100)
	if tm.Add(50) != 150 {
		t.Fatal("Add")
	}
	if Time(150).Sub(tm) != 50 {
		t.Fatal("Sub")
	}
	if Duration(2*Second).Seconds() != 2.0 {
		t.Fatal("Seconds")
	}
}

// Property: for any batch of delays, events fire in nondecreasing time order
// and the engine ends at the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fireTimes []Time
		var maxDelay Duration
		for _, d := range delays {
			d := Duration(d)
			if d > maxDelay {
				maxDelay = d
			}
			e.Schedule(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Drain()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return e.Now() == Time(maxDelay)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(1)
	z := NewZipf(r, 1000, 0.99)
	counts := make(map[int64]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Item 0 must be by far the most popular; top-10 items should carry a
	// large share of all draws under theta=0.99.
	top := 0
	for i := int64(0); i < 10; i++ {
		top += counts[i]
	}
	if counts[0] < draws/20 {
		t.Fatalf("item 0 drawn %d times, want skew (>%d)", counts[0], draws/20)
	}
	if top < draws/4 {
		t.Fatalf("top-10 items drawn %d times, want > %d", top, draws/4)
	}
}

func TestZipfGrow(t *testing.T) {
	r := NewRand(2)
	z := NewZipf(r, 10, 0.99)
	z.Grow(100)
	if z.N() != 100 {
		t.Fatalf("N = %d, want 100", z.N())
	}
	seenHigh := false
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("zipf value %d out of grown range", v)
		}
		if v >= 10 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Fatal("grown range never produced values beyond original range")
	}
	// Shrinking is a no-op.
	z.Grow(50)
	if z.N() != 100 {
		t.Fatalf("Grow shrank the range to %d", z.N())
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(3)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(1000))
	}
	mean := sum / n
	if math.Abs(mean-1000) > 30 {
		t.Fatalf("exponential mean = %.1f, want ≈1000", mean)
	}
	if r.Exp(0) != 0 || r.Exp(-5) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRand(4)
	const n = 100000
	exceed := 0
	for i := 0; i < n; i++ {
		v := r.Pareto(100, 1.5)
		if v < 100 {
			t.Fatalf("pareto value %d below minimum", v)
		}
		if v > 1000 {
			exceed++
		}
	}
	// P(X > 10*min) = 10^-1.5 ≈ 3.16%.
	frac := float64(exceed) / n
	if frac < 0.02 || frac > 0.05 {
		t.Fatalf("pareto tail fraction = %.4f, want ≈0.0316", frac)
	}
	if r.Pareto(0, 1.5) != 0 {
		t.Fatal("non-positive minimum should yield 0")
	}
}

func TestJitter(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(1000, 0.1)
		if v < 900 || v > 1100 {
			t.Fatalf("jittered value %d outside ±10%%", v)
		}
	}
	if r.Jitter(1000, 0) != 1000 {
		t.Fatal("zero jitter changed value")
	}
}

func TestNormalClamped(t *testing.T) {
	r := NewRand(6)
	for i := 0; i < 10000; i++ {
		if r.Normal(10, 100) < 0 {
			t.Fatal("normal produced negative duration")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewRand(7)
	b := a.Fork()
	c := a.Fork()
	// Forked streams should differ from each other and the parent.
	av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
	if av == bv && bv == cv {
		t.Fatal("forked RNG streams identical")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		r := NewRand(42)
		z := NewZipf(r.Fork(), 100, 0.99)
		var out []int64
		for i := 0; i < 100; i++ {
			out = append(out, z.Next(), r.Int63n(1000))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEventTimeAndPending(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(25, func() {})
	if at, ok := e.EventTime(ev); !ok || at != 25 {
		t.Fatalf("event time %v ok=%v", at, ok)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d", e.Pending())
	}
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("pending after drain %d", e.Pending())
	}
	if _, ok := e.EventTime(ev); ok {
		t.Fatal("fired event still reports a time")
	}
}

// A handle must go stale the moment its event fires, and stay stale even
// after the underlying slab slot is recycled by a new event.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(1, func() {})
	e.Drain()
	if e.Active(first) {
		t.Fatal("fired event still active")
	}
	fired := false
	second := e.Schedule(5, func() { fired = true }) // recycles first's slot
	e.Cancel(first)                                  // stale: must not cancel second
	e.Drain()
	if !fired {
		t.Fatal("stale handle canceled a recycled slot's event")
	}
	if e.Active(second) {
		t.Fatal("fired event still active")
	}
}

// Canceling and rescheduling under churn must preserve (time, seq) firing
// order exactly.
func TestCancelRescheduleChurn(t *testing.T) {
	e := NewEngine()
	var got []int
	var ids []EventID
	for i := 0; i < 100; i++ {
		i := i
		ids = append(ids, e.Schedule(Duration(100+i), func() { got = append(got, i) }))
	}
	// Cancel every third, then schedule replacements at earlier instants.
	for i := 0; i < 100; i += 3 {
		e.Cancel(ids[i])
	}
	var early []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Duration(i), func() { early = append(early, i) })
	}
	e.Drain()
	for i, v := range early {
		if v != i {
			t.Fatalf("early events out of order: %v", early)
		}
	}
	want := 0
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
		if v < want {
			t.Fatalf("late events out of order: %v", got)
		}
		want = v
	}
}

// RunUntil must advance the clock to the deadline when it gives up
// (mirroring Run), and leave the clock at the satisfying event otherwise.
func TestRunUntilDeadlineAdvancesClock(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(10, func() { n++ })
	e.Schedule(20*Microsecond, func() { n++ })
	// Pred satisfied: clock stays at the satisfying event.
	if !e.RunUntil(func() bool { return n >= 1 }, Time(Microsecond)) {
		t.Fatal("pred not satisfied")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v after satisfied pred, want 10ns", e.Now())
	}
	// Pred not satisfied by deadline: clock advances to the deadline.
	if e.RunUntil(func() bool { return n >= 2 }, Time(Microsecond)) {
		t.Fatal("pred unexpectedly satisfied")
	}
	if e.Now() != Time(Microsecond) {
		t.Fatalf("clock = %v after missed deadline, want 1µs", e.Now())
	}
	// The later event still fires afterwards.
	e.Drain()
	if n != 2 || e.Now() != Time(20*Microsecond) {
		t.Fatalf("n=%d now=%v after drain", n, e.Now())
	}
	// Forever deadline with an empty queue must not teleport the clock.
	if e.RunUntil(func() bool { return false }, Forever) {
		t.Fatal("pred satisfied on empty queue")
	}
	if e.Now() != Time(20*Microsecond) {
		t.Fatalf("clock moved on Forever deadline: %v", e.Now())
	}
}

// BenchmarkEngineScheduleFire pins the zero-allocation claim for the
// steady-state schedule→fire cycle: the slab and heap arrays must be fully
// recycled, so allocs/op reported here must be 0.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Step()
	}
	if e.Fired() != uint64(b.N) {
		b.Fatalf("fired %d/%d", e.Fired(), b.N)
	}
}

// BenchmarkEngineScheduleFireDeep exercises the same cycle with a deep
// standing queue so sifts traverse several heap levels.
func BenchmarkEngineScheduleFireDeep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(Duration(1+i%64), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(64, fn)
		e.Step()
	}
}

// BenchmarkEngineCancel pins schedule→cancel: canceling from the middle of
// the heap must not allocate either.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Duration(1+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.Schedule(Duration(1+i%512), fn)
		e.Cancel(id)
	}
}

// Both event forms share one sequence: same-instant ties fire in schedule
// order whichever form scheduled them, and the call form allocates nothing.
func TestScheduleCallAtOrderAndAllocs(t *testing.T) {
	e := NewEngine()
	var got []int
	type box struct{ v int }
	record := func(a any) { got = append(got, a.(*box).v) }
	at := Time(5)
	e.ScheduleCallAt(at, record, &box{1})
	e.ScheduleAt(at, func() { got = append(got, 2) })
	e.ScheduleCallAt(at, record, &box{3})
	e.ScheduleCallAt(at-1, record, &box{0})
	e.Drain()
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Fatalf("fire order %v, want [0 1 2 3]", got)
	}
	b := &box{}
	inc := func(a any) { a.(*box).v++ }
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleCallAt(e.Now().Add(1), inc, b)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleCallAt+Step allocated %.1f times per event", allocs)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.Run(Forever)
	})
	e.Drain()
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn accepted")
		}
	}()
	e.Schedule(1, nil)
}
