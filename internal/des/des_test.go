package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := NewSimulator()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewSimulator()
	var fired []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		s.Schedule(d, func() { fired = append(fired, s.Now()) })
	}
	s.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (tie-break broken)", i, got, i)
		}
	}
}

func TestScheduleFromHandler(t *testing.T) {
	s := NewSimulator()
	var times []Time
	s.Schedule(10, func() {
		times = append(times, s.Now())
		s.Schedule(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestCancel(t *testing.T) {
	s := NewSimulator()
	fired := false
	ref := s.Schedule(10, func() { fired = true })
	s.Cancel(ref)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ref.Cancelled() {
		t.Fatal("ref.Cancelled() = false after cancel")
	}
	// Double-cancel and cancel-after-fire are no-ops.
	s.Cancel(ref)
	ref2 := s.Schedule(1, func() {})
	s.Run()
	s.Cancel(ref2)
}

func TestCancelMiddleEventKeepsOrder(t *testing.T) {
	s := NewSimulator()
	var fired []Time
	s.Schedule(10, func() { fired = append(fired, s.Now()) })
	mid := s.Schedule(20, func() { fired = append(fired, s.Now()) })
	s.Schedule(30, func() { fired = append(fired, s.Now()) })
	s.Cancel(mid)
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("fired = %v, want [10 30]", fired)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewSimulator()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.Schedule(10, tick)
	}
	s.Schedule(10, tick)
	s.RunUntil(95)
	if count != 9 {
		t.Fatalf("count = %d, want 9", count)
	}
	if s.Now() != 95 {
		t.Fatalf("Now() = %v, want 95 (clock must land on horizon)", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
}

func TestRunUntilEmptyAdvancesToHorizon(t *testing.T) {
	s := NewSimulator()
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("Now() = %v, want 1000", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewSimulator()
	count := 0
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	NewSimulator().Schedule(-1, func() {})
}

func TestScheduleBeforeNowPanics(t *testing.T) {
	s := NewSimulator()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	s.ScheduleAt(5, func() {})
}

func TestFiredCounter(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: for any set of non-negative delays, events fire in sorted order.
func TestPropertyEventOrdering(t *testing.T) {
	prop := func(raw []uint16) bool {
		s := NewSimulator()
		var fired []Time
		for _, d := range raw {
			s.Schedule(Time(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		want := make([]Time, len(raw))
		for i, d := range raw {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{1, "1.000µs"},
		{1500, "1.500ms"},
		{2.5e6, "2.500s"},
		// Negative durations (elapsed-time differences) must pick the
		// unit by magnitude, not fall through to µs.
		{-1, "-1.000µs"},
		{-1500, "-1.500ms"},
		{-2.5e6, "-2.500s"},
		{0, "0.000µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := Stream(42, "arrivals")
	b := Stream(42, "arrivals")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := Stream(42, "arrivals")
	b := Stream(42, "service")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'arrivals' and 'service' agree on %d/100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Fatalf("exponential mean = %.3f, want ≈50", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	g := NewRNG(7)
	if g.Exp(0) != 0 || g.Exp(-3) != 0 {
		t.Fatal("Exp with non-positive mean must return 0")
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(11)
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += g.Geometric(8)
	}
	mean := float64(sum) / n
	if math.Abs(mean-8) > 0.2 {
		t.Fatalf("geometric mean = %.3f, want ≈8", mean)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 100; i++ {
		if g.Geometric(1) != 1 {
			t.Fatal("Geometric(1) must always return 1")
		}
		if g.Geometric(0.5) != 1 {
			t.Fatal("Geometric(<1) must always return 1")
		}
	}
}

func TestGeometricAlwaysPositive(t *testing.T) {
	prop := func(seed int64, mean float64) bool {
		m := 1 + math.Mod(math.Abs(mean), 50)
		g := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if g.Geometric(m) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	s := NewSimulator()
	r := NewResource(s, 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	if granted != 2 {
		t.Fatalf("granted = %d, want 2", granted)
	}
	if r.InUse() != 2 {
		t.Fatalf("InUse() = %d, want 2", r.InUse())
	}
}

func TestResourceFIFO(t *testing.T) {
	s := NewSimulator()
	r := NewResource(s, 1)
	var order []int
	r.Acquire(func() {}) // hold the unit
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func() { order = append(order, i) })
	}
	if r.QueueLen() != 5 {
		t.Fatalf("QueueLen() = %d, want 5", r.QueueLen())
	}
	for i := 0; i < 5; i++ {
		r.Release()
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := NewSimulator()
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on busy resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	s := NewSimulator()
	r := NewResource(s, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on releasing idle resource")
		}
	}()
	r.Release()
}

func TestResourceUtilization(t *testing.T) {
	s := NewSimulator()
	r := NewResource(s, 1)
	// Busy from t=0 to t=50, idle 50..100.
	r.Acquire(func() {})
	s.Schedule(50, func() { r.Release() })
	s.Schedule(100, func() {})
	s.Run()
	if u := r.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("Utilization() = %v, want 0.5", u)
	}
}

func TestResourceWaitedCount(t *testing.T) {
	s := NewSimulator()
	r := NewResource(s, 1)
	r.Acquire(func() {})
	r.Acquire(func() {})
	r.Release()
	if r.Waited() != 1 {
		t.Fatalf("Waited() = %d, want 1", r.Waited())
	}
	if r.Grants() != 2 {
		t.Fatalf("Grants() = %d, want 2", r.Grants())
	}
}

func TestResourceMeanQueue(t *testing.T) {
	s := NewSimulator()
	r := NewResource(s, 1)
	r.Acquire(func() {}) // holder
	r.Acquire(func() {}) // waits from t=0
	s.Schedule(100, func() { r.Release() })
	s.Schedule(200, func() {})
	s.Run()
	// One waiter for the first 100 of 200 time units.
	if mq := r.MeanQueue(); math.Abs(mq-0.5) > 1e-9 {
		t.Fatalf("MeanQueue = %v, want 0.5", mq)
	}
	r.Release()
}

func TestResourceInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero capacity")
		}
	}()
	NewResource(NewSimulator(), 0)
}

func TestRNGDrawHelpers(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 100; i++ {
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if d := g.ExpTime(100); d < 0 {
		t.Fatalf("ExpTime negative: %v", d)
	}
}

func TestSchedulingCounters(t *testing.T) {
	s := NewSimulator()
	if s.Scheduled() != 0 || s.MaxPending() != 0 {
		t.Fatal("fresh simulator has nonzero counters")
	}
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i), func() {})
	}
	if s.Scheduled() != 5 || s.MaxPending() != 5 {
		t.Fatalf("Scheduled=%d MaxPending=%d, want 5/5", s.Scheduled(), s.MaxPending())
	}
	s.Run()
	// Draining the heap must not lower the high-water mark, and firing
	// events counts toward Fired, not Scheduled.
	if s.MaxPending() != 5 || s.Scheduled() != 5 || s.Fired() != 5 {
		t.Fatalf("after run: Scheduled=%d MaxPending=%d Fired=%d",
			s.Scheduled(), s.MaxPending(), s.Fired())
	}
}
