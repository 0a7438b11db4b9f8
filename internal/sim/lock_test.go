package sim

import (
	"fmt"
	"math"
	"testing"

	"affinity/internal/des"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/workload"
)

// scriptBackend is a Backend whose clock and interval endings the test
// drives by hand. It logs every interval the machine hands it, and
// (through logEnds) every packet completion, in one sequence.
type scriptBackend struct {
	now    des.Time
	served []Service
	log    []string
}

func (b *scriptBackend) Now() des.Time { return b.now }
func (b *scriptBackend) Stop()         {}
func (b *scriptBackend) Pending() int  { return 0 }
func (b *scriptBackend) Fired() uint64 { return 0 }
func (b *scriptBackend) Serve(s Service) {
	b.served = append(b.served, s)
	b.log = append(b.log, fmt.Sprintf("serve p%d phase%d", s.Proc, s.phase))
}

// logEnds records each packet completion into the backend's log.
type logEnds struct{ b *scriptBackend }

func (l logEnds) Record(e obs.Event) {
	if e.Kind == obs.KindExecEnd {
		l.b.log = append(l.b.log, fmt.Sprintf("done p%d", e.Proc))
	}
}

// scriptedLocking builds a Locking machine on n processors with one
// wired stream per processor and no background workload, so every
// interval is exactly what the cost model charges.
func scriptedLocking(t *testing.T, n int) (*Machine, *scriptBackend) {
	t.Helper()
	idle := workload.Idle()
	b := &scriptBackend{}
	p := Params{Paradigm: Locking, Policy: sched.WiredStreams,
		Processors: n, Streams: n, Background: &idle}.WithDefaults()
	p.Recorder = logEnds{b}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewMachine(p, b), b
}

// TestSharedLockFIFO pins the lock's grant order under same-instant
// contention: requests made at one instant are granted in the order the
// machine received them, each release grants the next waiter before the
// releasing packet completes, and the mean wait counts every grant.
func TestSharedLockFIFO(t *testing.T) {
	m, b := scriptedLocking(t, 4)
	for s := 0; s < 4; s++ {
		m.Arrive(s)
	}
	if len(b.served) != 4 {
		t.Fatalf("4 arrivals on 4 idle processors served %d holds", len(b.served))
	}
	holds := append([]Service(nil), b.served...)
	for i, s := range holds {
		if s.Proc != i || s.phase != phaseHold {
			t.Fatalf("arrival %d: proc %d phase %d, want proc %d in its hold", i, s.Proc, s.phase, i)
		}
	}
	// Every hold ends at one instant; the requests reach the machine in
	// the order 2, 0, 3, 1.
	b.now = holds[0].Dur
	order := []int{2, 0, 3, 1}
	for _, proc := range order {
		m.Elapsed(holds[proc])
	}
	if len(b.served) != 5 || b.served[4].Proc != 2 || b.served[4].phase != phaseCrit {
		t.Fatalf("want exactly one immediate grant, to p2; served %v", b.log[4:])
	}
	crit := b.served[4].Dur // every packet is cold: equal charges
	var wantWait float64
	for k := 1; k < len(order); k++ {
		b.now += crit
		b.log = b.log[:0]
		m.Elapsed(b.served[len(b.served)-1])
		want := []string{fmt.Sprintf("serve p%d phase%d", order[k], phaseCrit),
			fmt.Sprintf("done p%d", order[k-1])}
		if fmt.Sprint(b.log) != fmt.Sprint(want) {
			t.Fatalf("release %d: log %q, want %q (grant before completion, FIFO)", k, b.log, want)
		}
		wantWait += float64(k) * float64(crit)
	}
	b.now += crit
	m.Elapsed(b.served[len(b.served)-1])
	if m.lockHeld {
		t.Fatal("lock still held after the last release")
	}
	wantWait /= float64(len(order))
	if got := m.Results().MeanLockWait; math.Abs(got-wantWait) > 1e-9*wantWait {
		t.Fatalf("MeanLockWait = %v, want %v (waits 0, C, 2C, 3C)", got, wantWait)
	}
}

// TestSharedLockImmediateGrantIsZeroWait pins the uncontended grant: the
// critical section is handed over at the request instant, with no extra
// interval in between, and the grant enters MeanLockWait as a wait of 0.
func TestSharedLockImmediateGrantIsZeroWait(t *testing.T) {
	m, b := scriptedLocking(t, 2)
	m.Arrive(0)
	b.now = 5
	m.Arrive(1)
	h0, h1 := b.served[0], b.served[1]
	b.now = h0.Dur
	m.Elapsed(h0)
	if len(b.served) != 3 {
		t.Fatalf("a free lock must be granted at once; served %v", b.log)
	}
	crit := b.served[2]
	if crit.phase != phaseCrit || crit.Dur != h0.crit || crit.Proc != 0 {
		t.Fatalf("granted %+v, want the critical section of p0", crit)
	}
	// The second packet requests 5 µs into the first's critical section
	// and waits until its release.
	b.now = 5 + h1.Dur
	m.Elapsed(h1)
	b.now = h0.Dur + crit.Dur
	m.Elapsed(crit)
	wait := float64(b.now - (5 + h1.Dur))
	if got := m.Results().MeanLockWait; math.Abs(got-wait/2) > 1e-9*wait {
		t.Fatalf("MeanLockWait = %v, want %v: the immediate grant counts as a zero wait", got, wait/2)
	}
}
