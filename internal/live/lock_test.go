package live

import (
	"math"
	"testing"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// backends runs p on the DES and on the live backend.
var backends = []struct {
	name string
	run  func(sim.Params) sim.Results
}{{"des", sim.Run}, {"live", Run}}

// lockCharges returns the hold and critical-section intervals a locked
// packet is charged at the default model with no background workload,
// cold (first run on its processor) and warm (nothing ran there since).
func lockCharges() (holdCold, critCold, critWarm float64) {
	p := sim.Params{Paradigm: sim.Locking}.WithDefaults()
	e := core.NewModel().Compile()
	cold, warm := e.ExecTime(math.Inf(1)), e.ExecTime(0)
	return p.LockOverhead + (1-p.LockCritFrac)*cold, p.LockCritFrac * cold, p.LockCritFrac * warm
}

// TestSharedLockHandComputedWait runs two wired CBR streams on two idle
// processors on both backends. Each period both packets arrive at one
// instant, run identical holds and request the lock together: one is
// granted at once (a wait of 0), the other waits out its partner's
// critical section. The first pair runs cold, every later one warm, so
// over n pairs MeanLockWait = (C_cold + (n−1)·C_warm) / 2n.
func TestSharedLockHandComputedWait(t *testing.T) {
	const period = 1000.0 // µs
	holdCold, critCold, critWarm := lockCharges()
	if holdCold+2*critCold >= period {
		t.Fatalf("a pair's service %v µs must fit its %v µs period", holdCold+2*critCold, period)
	}
	idle := workload.Idle()
	p := sim.Params{
		Paradigm: sim.Locking, Policy: sched.WiredStreams,
		Processors: 2, Streams: 2, Background: &idle,
		Arrival: traffic.Deterministic{PacketsPerSec: 1e6 / period},
		Warmup:  period / 2, MeasuredPackets: 40, Seed: 1,
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			res := be.run(p)
			if res.Arrivals != 40 || res.CompletedTotal != res.Arrivals {
				t.Fatalf("arrivals %d, completions %d: want 20 whole pairs",
					res.Arrivals, res.CompletedTotal)
			}
			n := float64(res.Arrivals / 2)
			want := (critCold + (n-1)*critWarm) / (2 * n)
			if math.Abs(res.MeanLockWait-want) > 1e-9*want {
				t.Fatalf("MeanLockWait = %v, want %v", res.MeanLockWait, want)
			}
		})
	}
}

// TestSharedLockHybridOverflow checks that Hybrid's overflow path takes
// the same lock, on both backends. A burst of three packets reaches a
// single idle stack on three idle processors: the first runs the stack
// lock-free, the other two spill to the shared path on cold processors
// and request the lock at one instant, so one waits a whole cold
// critical section and MeanLockWait = C_cold / 2.
func TestSharedLockHybridOverflow(t *testing.T) {
	_, critCold, _ := lockCharges()
	idle := workload.Idle()
	p := sim.Params{
		Paradigm: sim.Hybrid, Policy: sched.IPSWired,
		Processors: 3, Streams: 1, Stacks: 1, HybridOverflow: 1,
		Background: &idle,
		Arrival:    traffic.Deterministic{PacketsPerSec: 1},
		Faults: &faults.Plan{Events: []faults.Event{
			{At: des.Millisecond, Kind: faults.Burst, Stream: 0, Count: 3}}},
		Warmup: des.Millisecond / 2, MeasuredPackets: 3, Seed: 1,
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			res := be.run(p)
			if res.Spills != 2 || res.CompletedTotal != 3 {
				t.Fatalf("spills %d, completions %d: want 2 and 3", res.Spills, res.CompletedTotal)
			}
			if want := critCold / 2; math.Abs(res.MeanLockWait-want) > 1e-9*want {
				t.Fatalf("MeanLockWait = %v, want %v", res.MeanLockWait, want)
			}
		})
	}
}
