package live

import (
	"testing"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// kindCounter tallies events per kind; the comparisons below only use
// kinds whose counts are determined by the deterministic inputs both
// backends share (arrival RNG streams, loss RNG stream, fault plan) —
// not by scheduling order, which the live backend resolves under a real
// lock.
type kindCounter struct {
	counts map[obs.Kind]uint64
}

func (k *kindCounter) Record(e obs.Event) {
	if k.counts == nil {
		k.counts = map[obs.Kind]uint64{}
	}
	k.counts[e.Kind]++
}

// arrivalOrder records the exact firing order of arrival events:
// (virtual time, stream, packet serial) per admitted packet.
type arrivalOrder struct {
	evs []obs.Event
}

func (a *arrivalOrder) Record(e obs.Event) {
	if e.Kind == obs.KindArrival {
		a.evs = append(a.evs, obs.Event{T: e.T, Stream: e.Stream, Seq: e.Seq})
	}
}

// TestArrivalOrderAgreesWithDES pins the deterministic tie-break: on
// tie-heavy arrival processes (same-rate CBR streams collide at every
// instant; batch streams deliver same-instant bursts) the live backend
// must admit packets in exactly the DES's order — same (time, stream)
// sequence, same serial numbers — because keyed sleepers (clock.go)
// serialize same-instant arrivals in the DES's (stream, seq) order
// instead of letting goroutine scheduling race them.
func TestArrivalOrderAgreesWithDES(t *testing.T) {
	cases := []struct {
		name string
		arr  traffic.Spec
	}{
		{"cbr", traffic.Deterministic{PacketsPerSec: 2500}},
		{"batch", traffic.Batch{PacketsPerSec: 2500, MeanBurst: 8}},
		{"mixed-period", traffic.Deterministic{PacketsPerSec: 2000}},
	}
	for _, cs := range cases {
		for _, seed := range []int64{1, 2, 3} {
			params := func() sim.Params {
				p := quick(sim.Locking, sched.MRU)
				p.Streams = 8
				p.Arrival = cs.arr
				p.MeasuredPackets = 500
				p.Seed = seed
				return p
			}
			var do, lo arrivalOrder
			pd := params()
			pd.Recorder = &do
			sim.Run(pd)
			pl := params()
			pl.Recorder = &lo
			Run(pl)
			n := len(do.evs)
			if len(lo.evs) < n {
				n = len(lo.evs)
			}
			for i := 0; i < n; i++ {
				if do.evs[i] != lo.evs[i] {
					t.Errorf("%s seed=%d: arrival %d: DES %+v, live %+v — same-instant order diverged",
						cs.name, seed, i, do.evs[i], lo.evs[i])
					break
				}
			}
			if len(do.evs) != len(lo.evs) {
				t.Errorf("%s seed=%d: DES admitted %d arrivals, live %d",
					cs.name, seed, len(do.evs), len(lo.evs))
			}
			if len(do.evs) == 0 {
				t.Errorf("%s seed=%d: no arrivals recorded — agreement is vacuous", cs.name, seed)
			}
		}
	}
}

// TestLiveObsAgreesWithDES runs scenarios on both backends and checks
// the event stream agrees wherever determinism is shared. The fault case
// replays the sim package's pinned fault-plan fixture (see
// TestObsGoldenFaultRun): arrivals, drops and the fault transitions
// agree, and both decision ledgers must be live, even though their
// contents order-depend. The Hybrid case spills on a continuous-time
// workload, where the shared machine takes every decision in DES order:
// spill events and the decision count agree exactly — the Hybrid spill
// site settles its decision before publishing the spill on both.
func TestLiveObsAgreesWithDES(t *testing.T) {
	cases := []struct {
		name          string
		params        func() sim.Params
		kinds         []obs.Kind
		sameDecisions bool
	}{
		{
			name: "faults",
			params: func() sim.Params {
				p := quick(sim.Locking, sched.MRU)
				p.Processors = 2
				p.Streams = 2
				p.Arrival = traffic.Poisson{PacketsPerSec: 500}
				p.MeasuredPackets = 100
				p.Warmup = des.Millisecond
				p.MaxQueueDepth = 1
				p.Seed = 42
				p.Faults = (&faults.Plan{}).
					Down(20*des.Millisecond, 0).
					Up(40*des.Millisecond, 0).
					WithLoss(0, 0.05)
				return p
			},
			kinds: []obs.Kind{obs.KindArrival, obs.KindDrop, obs.KindProcDown, obs.KindProcUp},
		},
		{
			name: "hybrid-spill",
			params: func() sim.Params {
				p := quick(sim.Hybrid, sched.IPSMRU)
				p.Processors = 2
				p.Stacks = 2
				p.HybridOverflow = 1
				p.Arrival = traffic.Poisson{PacketsPerSec: 1200.0 / 8}
				p.MeasuredPackets = 500
				p.Seed = 5
				return p
			},
			kinds:         []obs.Kind{obs.KindArrival, obs.KindSpill},
			sameDecisions: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var desCount, liveCount kindCounter
			pd := tc.params()
			pd.Recorder = &desCount
			pd.DecisionRecorder = obs.NewFlightRecorder(0, 0)
			desRes := sim.Run(pd)

			pl := tc.params()
			pl.Recorder = &liveCount
			pl.DecisionRecorder = obs.NewFlightRecorder(0, 0)
			liveRes := Run(pl)

			for _, k := range tc.kinds {
				if desCount.counts[k] != liveCount.counts[k] {
					t.Errorf("%v: DES saw %d, live saw %d", k, desCount.counts[k], liveCount.counts[k])
				}
				if desCount.counts[k] == 0 {
					t.Errorf("%v: scenario produced no events — agreement is vacuous", k)
				}
			}
			if desRes.DecisionsRecorded == 0 || liveRes.DecisionsRecorded == 0 {
				t.Errorf("decision ledgers: DES %d, live %d — both must be live",
					desRes.DecisionsRecorded, liveRes.DecisionsRecorded)
			}
			if tc.sameDecisions && desRes.DecisionsRecorded != liveRes.DecisionsRecorded {
				t.Errorf("decisions recorded: DES %d, live %d", desRes.DecisionsRecorded, liveRes.DecisionsRecorded)
			}
		})
	}
}
