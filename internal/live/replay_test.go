package live

import (
	"bytes"
	"reflect"
	"testing"

	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// TestRecordReplayBitIdenticalLive pins trace record/replay on the live
// backend: capturing a run's arrivals and replaying them through the
// full text round trip reproduces the original sim.Results exactly.
// The workload is continuous-time (Poisson): with no same-instant
// events a live run is event-order deterministic, so replay bit-
// identity is a meaningful invariant. Tie-heavy (batch/CBR) replays
// reproduce the arrival sequence bit-identically too — pinned by
// TestArrivalOrderAgreesWithDES — but their delay aggregates race at
// burst instants by design.
func TestRecordReplayBitIdenticalLive(t *testing.T) {
	per := []traffic.Spec{
		traffic.Poisson{PacketsPerSec: 1800},
		traffic.Poisson{PacketsPerSec: 900},
		traffic.Poisson{PacketsPerSec: 300},
	}
	base := quick(sim.Locking, sched.MRU)
	base.Streams = len(per)
	base.Arrival = nil
	base.Seed = 11
	base.MeasuredPackets = 800

	rec := base
	wrapped, trace := workload.Record(per)
	rec.ArrivalPerStream = wrapped
	original := Run(rec)

	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rep := base
	rep.ArrivalPerStream = workload.Replay(loaded)
	replayed := Run(rep)

	if !reflect.DeepEqual(original, replayed) {
		t.Fatalf("live replay diverged from the recorded run:\noriginal: %+v\nreplayed: %+v", original, replayed)
	}
}

// TestCounterfactualReplayLive carries counterfactual replay to the
// live backend. On a continuous-time (Poisson) workload a live run is
// event-order deterministic, so replaying its recorded ledger with every
// ordinal forced to its recorded choice reproduces the run bit for bit
// (the zero-perturbation identity), and a forced substitution runs: the
// replay's own ledger shows the substituted processor at that ordinal.
func TestCounterfactualReplayLive(t *testing.T) {
	base := quick(sim.Locking, sched.MRU)
	base.Seed = 11
	base.MeasuredPackets = 800

	ledger := obs.NewLedgerRecorder()
	fp := base
	fp.DecisionRecorder = ledger
	factual := Run(fp)
	if ledger.Len() == 0 {
		t.Fatal("factual run recorded no decisions")
	}

	replay := func(over sim.DecisionOverride) (sim.Results, *obs.LedgerRecorder) {
		led := obs.NewLedgerRecorder()
		rp := base
		rp.DecisionRecorder = led
		rp.DecisionOverride = over
		return Run(rp), led
	}

	same, _ := replay(func(n uint64, _ obs.DecisionPoint, _ []int, _ int) int {
		return ledger.At(int(n)).Chosen
	})
	if !reflect.DeepEqual(factual, same) {
		t.Fatalf("zero-perturbation live replay diverged:\nfactual: %+v\nreplay:  %+v", factual, same)
	}

	at, alt := -1, -1
	for i, d := range ledger.Decisions() {
		for _, c := range d.Candidates {
			if c.Proc != d.Chosen {
				at, alt = i, c.Proc
				break
			}
		}
		if at >= 0 {
			break
		}
	}
	if at < 0 {
		t.Fatal("no decision had an alternative candidate to substitute")
	}
	_, led := replay(func(n uint64, _ obs.DecisionPoint, _ []int, chosen int) int {
		if n == uint64(at) {
			return alt
		}
		return chosen
	})
	if got := led.At(at); got.Chosen != alt || got.Seq != ledger.At(at).Seq {
		t.Fatalf("decision %d: replay ran packet %d on proc %d, want packet %d forced onto proc %d",
			at, got.Seq, got.Chosen, ledger.At(at).Seq, alt)
	}
}
