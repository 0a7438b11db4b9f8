package sim

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"affinity/internal/des"
	"affinity/internal/sched"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

func skewSpec() *workload.Spec {
	return &workload.Spec{Name: "itest", Classes: []workload.Class{
		{Name: "web", Model: "poisson", Streams: 6, RatePPS: 4800, Zipf: 1.2},
		{Name: "bulk", Model: "batch", Streams: 2, RatePPS: 1200, MeanBurst: 4},
	}}
}

func TestWorkloadSpecExpansion(t *testing.T) {
	p := Params{Paradigm: Locking, Policy: sched.MRU, Workload: skewSpec(),
		MeasuredPackets: 400, MaxTime: 2 * des.Second}
	d := p.WithDefaults()
	if d.Streams != 8 || len(d.ArrivalPerStream) != 8 {
		t.Fatalf("expanded to %d streams / %d specs, want 8", d.Streams, len(d.ArrivalPerStream))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Defaulting again must be a no-op (Run defaults the already
	// defaulted params a second time).
	dd := d.WithDefaults()
	if dd.Streams != d.Streams || !reflect.DeepEqual(dd.ArrivalPerStream, d.ArrivalPerStream) {
		t.Fatal("WithDefaults is not idempotent over workload expansion")
	}
	r := Run(p)
	if math.Abs(r.OfferedRate-6000) > 1e-6 {
		t.Fatalf("OfferedRate = %v, want the spec aggregate 6000", r.OfferedRate)
	}
	if r.CompletedTotal == 0 {
		t.Fatal("no completions under the workload spec")
	}
}

func TestWorkloadSpecStreamCountConflict(t *testing.T) {
	p := Params{Paradigm: Locking, Policy: sched.MRU, Workload: skewSpec(), Streams: 5}
	err := p.WithDefaults().Validate()
	if err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("Validate = %v, want a stream-count conflict error", err)
	}
}

func TestValidateRejectsInvalidArrivalSpecs(t *testing.T) {
	cases := []Params{
		{Paradigm: Locking, Policy: sched.MRU, Arrival: traffic.Poisson{PacketsPerSec: -1}},
		{Paradigm: Locking, Policy: sched.MRU, Arrival: traffic.Batch{PacketsPerSec: 100, MeanBurst: 0.5}},
		{Paradigm: Locking, Policy: sched.MRU,
			Arrival: traffic.Train{PacketsPerSec: 20000, MeanTrainLen: 100, IntraGap: 100}},
		{Paradigm: Locking, Policy: sched.MRU, Streams: 2,
			ArrivalPerStream: []traffic.Spec{
				traffic.Poisson{PacketsPerSec: 100}, traffic.Poisson{PacketsPerSec: 0}}},
	}
	for i, p := range cases {
		if err := p.WithDefaults().Validate(); err == nil {
			t.Errorf("case %d: invalid arrival spec passed Validate", i)
		}
	}
}

// TestSynthesizeMatchesRunnerDraws pins the cross-package contract that
// workload.Synthesize derives per-stream RNGs exactly as the runner
// does ("arrivals-<i>" substreams of the seed): an offline-synthesized
// trace must equal what a live recording of the same run captures.
func TestSynthesizeMatchesRunnerDraws(t *testing.T) {
	per := []traffic.Spec{
		traffic.Poisson{PacketsPerSec: 2000},
		traffic.Batch{PacketsPerSec: 1000, MeanBurst: 3},
		traffic.Poisson{PacketsPerSec: 500},
	}
	const seed, horizon = 77, 500 * des.Millisecond
	wrapped, recorded := workload.Record(per)
	// MeasuredPackets is set beyond what the horizon can deliver so the
	// run ends exactly at MaxTime and records the full span.
	Run(Params{Paradigm: Locking, Policy: sched.MRU, Streams: 3,
		ArrivalPerStream: wrapped, Seed: seed,
		MeasuredPackets: 1 << 20, Warmup: des.Millisecond, MaxTime: horizon})
	synth := workload.Synthesize(per, seed, horizon)
	for s := range per {
		got, want := recorded.Streams[s], synth.Streams[s]
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		if d := len(got) - len(want); d < -1 || d > 1 {
			t.Fatalf("stream %d: recorded %d draws, synthesized %d — RNG naming drifted",
				s, len(got), len(want))
		}
		if !reflect.DeepEqual(got[:n], want[:n]) {
			t.Fatalf("stream %d: recorded and synthesized draws diverge — workload.Synthesize no longer matches the runner's arrivals-%d substream", s, s)
		}
	}
}

// TestRecordReplayBitIdenticalDES pins the tentpole determinism
// contract: capturing a run's arrivals and replaying them through the
// full text round trip reproduces the original sim.Results exactly.
func TestRecordReplayBitIdenticalDES(t *testing.T) {
	spec := skewSpec()
	per, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	base := Params{Paradigm: Locking, Policy: sched.MRU, Streams: len(per), Seed: 3,
		MeasuredPackets: 600, MaxTime: 3 * des.Second}

	recParams := base
	wrapped, trace := workload.Record(per)
	recParams.ArrivalPerStream = wrapped
	original := Run(recParams)

	// Round-trip the trace through its file format before replaying.
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	repParams := base
	repParams.ArrivalPerStream = workload.Replay(loaded)
	replayed := Run(repParams)

	if !reflect.DeepEqual(original, replayed) {
		t.Fatalf("replay diverged from the recorded run:\noriginal: %+v\nreplayed: %+v", original, replayed)
	}
}

// Recording mutates the trace as the run draws, so recorded runs must
// never be served from the memoization cache; replay runs are pure and
// cache under the trace's content hash.
func TestRecordReplayCacheability(t *testing.T) {
	per := []traffic.Spec{traffic.Poisson{PacketsPerSec: 1000}}
	base := Params{Paradigm: Locking, Policy: sched.MRU, Streams: 1}

	rec := base
	rec.ArrivalPerStream, _ = workload.Record(per)
	if _, ok := CacheKey(rec); ok {
		t.Fatal("recording run reported cacheable")
	}

	tr := workload.Synthesize(per, 1, 50*des.Millisecond)
	rep := base
	rep.ArrivalPerStream = workload.Replay(tr)
	k1, ok := CacheKey(rep)
	if !ok {
		t.Fatal("replay run not cacheable")
	}
	if strings.Contains(k1, "0x") {
		t.Fatalf("replay cache key leaks an address: %s", k1)
	}
	// The same trace content loaded as a distinct object keys equal.
	var buf bytes.Buffer
	workload.WriteTrace(&buf, tr)
	tr2, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := base
	rep2.ArrivalPerStream = workload.Replay(tr2)
	if k2, _ := CacheKey(rep2); k2 != k1 {
		t.Fatal("identical trace content produced different cache keys")
	}
}

// TestManyStreamsSetupBytes pins what declaring a stream costs a run:
// a 10⁵-stream Zipf(1.0) spec, stopped after 1 µs of simulated time
// (before its first arrival), allocates under 1 KB per declared stream.
// Allocation is deterministic, so the bound does not depend on timing.
func TestManyStreamsSetupBytes(t *testing.T) {
	const streams = 100_000
	spec := &workload.Spec{Name: "zipf-streams", Classes: []workload.Class{
		{Name: "zipf", Model: "poisson", Streams: streams, RatePPS: 8000, Zipf: 1.0},
	}}
	per, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Paradigm: Locking, Policy: sched.MRU, Streams: len(per), ArrivalPerStream: per,
		MeasuredPackets: 20000, MaxTime: des.Microsecond, Seed: 3}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r := Run(p)
	runtime.ReadMemStats(&m1)
	if r.Completed != 0 {
		t.Fatalf("run completed %d packets in 1 µs; it must stop before the first arrival", r.Completed)
	}
	if b := (m1.TotalAlloc - m0.TotalAlloc) / streams; b >= 1024 {
		t.Errorf("set-up allocates %d B per declared stream, want < 1024", b)
	}
}
