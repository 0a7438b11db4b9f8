package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/exp"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/traffic"
	"affinity/internal/workload"
)

// replayBudget is how long each per-layer replay measures.
const replayBudget = 200 * time.Millisecond

// batch is how many calls one timed span covers, so reading the clock
// does not dominate a call of a few nanoseconds.
const batch = 4096

// sink keeps the compiler from discarding measured calls.
var sink float64

// deciders are the Locking dispatch policies timed by sched.decide_ns,
// with the AffinitySteal family at a middle point of its space.
var deciders = []struct {
	name string
	kind sched.Kind
	sp   sched.StealParams
}{
	{"fcfs", sched.FCFS, sched.StealParams{}},
	{"mru", sched.MRU, sched.StealParams{}},
	{"pools", sched.ThreadPools, sched.StealParams{}},
	{"wired", sched.WiredStreams, sched.StealParams{}},
	{"rss", sched.RSS, sched.StealParams{}},
	{"flowdir", sched.FlowDirector, sched.StealParams{}},
	{"steal", sched.AffinitySteal, sched.StealParams{Penalty: 50, DepthThreshold: 2, ColdBias: 0.5}},
}

// heapGauge records the largest pending-event count the run's periodic
// heap gauge reported.
type heapGauge struct{ max float64 }

func (h *heapGauge) Record(e obs.Event) {
	if e.Kind == obs.KindGaugeHeap && e.Val > h.max {
		h.max = e.Val
	}
}

// perCall runs fn (one batch of calls) until budget is spent, at least
// once, and returns the median ns per call. Each batch is one span.
func (b *bench) perCall(name string, calls int, fn func()) float64 {
	var xs []float64
	t0 := time.Now()
	for len(xs) == 0 || time.Since(t0) < replayBudget {
		sp := b.tr.begin(name)
		w := time.Now()
		fn()
		xs = append(xs, float64(time.Since(w).Nanoseconds())/float64(calls))
		b.tr.end(sp, calls)
	}
	return median(xs)
}

// traced is the traced run: passes alternate with tracing off and on,
// which gives trace.overhead_frac, and then each layer is timed by
// replaying the workload's own inputs into its public functions.
func (b *bench) traced(in *inputs) result {
	b.prepare(in)
	tr := b.tr
	var plain, traced []pass
	t0 := time.Now()
	for len(traced) == 0 || time.Since(t0) < b.budget/2 {
		b.tr = nil
		plain = append(plain, b.runPass(in))
		b.tr = tr
		sp := tr.begin("pass")
		traced = append(traced, b.runPass(in))
		tr.end(sp, 1)
	}
	wall := func(p pass) float64 { return p.wall }
	overhead := medianOf(traced, wall)/medianOf(plain, wall) - 1
	ps := append(plain, traced...)

	m := b.layers(in, ps)
	m["trace.overhead_frac"] = metric{overhead, "ratio"}
	m["check_fail_frac"] = metric{float64(b.c.failed) / float64(b.c.attempted), "ratio"}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: %d+%d passes, %d checks\n",
		b.name, b.seed, len(plain), len(traced), b.c.attempted)
	return b.result(m)
}

// layers times every layer on the workload's inputs. A metric the
// workload does not exercise reads 0.
func (b *bench) layers(in *inputs, ps []pass) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Capture: the Locking-MRU input on the DES with the ledger and a
	// heap gauge attached. Its decisions are the replayed inputs.
	desIn := *in
	desIn.live = false
	gauge := &heapGauge{}
	sp := b.tr.begin("capture")
	capRes, fr := desIn.run(ledger, gauge)
	b.tr.end(sp, 1)
	b.c.checkRun("capture", desIn.paths[ledger], capRes)
	decisions := fr.Snapshot()

	// Simulated counts per completed packet come from DES runs.
	res := ps[0].res
	if in.live {
		res = b.refs
	}
	perPkt := func(k int, n uint64) float64 { return float64(n) / float64(res[k].CompletedTotal) }

	// des: one ScheduleArg plus one Step at the observed heap depth.
	depth := max(int(gauge.max), 1)
	step := b.scheduleStep(depth)
	set("des.schedule_step_ns", step, "ns")
	var evPkt [numPaths]float64
	for k := range evPkt {
		evPkt[k] = perPkt(k, res[k].EventsFired)
	}
	set("des.events_per_pkt.locking", evPkt[locking], "count")
	set("des.events_per_pkt.ips", evPkt[ips], "count")

	// des.Stream for every declared stream, as a run's set-up seeds them.
	p := in.paths[locking]
	names := make([]string, p.Streams)
	for i := range names {
		names[i] = fmt.Sprintf("arrivals-%d", i)
	}
	var rngs []*des.RNG
	calls := 0
	a0 := allocBytes()
	newNs := b.perCall("des.Stream", len(names), func() {
		rngs = rngs[:0]
		for _, n := range names {
			rngs = append(rngs, des.Stream(p.Seed, n))
		}
		calls += len(names)
	})
	set("des.stream_new_ns", newNs, "ns")
	set("des.stream_bytes", float64(allocBytes()-a0)/float64(calls), "B")

	// traffic: Next on the first stream's Poisson process, and (on the
	// Zipf spec) on every stream in turn.
	first := p.Arrival
	if p.ArrivalPerStream != nil {
		first = p.ArrivalPerStream[0]
	}
	proc := first.Build(rngs[0])
	nextNs := b.perCall("traffic.Next.poisson", batch, func() {
		for i := 0; i < batch; i++ {
			d, _ := proc.Next()
			sink += float64(d)
		}
	})
	set("traffic.next_ns.poisson", nextNs, "ns")
	set("traffic.next_ns.zipf", 0, "ns")
	set("workload.generate_s", 0, "s")
	if in.spec != nil {
		procs := make([]traffic.Process, len(rngs))
		for i, r := range rngs {
			procs[i] = p.ArrivalPerStream[i].Build(r)
		}
		set("traffic.next_ns.zipf", b.perCall("traffic.Next.zipf", len(procs), func() {
			for _, pr := range procs {
				d, _ := pr.Next()
				sink += float64(d)
			}
		}), "ns")
		set("workload.generate_s", b.perCall("workload.Generate", 1, func() {
			s, err := workload.Parse(in.spec)
			if err != nil {
				panic(err)
			}
			if _, err := s.Generate(); err != nil {
				panic(err)
			}
		})/1e9, "s")
	}

	// core: the execution-time model on every candidate's displacement.
	exec := core.NewModel().Compile()
	var xs []float64
	for _, d := range decisions {
		for _, c := range d.Candidates {
			xs = append(xs, c.XRefs)
		}
	}
	execNs := b.perCall("core.ExecTimeF1", len(xs), func() {
		for _, x := range xs {
			t, f1 := exec.ExecTimeF1(x)
			sink += t + f1
		}
	})
	set("core.exec_ns", execNs, "ns")
	// The runner charges the model once per service start; the ledger
	// prices every candidate of every decision on top.
	starts := func(k int) float64 { return perPkt(k, res[k].CompletedTotal+uint64(res[k].InFlightAtEnd)) }
	meanCands := float64(len(xs)) / float64(len(decisions))
	execPkt := [numPaths]float64{starts(locking), starts(ips),
		starts(ledger) + perPkt(ledger, res[ledger].DecisionsRecorded)*meanCands}
	for k := range execPkt {
		set("core.exec_per_pkt."+pathNames[k], execPkt[k], "count")
	}

	// sched: one PickProcessor/Enqueue/Dispatch/RanOn cycle per
	// replayed placement.
	var places []obs.Decision
	for _, d := range decisions {
		if d.Point == obs.PointPlace {
			places = append(places, d)
		}
	}
	decide := map[string]float64{}
	for _, dc := range deciders {
		decide[dc.name] = b.decideNs(dc.kind, dc.sp, places)
		set("sched.decide_ns."+dc.name, decide[dc.name], "ns")
	}

	// obs: recording the captured decisions into a fresh ledger.
	rec := obs.NewFlightRecorder(ledgerCap, 0)
	recordNs := b.perCall("obs.RecordDecision", len(decisions), func() {
		for _, d := range decisions {
			rec.RecordDecision(d)
		}
	})
	decPkt := perPkt(ledger, res[ledger].DecisionsRecorded)
	set("obs.record_decision_ns", recordNs, "ns")
	set("obs.decisions_per_pkt", decPkt, "count")

	// live: the live runner's per-packet cost over the DES runner's on
	// the same input.
	set("live.overhead_ns_per_pkt", 0, "ns")
	nsPkt := [numPaths]float64{pathNs(ps, locking), pathNs(ps, ips), pathNs(ps, ledger)}
	if in.live {
		var desNs []float64
		for i := 0; i < minPasses; i++ {
			sp := b.tr.begin("sim.des.locking")
			c := cpuNow()
			r, _ := desIn.run(locking, nil)
			desNs = append(desNs, (cpuNow()-c)*1e9/float64(r.CompletedTotal))
			b.tr.end(sp, int(r.CompletedTotal))
		}
		set("live.overhead_ns_per_pkt", nsPkt[locking]-median(desNs), "ns")
	}

	// sim: what the layers above do not account for is the runner's own
	// time (on live-hotpath, the live runner's, clock hand-off included).
	fmt.Println("# layer additivity: host ns per completed packet, by layer")
	fmt.Println("# path     ns/pkt  events/pkt  ns/event  exec/pkt  setup_ns  des_ns  core_ns  sched_ns  traffic_ns  obs_ns  residual_ns  residual_share")
	for k := range nsPkt {
		setupNs := float64(p.Streams) / float64(res[k].CompletedTotal) * newNs
		desNs := evPkt[k] * step
		coreNs := execPkt[k] * execNs
		schedNs, obsNs := 0.0, 0.0
		if k != ips {
			schedNs = decide["mru"]
		}
		if k == ledger {
			obsNs = decPkt * recordNs
		}
		trafficNs := perPkt(k, res[k].Arrivals) * nextNs
		resid := nsPkt[k] - setupNs - desNs - coreNs - schedNs - trafficNs - obsNs
		if k != ledger {
			set("sim.residual_ns_per_pkt."+pathNames[k], resid, "ns")
		}
		fmt.Printf("# %-7s %8.1f %11.2f %9.1f %9.2f %9.1f %7.1f %8.1f %9.1f %11.1f %7.1f %12.1f %14.3f\n",
			pathNames[k], nsPkt[k], evPkt[k], nsPkt[k]/evPkt[k], execPkt[k],
			setupNs, desNs, coreNs, schedNs, trafficNs, obsNs, resid, resid/nsPkt[k])
	}

	set("sim.pool_hit_ratio", 0, "ratio")
	for _, e := range exp.All() {
		set("exp."+e.ID+".cpu_s", 0, "s")
	}
	if in.suite {
		set("sim.pool_hit_ratio", medianOf(ps, func(p pass) float64 { return p.poolHits }), "ratio")
		b.experimentsAlone(set)
	}
	return m
}

// scheduleStep times ScheduleArg plus Step on a simulator holding depth
// pending events, with exponential delays drawn up front.
func (b *bench) scheduleStep(depth int) float64 {
	s := des.NewSimulator()
	rng := des.NewRNG(b.seed)
	mean := des.Time(depth)
	delays := make([]des.Time, batch)
	for i := range delays {
		delays[i] = rng.ExpTime(mean)
	}
	noop := func(any) {}
	for i := 0; i < depth; i++ {
		s.ScheduleArg(delays[i%batch], noop, nil)
	}
	return b.perCall("des.ScheduleArg+Step", batch, func() {
		for _, d := range delays {
			s.ScheduleArg(d, noop, nil)
			s.Step()
		}
	})
}

// decideNs replays the placement sequence through a fresh dispatcher of
// kind k at 8 processors: each placement is picked, enqueued, dispatched
// (on the picked processor, else the first that yields it) and
// recorded as run there.
func (b *bench) decideNs(k sched.Kind, sp sched.StealParams, places []obs.Decision) float64 {
	const procs = 8
	now := des.Time(0)
	d := sched.NewPacketDispatcherFull(k, procs, des.Stream(b.seed, "perfbench-"+k.String()), 4,
		sched.HashConfig{}, sched.StealConfig{StealParams: sp, Now: func() des.Time { return now }})
	idle := make([]int, 0, procs)
	seq := uint64(0)
	return b.perCall("sched."+k.String(), len(places), func() {
		for _, pl := range places {
			seq++
			now = des.Time(pl.T)
			idle = idle[:0]
			for _, c := range pl.Candidates {
				idle = append(idle, c.Proc)
			}
			pkt := sched.Packet{Stream: pl.Stream, Entity: pl.Entity, Arrive: now, Seq: seq}
			proc := d.PickProcessor(pkt, idle)
			if proc < 0 {
				proc = idle[0]
			}
			d.Enqueue(pkt)
			got, ok := d.Dispatch(proc)
			for p := 0; !ok && p < procs; p++ {
				proc = p
				got, ok = d.Dispatch(p)
			}
			if !ok {
				panic(fmt.Sprintf("sched: %v lost a packet in replay", k))
			}
			d.RanOn(got.Entity, proc)
		}
	})
}

// experimentsAlone runs each experiment alone on a one-worker pool and
// records its process CPU time; the tables must concatenate to the
// golden.
func (b *bench) experimentsAlone(set func(string, float64, string)) {
	var buf bytes.Buffer
	for _, e := range exp.All() {
		sp := b.tr.begin("exp." + e.ID)
		c := cpuNow()
		t := e.Run(exp.Config{Quick: true, Seed: 1, Pool: sim.NewPool(1)})
		set("exp."+e.ID+".cpu_s", cpuNow()-c, "s")
		b.tr.end(sp, 1)
		t.Fprint(&buf)
		buf.WriteByte('\n')
	}
	b.c.check(bytes.Equal(buf.Bytes(), b.golden), "experiments run alone differ from the golden")
}
