package sim

import (
	"math"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/stats"
	"affinity/internal/topo"
	"affinity/internal/traffic"
)

// The runner's packet lifecycle is allocation-free in steady state: DES
// event nodes are pooled inside des.Simulator, per-packet service state
// lives in pooled svc records scheduled through non-capturing
// des.ArgHandler functions (no per-packet closures), displacement marks
// are flat slices indexed by entity, and every queue recycles its
// backing array. TestRunnerSteadyStateZeroAllocs pins the
// disabled-recorder path at zero allocations per event.

// procState tracks one processor's displacement counters and occupancy.
//
// dispNP accumulates displacing references issued by the non-protocol
// workload (idle periods, scaled by intensity V); dispProto accumulates
// references issued by protocol execution. Each footprint entity marks
// both counters when it completes on the processor; the displacement it
// has suffered since is the counters' growth, with other-protocol growth
// discounted by the shared-code fraction.
type procState struct {
	busy      bool
	idleSince des.Time
	busySince des.Time
	dispNP    float64
	dispProto float64
	seen      []bool    // entity has completed on this processor
	markNP    []float64 // entity → dispNP at last completion here
	markProto []float64 // entity → dispProto at last completion here
	util      stats.TimeWeighted

	// Fault-injection state: a down processor takes no new work (its
	// in-flight packet drains gracefully, then it parks); slow scales
	// charged execution time while a transient slow-down is active
	// (1 = full speed, the only value touched on fault-free runs).
	down      bool
	downSince des.Time
	downTime  float64 // closed down intervals, µs
	slow      float64
}

// stackState tracks one IPS stack.
type stackState struct {
	q       pktQueue
	running bool
	queued  bool
}

// pktQueue is a slice-backed packet FIFO that recycles its backing
// array: the head index advances on pop and the array resets when the
// queue drains (or the dead prefix dominates), so steady-state
// enqueue/dequeue traffic stops allocating.
type pktQueue struct {
	buf  []sched.Packet
	head int
}

func (q *pktQueue) len() int            { return len(q.buf) - q.head }
func (q *pktQueue) front() sched.Packet { return q.buf[q.head] }
func (q *pktQueue) push(p sched.Packet) { q.buf = append(q.buf, p) }
func (q *pktQueue) pop() sched.Packet {
	p := q.buf[q.head]
	q.buf[q.head] = sched.Packet{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return p
}

type runner struct {
	p     Params
	sim   *des.Simulator
	model *core.Model
	exec  *core.Exec // compiled model: bit-identical, transcendentals hoisted
	rate  float64    // displacing references per µs of full-speed execution

	// topo is Params.Topology, but only when it can change a charge:
	// nil for the flat machine (no topology, or one whose transient
	// multipliers are all 1), so the topology-free path stays a single
	// nil compare and is bit-identical to the pre-topology runner.
	topo *topo.Topology

	disp  sched.PacketDispatcher // Locking
	sdisp sched.StackDispatcher  // IPS
	lock  *des.Resource          // Locking: the shared-stack lock

	procs      []procState
	stacks     []stackState
	overflow   pktQueue // Hybrid: packets spilled to the shared path
	rng        *des.RNG // Hybrid overflow placement
	lastProcOf []int    // entity → processor of previous completion, -1 unknown

	sources     []arrivalSource // one per stream, scheduled by pointer
	pipe        *des.Prefetcher // Shards>1: arrival draw pipeline (shard.go)
	idleScratch []int           // reused by idleProcs
	svcFree     []*svc          // recycled per-packet service records

	delays    *stats.BatchMeans
	delayAcc  stats.Accumulator
	delayHist *stats.Histogram
	perStream []stats.Accumulator
	service   stats.Accumulator
	queueing  stats.Accumulator
	lockWait  stats.Accumulator

	warm       uint64
	coldStarts uint64
	migrations uint64
	spills     uint64
	measured   int
	arrivals   uint64

	// Fault injection: the scheduled plan events, the active loss
	// probability, and its RNG stream (created only when the plan has
	// loss events, so every other stream's published draws stay
	// identical to a fault-free run's).
	faultEvs []faultEvent
	lossProb float64
	lossRNG  *des.RNG
	dropped  uint64

	// rec is the effective recorder chain — the user's Params.Recorder
	// plus the TraceN adapter — or nil when both are disabled. Every
	// emission site is guarded by `r.rec != nil`, which keeps the
	// disabled path free of event construction (the zero-overhead
	// contract). emitted counts events published through it.
	rec     obs.Recorder
	tsink   *traceSink
	emitted uint64

	// Decision-ledger state: drec is Params.DecisionRecorder (every
	// decide call site is guarded by `r.drec != nil`), decisions counts
	// what was published, candScratch is the reused candidate buffer
	// (each Decision aliases it for the duration of RecordDecision) and
	// oneProc the reused single-candidate set for dispatch decisions.
	drec        obs.DecisionRecorder
	decisions   uint64
	candScratch []obs.Candidate
	oneProc     [1]int

	// Counterfactual replay state: over is Params.DecisionOverride
	// (call sites guard with `r.drec != nil || r.over != nil` so normal
	// runs pay the same single branch as before), overIdx the ordinal of
	// the next decision — counted at every decision site, recorder or
	// not, so it matches the ledger indices a recorder would assign.
	over    DecisionOverride
	overIdx uint64

	// Per-stream reordering state: streamSeq numbers each stream's
	// arrivals (1-based), streamMaxDone is the highest StreamSeq
	// completed, streamReordered the out-of-order completion count —
	// sparse, created at the first reordered completion, so the common
	// in-order run carries no per-stream reorder storage at all (at
	// million-stream scale the dense slice was an O(streams) allocation
	// spent on zeros). The counters always run — they are a few integer
	// ops per packet — so Results carries the metric with or without
	// recorders.
	streamSeq       []uint64
	streamMaxDone   []uint64
	streamReordered map[int]uint64
	reordered       uint64
	maxReorderDist  uint64
}

// traceSink adapts the recorder event stream back into the legacy
// Results.Trace format: it captures the first n ExecStart events,
// pairing each with the Dispatch event the runner emits immediately
// before it (same packet, same instant) for the queueing delay.
type traceSink struct {
	n       int
	wait    float64
	waitSeq uint64
	entries []TraceEntry
}

func (t *traceSink) Record(e obs.Event) {
	switch e.Kind {
	case obs.KindDispatch:
		t.wait, t.waitSeq = e.Dur, e.Seq
	case obs.KindExecStart:
		if len(t.entries) >= t.n {
			return
		}
		var queued des.Time
		if t.waitSeq == e.Seq {
			queued = des.Time(t.wait)
		}
		t.entries = append(t.entries, TraceEntry{
			Start:     des.Time(e.T),
			Stream:    e.Stream,
			Entity:    e.Entity,
			Processor: e.Proc,
			Queued:    queued,
			XRefs:     e.Val,
			Exec:      e.Dur,
			Migrated:  e.Flags&obs.FlagMigrated != 0,
		})
	}
}

func newRunner(p Params) *runner {
	entities := p.entityCount()
	r := &runner{
		p:          p,
		sim:        des.NewSimulator(),
		model:      p.Model,
		exec:       p.Model.Compile(),
		rate:       p.Model.Platform.RefsPerMicrosecond(),
		procs:      make([]procState, p.Processors),
		lastProcOf: make([]int, entities),
		delays:     stats.NewBatchMeans(p.BatchSize),
		delayHist:  stats.NewHistogram(0, 100_000, 10_000), // 10 µs bins to 100 ms
		perStream:  make([]stats.Accumulator, p.Streams),

		drec:          p.DecisionRecorder,
		over:          p.DecisionOverride,
		streamSeq:     make([]uint64, p.Streams),
		streamMaxDone: make([]uint64, p.Streams),
	}
	if t := p.Topology; t != nil &&
		(t.SameSocketTransient != 1 || t.CrossSocketTransient != 1) {
		r.topo = t
	}
	if r.drec != nil {
		r.candScratch = make([]obs.Candidate, 0, p.Processors)
	}
	for i := range r.lastProcOf {
		r.lastProcOf[i] = -1
	}
	for i := range r.procs {
		r.procs[i].seen = make([]bool, entities)
		r.procs[i].markNP = make([]float64, entities)
		r.procs[i].markProto = make([]float64, entities)
		r.procs[i].util.Set(0, 0)
		r.procs[i].slow = 1
	}
	if p.Faults.HasLoss() {
		r.lossRNG = des.Stream(p.Seed, "fault-loss")
	}
	r.idleScratch = make([]int, 0, p.Processors)
	schedRNG := des.Stream(p.Seed, "sched")
	if p.Paradigm == Locking {
		r.disp = sched.NewPacketDispatcherFull(p.Policy, p.Processors, schedRNG, p.MRULookahead,
			sched.HashConfig{Rebalance: p.FDRebalance, Identity: p.HashIdentity},
			sched.StealConfig{StealParams: p.Steal, Now: r.sim.Now})
		r.lock = des.NewResource(r.sim, 1)
	} else {
		r.sdisp = sched.NewStackDispatcherLookahead(p.Policy, p.Stacks, p.Processors, schedRNG, p.MRULookahead)
		r.stacks = make([]stackState, p.Stacks)
		if p.Paradigm == Hybrid {
			r.lock = des.NewResource(r.sim, 1)
			r.rng = des.Stream(p.Seed, "hybrid-overflow")
		}
	}
	if p.TraceN > 0 {
		r.tsink = &traceSink{n: p.TraceN}
	}
	if r.tsink != nil {
		r.rec = obs.Multi(p.Recorder, r.tsink)
	} else {
		r.rec = p.Recorder
	}
	return r
}

// emit publishes one event on the recorder chain; callers guard with
// r.rec != nil so the disabled path constructs nothing.
func (r *runner) emit(e obs.Event) {
	r.emitted++
	r.rec.Record(e)
}

// decide publishes one dispatch decision: the chosen processor plus the
// candidate set considered, each with the warm/cold prediction and the
// execution cost the model would charge there right now. Costs come
// from the same pure functions beginService charges with, so recording
// reads simulator state without touching it. Callers guard with
// r.drec != nil; the emitted Decision aliases candScratch, valid only
// for the duration of RecordDecision.
func (r *runner) decide(point obs.DecisionPoint, pkt sched.Packet, cands []int, chosen int) {
	r.decisions++
	cs := r.candScratch[:0]
	best := math.Inf(1)
	chosenCost := 0.0
	for _, pc := range cands {
		x := r.xRefs(pkt.Entity, pc)
		texec, f1 := r.exec.ExecTimeF1(x)
		if r.topo != nil {
			texec = r.topoScaled(texec, pkt.Entity, pc)
		}
		cost := texec + r.p.DataTouch
		if s := r.procs[pc].slow; s != 1 {
			cost *= s
		}
		cs = append(cs, obs.Candidate{
			Proc: pc, Warm: !math.IsInf(x, 1) && f1 < 0.5, XRefs: x, Cost: cost,
		})
		if cost < best {
			best = cost
		}
		if pc == chosen {
			chosenCost = cost
		}
	}
	r.candScratch = cs
	var preferred int
	if r.p.Paradigm == Locking {
		preferred = r.disp.PreferredProc(pkt.Entity)
	} else {
		preferred = r.sdisp.PreferredProc(pkt.Entity)
	}
	r.drec.RecordDecision(obs.Decision{
		T: float64(r.sim.Now()), Point: point, Seq: pkt.Seq,
		Stream: pkt.Stream, Entity: pkt.Entity,
		Chosen: chosen, Preferred: preferred,
		ChosenCost: chosenCost, BestCost: best, Candidates: cs,
	})
}

// chose settles one dispatch decision: the counterfactual override (if
// any) substitutes the choice first, then the ledger records what will
// actually run. The override's ordinal advances at every decision site
// whether or not a recorder is attached, so a replay run (override, no
// recorder) counts decisions exactly as the factual run's ledger
// numbered them. Callers guard with `r.drec != nil || r.over != nil`.
func (r *runner) chose(point obs.DecisionPoint, pkt sched.Packet, cands []int, chosen int) int {
	if r.over != nil {
		forced := r.over(r.overIdx, point, cands, chosen)
		r.overIdx++
		if forced != chosen {
			ok := false
			for _, c := range cands {
				if c == forced {
					ok = true
					break
				}
			}
			if !ok {
				panic("sim: decision override chose a processor outside the candidate set")
			}
			chosen = forced
		}
	}
	if r.drec != nil {
		r.decide(point, pkt, cands, chosen)
	}
	return chosen
}

// choseDispatch settles the single-candidate decision a processor
// pulling queued work makes: the processor is fixed, the choice was
// which work to run, so an override cannot move it — but it still
// consumes an ordinal, keeping replay numbering aligned with the ledger.
func (r *runner) choseDispatch(pkt sched.Packet, proc int) {
	r.oneProc[0] = proc
	r.chose(obs.PointDispatch, pkt, r.oneProc[:], proc)
}

// arrivalSource drives one stream's arrival process; it is scheduled by
// pointer through arrivalFire so per-arrival rescheduling allocates
// nothing.
type arrivalSource struct {
	r       *runner
	stream  int
	proc    traffic.Process
	pending int
}

// arrivalFire delivers the batch drawn on the previous tick, then draws
// and schedules the next one.
func arrivalFire(a any) {
	src := a.(*arrivalSource)
	r := src.r
	for j := 0; j < src.pending; j++ {
		r.arrive(src.stream)
	}
	d, b := src.proc.Next()
	src.pending = b
	r.sim.ScheduleArg(d, arrivalFire, src)
}

// gaugeSample publishes the periodic gauges and reschedules itself; it
// runs only when a user recorder is attached (a TraceN-only run should
// not burn simulator events on samples nobody sees) and reads state
// without mutating it, so it cannot perturb the run.
func gaugeSample(a any) {
	r := a.(*runner)
	t := float64(r.sim.Now())
	r.emit(obs.Event{T: t, Kind: obs.KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1,
		Val: float64(r.queuedPackets())})
	r.emit(obs.Event{T: t, Kind: obs.KindGaugeHeap, Proc: -1, Stream: -1, Entity: -1,
		Val: float64(r.sim.Pending())})
	var dNP, dProto float64
	for i := range r.procs {
		dNP += r.procs[i].dispNP
		dProto += r.procs[i].dispProto
	}
	r.emit(obs.Event{T: t, Kind: obs.KindGaugeDispNP, Proc: -1, Stream: -1, Entity: -1, Val: dNP})
	r.emit(obs.Event{T: t, Kind: obs.KindGaugeDispProto, Proc: -1, Stream: -1, Entity: -1, Val: dProto})
	if r.p.Paradigm == Hybrid {
		r.emit(obs.Event{T: t, Kind: obs.KindGaugeOverflow, Proc: -1, Stream: -1, Entity: -1,
			Val: float64(r.overflow.len())})
	}
	r.sim.ScheduleArg(r.p.SamplePeriod, gaugeSample, r)
}

// faultEvent binds one plan event to its runner so the DES can fire it
// through a non-capturing handler.
type faultEvent struct {
	r  *runner
	ev faults.Event
}

func faultFire(a any) {
	fe := a.(*faultEvent)
	r := fe.r
	switch fe.ev.Kind {
	case faults.ProcDown:
		r.procDown(fe.ev.Proc)
	case faults.ProcUp:
		r.procUp(fe.ev.Proc)
	case faults.Slowdown:
		r.procs[fe.ev.Proc].slow = fe.ev.Factor
	case faults.Loss:
		r.lossProb = fe.ev.Prob
	case faults.Burst:
		if fe.ev.Stream < 0 {
			for s := 0; s < r.p.Streams; s++ {
				for j := 0; j < fe.ev.Count; j++ {
					r.arrive(s)
				}
			}
			return
		}
		for j := 0; j < fe.ev.Count; j++ {
			r.arrive(fe.ev.Stream)
		}
	}
}

// start schedules every stream's arrival process, the fault plan and,
// when a recorder is attached, the periodic gauge sampler.
func (r *runner) start() {
	if !r.p.Faults.Empty() {
		evs := r.p.Faults.Sorted()
		r.faultEvs = make([]faultEvent, len(evs))
		for i := range evs {
			fe := &r.faultEvs[i]
			fe.r, fe.ev = r, evs[i]
			r.sim.ScheduleArgAt(evs[i].At, faultFire, fe)
		}
	}
	if r.p.Recorder != nil {
		r.sim.ScheduleArg(r.p.SamplePeriod, gaugeSample, r)
	}
	r.sources = make([]arrivalSource, r.p.Streams)
	pipe := r.buildPrefetch() // nil unless Params.Shards asks for K > 1
	for s := 0; s < r.p.Streams; s++ {
		spec := r.p.Arrival
		if r.p.ArrivalPerStream != nil {
			spec = r.p.ArrivalPerStream[s]
		}
		src := &r.sources[s]
		src.r, src.stream = r, s
		if pipe != nil {
			src.proc = prefetchProc{p: pipe, src: s}
		} else {
			src.proc = spec.Build(des.ArrivalStream(r.p.Seed, s))
		}
		d, b := src.proc.Next()
		src.pending = b
		r.sim.ScheduleArg(d, arrivalFire, src)
	}
}

// idleProcs returns the processors currently free of protocol work. The
// returned slice is the runner's scratch buffer, valid until the next
// call.
func (r *runner) idleProcs() []int {
	idle := r.idleScratch[:0]
	for i := range r.procs {
		if !r.procs[i].busy && !r.procs[i].down {
			idle = append(idle, i)
		}
	}
	r.idleScratch = idle
	return idle
}

func (r *runner) arrive(stream int) {
	r.arrivals++
	r.streamSeq[stream]++
	pkt := sched.Packet{Stream: stream, Entity: r.p.entityOf(stream), Arrive: r.sim.Now(),
		Seq: r.arrivals, StreamSeq: r.streamSeq[stream]}
	if r.rec != nil {
		r.emit(obs.Event{T: float64(pkt.Arrive), Kind: obs.KindArrival,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
	if r.lossProb > 0 && r.lossRNG.Float64() < r.lossProb {
		r.drop(pkt, obs.DropReasonLoss)
		return
	}
	if r.p.Paradigm == Locking {
		if idle := r.idleProcs(); len(idle) > 0 {
			if proc := r.disp.PickProcessor(pkt, idle); proc >= 0 {
				if r.drec != nil || r.over != nil {
					proc = r.chose(obs.PointPlace, pkt, idle, proc)
				}
				r.beginService(pkt, proc, true, true, compLocking)
				return
			}
		}
		if r.p.MaxQueueDepth > 0 && r.disp.DepthFor(pkt) >= r.p.MaxQueueDepth {
			r.drop(pkt, obs.DropReasonQueue)
			return
		}
		r.enqueued(pkt)
		r.disp.Enqueue(pkt)
		return
	}
	// IPS / Hybrid: the packet joins its stack's queue; a newly ready
	// stack is placed on a processor or queued.
	k := pkt.Entity
	st := &r.stacks[k]
	if r.p.Paradigm == Hybrid && (st.running || st.queued) && st.q.len() >= r.p.HybridOverflow {
		// The stack is backed up: spill to the shared locking path,
		// which any idle processor may serve concurrently.
		if idle := r.idleProcs(); len(idle) > 0 {
			r.spills++
			proc := idle[r.rng.Intn(len(idle))]
			if r.drec != nil || r.over != nil {
				proc = r.chose(obs.PointSpill, pkt, idle, proc)
			}
			if r.rec != nil {
				r.emit(obs.Event{T: float64(r.sim.Now()), Kind: obs.KindSpill,
					Proc: proc, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
			}
			r.beginService(pkt, proc, true, true, compOverflow)
			return
		}
		if r.p.MaxQueueDepth > 0 && r.overflow.len() >= r.p.MaxQueueDepth {
			r.drop(pkt, obs.DropReasonQueue)
			return
		}
		r.spills++
		if r.rec != nil {
			r.emit(obs.Event{T: float64(r.sim.Now()), Kind: obs.KindSpill,
				Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
		r.enqueued(pkt)
		r.overflow.push(pkt)
		return
	}
	if r.p.MaxQueueDepth > 0 {
		waiting := st.q.len()
		if st.running {
			waiting-- // the head is in service, not waiting
		}
		if waiting >= r.p.MaxQueueDepth {
			r.drop(pkt, obs.DropReasonQueue)
			return
		}
	}
	st.q.push(pkt)
	if st.running || st.queued {
		r.enqueued(pkt)
		return
	}
	if idle := r.idleProcs(); len(idle) > 0 {
		if proc := r.sdisp.PickProcessor(k, idle); proc >= 0 {
			if r.drec != nil || r.over != nil {
				// The stack was idle and unqueued, so the arriving packet
				// is the one this placement runs.
				proc = r.chose(obs.PointPlace, pkt, idle, proc)
			}
			r.startStack(k, proc, true)
			return
		}
	}
	r.enqueued(pkt)
	st.queued = true
	r.sdisp.EnqueueStack(k)
}

// enqueued publishes the packet's enqueue event — it could not be
// served immediately and now waits in some queue.
func (r *runner) enqueued(pkt sched.Packet) {
	if r.rec != nil {
		r.emit(obs.Event{T: float64(r.sim.Now()), Kind: obs.KindEnqueue,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
}

// drop removes an arrived packet from the system unserved. Dropped
// packets stay in the conservation ledger: Arrivals = CompletedTotal +
// InFlightAtEnd + QueueAtEnd + Dropped.
func (r *runner) drop(pkt sched.Packet, reason int) {
	r.dropped++
	if r.rec != nil {
		r.emit(obs.Event{T: float64(r.sim.Now()), Kind: obs.KindDrop,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Val: float64(reason)})
	}
}

// procDown takes a processor out of service: the dispatcher re-homes
// entities bound to it, its in-flight packet (if any) drains and then
// the processor parks until procUp.
func (r *runner) procDown(proc int) {
	ps := &r.procs[proc]
	if ps.down {
		return
	}
	now := r.sim.Now()
	ps.down = true
	ps.downSince = now
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindProcDown,
			Proc: proc, Stream: -1, Entity: -1})
	}
	if r.p.Paradigm == Locking {
		r.disp.ProcDown(proc)
	} else {
		r.sdisp.ProcDown(proc)
	}
	// Re-homed work may be runnable on other processors right now.
	r.kickIdle()
}

// procUp returns a processor to service with a cold cache: whatever
// protocol state it held is gone, so every entity restarts cold here —
// the failback penalty the wired policies' re-homing must amortize.
func (r *runner) procUp(proc int) {
	ps := &r.procs[proc]
	if !ps.down {
		return
	}
	now := r.sim.Now()
	ps.down = false
	ps.downTime += float64(now - ps.downSince)
	for i := range ps.seen {
		ps.seen[i] = false
	}
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindProcUp,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.downSince)})
	}
	if r.p.Paradigm == Locking {
		r.disp.ProcUp(proc)
	} else {
		r.sdisp.ProcUp(proc)
	}
	r.kickIdle()
}

// kickIdle offers queued work to every live idle processor. The normal
// arrival/completion flow cannot see work that a fault transition moved
// between queues (or a parked processor left behind), so every
// transition ends with a kick — this is what guarantees no stream
// strands while at least one processor is up.
func (r *runner) kickIdle() {
	for proc := range r.procs {
		ps := &r.procs[proc]
		if ps.busy || ps.down {
			continue
		}
		if r.p.Paradigm == Locking {
			if next, ok := r.disp.Dispatch(proc); ok {
				if r.drec != nil || r.over != nil {
					r.choseDispatch(next, proc)
				}
				r.beginService(next, proc, true, true, compLocking)
			}
			continue
		}
		if next := r.sdisp.DispatchStack(proc); next >= 0 {
			r.stacks[next].queued = false
			if r.drec != nil || r.over != nil {
				r.choseDispatch(r.stacks[next].q.front(), proc)
			}
			r.startStack(next, proc, true)
			continue
		}
		if r.p.Paradigm == Hybrid && r.overflow.len() > 0 {
			pkt := r.overflow.pop()
			if r.drec != nil || r.over != nil {
				r.choseDispatch(pkt, proc)
			}
			r.beginService(pkt, proc, true, true, compOverflow)
		}
	}
}

// topoScaled applies the topology's migration transient multiplier to a
// model-charged execution time: a packet whose entity last completed on
// a different core pays t_warm + scale·(T(x) − t_warm), where scale
// depends on whether the migration crosses a socket. The warm floor
// never scales — it is a property of the code path, not of where the
// stale state lives — and an entity's very first run anywhere has no
// state to fetch, so it pays the plain cold charge. Callers guard with
// r.topo != nil (nil whenever no multiplier differs from 1), keeping
// the flat machine bit-identical to the topology-free runner.
func (r *runner) topoScaled(texec float64, entity, proc int) float64 {
	if last := r.lastProcOf[entity]; last >= 0 && last != proc {
		if s := r.topo.TransientScale(last, proc); s != 1 {
			w := r.exec.Warm()
			texec = w + s*(texec-w)
		}
	}
	return texec
}

// xRefs returns the displacing references entity e has suffered on proc
// since it last completed there, or +Inf if it never ran there.
func (r *runner) xRefs(e, proc int) float64 {
	ps := &r.procs[proc]
	if !ps.seen[e] {
		return math.Inf(1)
	}
	dNP := ps.dispNP - ps.markNP[e]
	dProto := ps.dispProto - ps.markProto[e]
	return dNP + (1-r.p.CodeSharedFrac)*dProto
}

// completionKind selects the continuation run when a packet's service
// completes — an enum dispatched in svc.finish, rather than a captured
// function value, so beginService stays allocation-free.
type completionKind uint8

const (
	compLocking completionKind = iota
	compOverflow
	compIPS
)

// svc is the pooled per-packet service record: everything the
// completion continuation needs, bound once at beginService and
// threaded through the DES by pointer.
type svc struct {
	r         *runner
	pkt       sched.Packet
	proc      int
	exec      float64 // charged execution time (model + data touch)
	warmHit   bool
	done      completionKind
	requested des.Time // lock-wait start (locked path)
}

func (r *runner) acquireSvc() *svc {
	if n := len(r.svcFree); n > 0 {
		s := r.svcFree[n-1]
		r.svcFree[n-1] = nil
		r.svcFree = r.svcFree[:n-1]
		return s
	}
	return &svc{r: r}
}

func (r *runner) releaseSvc(s *svc) {
	s.pkt = sched.Packet{}
	r.svcFree = append(r.svcFree, s)
}

// svcFinishDirect completes an unlocked service interval.
func svcFinishDirect(a any) {
	s := a.(*svc)
	s.finish(s.exec)
}

// svcLockRequest ends the non-critical section and queues for the
// shared-stack lock.
func svcLockRequest(a any) {
	s := a.(*svc)
	s.requested = s.r.sim.Now()
	s.r.lock.AcquireArg(svcLockGranted, s)
}

// svcLockGranted runs when the lock is granted: record the spin wait and
// schedule the critical section.
func svcLockGranted(a any) {
	s := a.(*svc)
	r := s.r
	r.lockWait.Add(float64(r.sim.Now() - s.requested))
	r.sim.ScheduleArg(des.Time(r.p.LockCritFrac*s.exec), svcLockDone, s)
}

// svcLockDone releases the lock and completes the locked service.
func svcLockDone(a any) {
	s := a.(*svc)
	s.r.lock.Release()
	s.finish(s.exec + s.r.p.LockOverhead)
}

// finish settles the warm-hit counter, recycles the record and runs the
// paradigm's completion continuation.
func (s *svc) finish(protoExec float64) {
	r := s.r
	if s.warmHit {
		r.warm++
	}
	pkt, proc, done := s.pkt, s.proc, s.done
	r.releaseSvc(s)
	switch done {
	case compLocking:
		r.completeLocking(pkt, proc, protoExec)
	case compOverflow:
		r.completeOverflow(pkt, proc, protoExec)
	default:
		r.completeIPS(pkt, proc, protoExec)
	}
}

// beginService runs pkt on proc. fromIdle marks a processor that was
// running the background workload (its idle displacement is settled and
// the preemption cost applies). locked selects the shared-stack path,
// which pays the lock overhead and serializes its critical section; done
// selects the completion continuation.
func (r *runner) beginService(pkt sched.Packet, proc int, fromIdle, locked bool, done completionKind) {
	now := r.sim.Now()
	ps := &r.procs[proc]
	if ps.busy && fromIdle {
		panic("sim: placed packet on busy processor")
	}
	if ps.down {
		panic("sim: placed packet on down processor")
	}
	preempt := 0.0
	if fromIdle {
		// Settle the idle period's background displacement.
		ps.dispNP += r.p.Background.Intensity * r.rate * float64(now-ps.idleSince)
		ps.busy = true
		ps.busySince = now
		ps.util.Set(float64(now), 1)
		if r.rec != nil {
			r.emit(obs.Event{T: float64(now), Kind: obs.KindProcBusy,
				Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.idleSince)})
		}
		if r.p.Background.Intensity > 0 {
			preempt = r.p.Background.PreemptCost
		}
	}

	x := r.xRefs(pkt.Entity, proc)
	texec, f1 := r.exec.ExecTimeF1(x)
	if r.topo != nil {
		texec = r.topoScaled(texec, pkt.Entity, proc)
	}
	exec := texec + r.p.DataTouch
	if ps.slow != 1 {
		// Transient slow-down fault: scale the charged execution. Guarded
		// so fault-free runs multiply nothing and stay bit-identical.
		exec *= ps.slow
	}
	cold := math.IsInf(x, 1)
	if cold {
		r.coldStarts++
	}
	// Warm hits are counted at completion (svc.finish), alongside the
	// service accumulator that forms WarmFraction's denominator, so
	// packets still in flight when the run stops never enter the ratio.
	warmHit := !cold && f1 < 0.5
	migrated := false
	if last := r.lastProcOf[pkt.Entity]; last >= 0 && last != proc {
		r.migrations++
		migrated = true
	}
	r.queueing.Add(float64(now - pkt.Arrive))
	if r.rec != nil {
		t := float64(now)
		r.emit(obs.Event{T: t, Kind: obs.KindDispatch, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Dur: float64(now - pkt.Arrive)})
		var flags obs.Flags
		if cold {
			flags |= obs.FlagCold
		}
		if migrated {
			flags |= obs.FlagMigrated
		}
		if locked {
			flags |= obs.FlagLocked
		}
		if warmHit {
			flags |= obs.FlagWarm
		}
		r.emit(obs.Event{T: t, Kind: obs.KindExecStart, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Dur: exec, Val: x, Flags: flags})
		if cold {
			r.emit(obs.Event{T: t, Kind: obs.KindColdStart, Proc: proc,
				Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
		if migrated {
			r.emit(obs.Event{T: t, Kind: obs.KindMigration, Proc: proc,
				Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
	}

	sv := r.acquireSvc()
	sv.pkt, sv.proc, sv.exec, sv.warmHit, sv.done = pkt, proc, exec, warmHit, done
	if locked {
		nonCrit := preempt + r.p.LockOverhead + (1-r.p.LockCritFrac)*exec
		r.sim.ScheduleArg(des.Time(nonCrit), svcLockRequest, sv)
		return
	}
	r.sim.ScheduleArg(des.Time(preempt+exec), svcFinishDirect, sv)
}

// settleCompletion updates displacement marks, affinity state and delay
// statistics common to both paradigms. protoExec is the protocol
// execution time that displaces other footprints (spin wait excluded).
func (r *runner) settleCompletion(pkt sched.Packet, proc int, protoExec float64) {
	now := r.sim.Now()
	ps := &r.procs[proc]
	ps.dispProto += r.rate * protoExec
	ps.seen[pkt.Entity] = true
	ps.markNP[pkt.Entity] = ps.dispNP
	ps.markProto[pkt.Entity] = ps.dispProto
	r.lastProcOf[pkt.Entity] = proc
	if !ps.down {
		// A completion draining off a failed processor must not refresh
		// affinity: its cache is lost at recovery, and ThreadPools would
		// otherwise migrate the stream's home onto the dead processor.
		if r.p.Paradigm == Locking {
			r.disp.RanOn(pkt.Entity, proc)
		} else {
			r.sdisp.RanOn(pkt.Entity, proc)
		}
	}
	r.service.Add(protoExec)
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindExecEnd, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq, Dur: protoExec})
	}

	// Reordering: a completion below its stream's watermark finished
	// after a later arrival of the same stream already did. Distance is
	// measured in the stream's own arrival numbering.
	if pkt.StreamSeq > r.streamMaxDone[pkt.Stream] {
		r.streamMaxDone[pkt.Stream] = pkt.StreamSeq
	} else {
		r.reordered++
		if r.streamReordered == nil {
			r.streamReordered = make(map[int]uint64)
		}
		r.streamReordered[pkt.Stream]++
		if d := r.streamMaxDone[pkt.Stream] - pkt.StreamSeq; d > r.maxReorderDist {
			r.maxReorderDist = d
		}
	}

	if pkt.Arrive >= r.p.Warmup {
		delay := float64(now - pkt.Arrive)
		r.delays.Add(delay)
		r.delayAcc.Add(delay)
		r.delayHist.Add(delay)
		r.perStream[pkt.Stream].Add(delay)
		r.measured++
		if r.measured >= r.p.MeasuredPackets {
			if r.p.TargetRelCI <= 0 ||
				r.delays.RelativeHalfWidth() <= r.p.TargetRelCI {
				r.sim.Stop()
			}
		}
	}
}

// goIdle marks a processor idle and lets the background workload resume.
func (r *runner) goIdle(proc int) {
	now := r.sim.Now()
	ps := &r.procs[proc]
	ps.busy = false
	ps.idleSince = now
	ps.util.Set(float64(now), 0)
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindProcIdle,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.busySince)})
	}
}

func (r *runner) completeLocking(pkt sched.Packet, proc int, protoExec float64) {
	r.settleCompletion(pkt, proc, protoExec)
	if r.procs[proc].down {
		// The drain is complete: park, and let live processors pick up
		// anything that queued behind this one.
		r.goIdle(proc)
		r.kickIdle()
		return
	}
	if next, ok := r.disp.Dispatch(proc); ok {
		if r.drec != nil || r.over != nil {
			r.choseDispatch(next, proc)
		}
		r.beginService(next, proc, false, true, compLocking)
		return
	}
	r.goIdle(proc)
}

// completeOverflow finishes a Hybrid spilled packet and picks the
// processor's next work: a ready stack first (affinity), then another
// spilled packet.
func (r *runner) completeOverflow(pkt sched.Packet, proc int, protoExec float64) {
	r.settleCompletion(pkt, proc, protoExec)
	if r.procs[proc].down {
		r.goIdle(proc)
		r.kickIdle()
		return
	}
	r.dispatchHybrid(proc)
}

// dispatchHybrid finds the next work item for an idle-going processor
// under the Hybrid paradigm.
func (r *runner) dispatchHybrid(proc int) {
	if next := r.sdisp.DispatchStack(proc); next >= 0 {
		r.stacks[next].queued = false
		if r.drec != nil || r.over != nil {
			r.choseDispatch(r.stacks[next].q.front(), proc)
		}
		r.startStack(next, proc, false)
		return
	}
	if r.overflow.len() > 0 {
		pkt := r.overflow.pop()
		if r.drec != nil || r.over != nil {
			r.choseDispatch(pkt, proc)
		}
		r.beginService(pkt, proc, false, true, compOverflow)
		return
	}
	r.goIdle(proc)
}

func (r *runner) completeIPS(pkt sched.Packet, proc int, protoExec float64) {
	r.settleCompletion(pkt, proc, protoExec)
	k := pkt.Entity
	st := &r.stacks[k]
	st.q.pop()
	if r.procs[proc].down {
		// The drain is complete: the stack rejoins the ready queue (its
		// new wire after re-homing) if it still has work, and the
		// processor parks.
		st.running = false
		if st.q.len() > 0 {
			st.queued = true
			r.sdisp.EnqueueStack(k)
		}
		r.goIdle(proc)
		r.kickIdle()
		return
	}
	if st.q.len() > 0 {
		// The stack still has work, but packet-level fairness applies:
		// if another ready stack is waiting for this processor, yield
		// to it and rejoin the ready queue; otherwise keep running.
		if next := r.sdisp.DispatchStack(proc); next >= 0 {
			st.running = false
			st.queued = true
			r.sdisp.EnqueueStack(k)
			r.stacks[next].queued = false
			if r.drec != nil || r.over != nil {
				r.choseDispatch(r.stacks[next].q.front(), proc)
			}
			r.startStack(next, proc, false)
			return
		}
		// Continuing the same stack on the same processor is not a
		// decision: there was no alternative to weigh.
		r.beginService(st.q.front(), proc, false, false, compIPS)
		return
	}
	st.running = false
	if r.p.Paradigm == Hybrid {
		r.dispatchHybrid(proc)
		return
	}
	if next := r.sdisp.DispatchStack(proc); next >= 0 {
		r.stacks[next].queued = false
		if r.drec != nil || r.over != nil {
			r.choseDispatch(r.stacks[next].q.front(), proc)
		}
		r.startStack(next, proc, false)
		return
	}
	r.goIdle(proc)
}

func (r *runner) startStack(k, proc int, fromIdle bool) {
	st := &r.stacks[k]
	if st.q.len() == 0 {
		panic("sim: started an empty stack")
	}
	st.running = true
	st.queued = false
	r.beginService(st.q.front(), proc, fromIdle, false, compIPS)
}

func (r *runner) queuedPackets() int {
	if r.p.Paradigm == Locking {
		return r.disp.Queued()
	}
	n := r.overflow.len()
	for i := range r.stacks {
		q := r.stacks[i].q.len()
		if r.stacks[i].running && q > 0 {
			q-- // the head is in service, not waiting
		}
		n += q
	}
	return n
}

// inFlight returns the number of packets in service right now: every
// busy processor serves exactly one packet.
func (r *runner) inFlight() int {
	n := 0
	for i := range r.procs {
		if r.procs[i].busy {
			n++
		}
	}
	return n
}

func (r *runner) results() Results {
	now := r.sim.Now()
	measureSpan := now - r.p.Warmup
	offered := float64(r.p.Streams) * r.p.Arrival.Rate()
	if r.p.ArrivalPerStream != nil {
		offered = 0
		for _, spec := range r.p.ArrivalPerStream {
			offered += spec.Rate()
		}
	}
	res := Results{
		Paradigm:       r.p.Paradigm.String(),
		Policy:         r.p.Policy.String(),
		OfferedRate:    offered,
		Completed:      uint64(r.measured),
		CompletedTotal: r.service.N(),
		Arrivals:       r.arrivals,
		MeanDelay:      r.delayAcc.Mean(),
		DelayCI:        r.delays.HalfWidth(),
		MaxDelay:       r.delayAcc.Max(),
		MeanService:    r.service.Mean(),
		MeanQueueing:   r.queueing.Mean(),
		MeanLockWait:   r.lockWait.Mean(),
		ColdStarts:     r.coldStarts,
		Migrations:     r.migrations,
		Spills:         r.spills,
		QueueAtEnd:     r.queuedPackets(),
		InFlightAtEnd:  r.inFlight(),
		SimTime:        now,

		EventsFired:       r.sim.Fired(),
		RecorderEvents:    r.emitted,
		DecisionsRecorded: r.decisions,

		ReorderedTotal:     r.reordered,
		MaxReorderDistance: r.maxReorderDist,
		PerStreamReordered: r.streamReordered, // runner-owned; nil when in order
	}
	res.P95Delay, res.P95Clamped = r.delayHist.QuantileClamped(0.95)
	res.DelayOverflow = r.delayHist.OverflowFraction()
	res.Dropped = r.dropped
	if r.arrivals > 0 {
		res.DropFraction = float64(r.dropped) / float64(r.arrivals)
	}
	if now > 0 {
		res.GoodputPPS = float64(r.service.N()) / now.Seconds()
	}
	if !r.p.Faults.Empty() {
		res.PerProcDownTime = make([]float64, len(r.procs))
		for i := range r.procs {
			dt := r.procs[i].downTime
			if r.procs[i].down {
				dt += float64(now - r.procs[i].downSince)
			}
			res.PerProcDownTime[i] = dt
		}
	}
	totalEventsFired.Add(r.sim.Fired())
	if r.p.Paradigm == Locking {
		res.AffinityHits, res.Placements = r.disp.AffinityStats()
	} else {
		res.AffinityHits, res.Placements = r.sdisp.AffinityStats()
	}
	if total := r.service.N(); total > 0 {
		res.WarmFraction = float64(r.warm) / float64(total)
	}
	if measureSpan > 0 && r.measured > 0 {
		res.Throughput = float64(r.measured) / measureSpan.Seconds()
	}
	var util float64
	res.PerProcBusyTime = make([]float64, len(r.procs))
	for i := range r.procs {
		m := r.procs[i].util.Mean(float64(now))
		util += m
		res.PerProcBusyTime[i] = m * float64(now)
	}
	res.Utilization = util / float64(len(r.procs))
	res.Saturated = r.measured < r.p.MeasuredPackets ||
		res.QueueAtEnd > 20*r.p.Processors
	res.PerStreamDelay = make([]float64, len(r.perStream))
	for i := range r.perStream {
		res.PerStreamDelay[i] = r.perStream[i].Mean()
	}
	res.DelayFairness = JainIndex(res.PerStreamDelay)
	if r.tsink != nil {
		res.Trace = r.tsink.entries
	}
	if m := obs.FindMetrics(r.p.Recorder); m != nil {
		snap := m.Snapshot()
		res.Obs = &snap
	}
	return res
}

// JainIndex returns Jain's fairness index over per-stream mean delays:
// (Σx)² / (n·Σx²) — 1 when all streams see equal delay, → 1/n when one
// stream absorbs everything. Streams with no measured packets are
// excluded.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}
