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
)

// Machine is the dispatch state machine both execution backends drive.
// It owns every piece of a run's logical state — processors, stacks and
// queues, the shared-stack lock, dispatchers, statistics, recorders, the
// decision ledger and its override — and every transition on it:
// arrivals, fault events, gauge samples, service starts, lock grants
// and completions. A Backend owns only how time passes. The DES runner
// (runner.go) plays each service interval out as a pooled simulator
// event; the live backend (internal/live) plays it out on a worker
// goroutine against a virtual clock, calling into the machine under its
// dispatch mutex. Because there is one copy of the logic, the shared-
// stack lock included, the DES↔live differential harness compares two
// clocks, not two implementations (DESIGN.md §10).
//
// The machine is allocation-free in steady state: displacement marks
// are flat slices indexed by entity, every queue recycles its backing
// array, and a Service travels to the backend by value.
// TestRunnerSteadyStateZeroAllocs pins the disabled-recorder path at
// zero allocations per event.
type Machine struct {
	p    Params
	b    Backend
	exec *core.Exec // compiled model: bit-identical, transcendentals hoisted
	rate float64    // displacing references per µs of full-speed execution

	// topo is Params.Topology, but only when it can change a charge:
	// nil for the flat machine (no topology, or one whose transient
	// multipliers are all 1), so the topology-free path stays a single
	// nil compare and is bit-identical to the pre-topology runner.
	topo *topo.Topology

	// disp schedules streams' packets under Locking and ready stacks
	// (each as its head packet) under IPS and Hybrid.
	disp sched.PacketDispatcher

	procs      []procState
	stacks     []stackState
	overflow   sched.Queue // Hybrid: packets spilled to the shared path
	rng        *des.RNG    // Hybrid overflow placement
	lastProcOf []int       // entity → processor of previous completion, -1 unknown

	idleScratch []int // reused by idleProcs

	delays    *stats.BatchMeans
	delayAcc  stats.Accumulator
	delayHist *stats.Histogram
	perStream []stats.Accumulator
	service   stats.Accumulator
	queueing  stats.Accumulator
	lockWait  stats.Accumulator

	// The shared-stack lock (Locking and Hybrid overflow): held while a
	// critical section runs; lockQ holds the services that requested it
	// meanwhile, granted in request order.
	lockHeld bool
	lockQ    lockQueue

	warm       uint64
	coldStarts uint64
	migrations uint64
	spills     uint64
	measured   int
	arrivals   uint64

	// Fault injection: the active loss probability and its RNG stream
	// (created only when the plan has loss events, so every other
	// stream's published draws stay identical to a fault-free run's).
	lossProb float64
	lossRNG  *des.RNG
	dropped  uint64

	// rec is the effective recorder chain — the user's Params.Recorder
	// plus the TraceN adapter — or nil when both are disabled. Every
	// emission site is guarded by `m.rec != nil`, which keeps the
	// disabled path free of event construction (the zero-overhead
	// contract). emitted counts events published through it.
	rec     obs.Recorder
	tsink   *traceSink
	emitted uint64

	// Decision-ledger state: drec is Params.DecisionRecorder (every
	// decide call site is guarded by `m.drec != nil`), decisions counts
	// what was published, candScratch is the reused candidate buffer
	// (each Decision aliases it for the duration of RecordDecision) and
	// oneProc the reused single-candidate set for dispatch decisions.
	drec        obs.DecisionRecorder
	decisions   uint64
	candScratch []obs.Candidate
	oneProc     [1]int

	// Counterfactual replay state: over is Params.DecisionOverride
	// (call sites guard with `m.drec != nil || m.over != nil` so normal
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

// Backend is the clock and executor a Machine runs on. A concurrent
// backend serializes every call into the machine (and therefore every
// call the machine makes back) under one lock.
type Backend interface {
	Now() des.Time // the current instant
	Stop()         // end the run: the measurement target was reached
	Pending() int  // scheduled wake-ups, reported by the heap gauge
	Fired() uint64 // timer events fired so far, reported in Results

	// Serve plays out one interval on processor s.Proc: wait s.Dur,
	// then call Elapsed(s).
	Serve(s Service)
}

// Service is one priced interval of a packet's service on a processor,
// every charge already settled. A backend reads the exported fields and
// hands the value back to Elapsed as is.
type Service struct {
	Proc int
	Dur  des.Time

	phase   servicePhase
	crit    des.Time // critical section still to run (phaseHold only)
	pkt     sched.Packet
	exec    float64 // charged execution time (model + data touch)
	warmHit bool
	done    completionKind
}

// servicePhase says what happens when a Service's interval elapses. An
// unlocked service runs in one interval. A locked one runs in two: the
// hold ends in a request for the shared-stack lock, and the critical
// section, run once the lock is granted, ends in its release.
type servicePhase uint8

const (
	phaseRun  servicePhase = iota // complete
	phaseHold                     // request the lock
	phaseCrit                     // release the lock, then complete
)

// lockWaiter is a service queued on the shared-stack lock since the
// instant of its request.
type lockWaiter struct {
	s     Service
	since des.Time
}

// lockQueue is the lock's FIFO. It recycles its backing array: a pop
// advances the head index, the array resets to the front whenever the
// queue drains, and a push that finds it full slides the waiters to the
// front before growing it. The queue never holds more than one service
// per processor, so steady-state contention stops allocating.
type lockQueue struct {
	buf  []lockWaiter
	head int
}

func (q *lockQueue) push(w lockWaiter) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, w)
}

func (q *lockQueue) pop() (lockWaiter, bool) {
	if q.head == len(q.buf) {
		return lockWaiter{}, false
	}
	w := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return w, true
}

// completionKind selects the continuation run when a packet's service
// completes — an enum dispatched in complete, rather than a captured
// function value, so beginService stays allocation-free.
type completionKind uint8

const (
	compLocking completionKind = iota
	compOverflow
	compIPS
)

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

// stackState tracks one IPS stack: its packets (the head is in service
// while running), and whether it sits in the dispatcher's ready queue.
type stackState struct {
	q       sched.Queue
	running bool
	queued  bool
}

// traceSink adapts the recorder event stream back into the legacy
// Results.Trace format: it captures the first n ExecStart events,
// pairing each with the Dispatch event the machine emits immediately
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

// NewMachine builds the state machine for p, which must already have
// its defaults applied and be valid, running on backend b.
func NewMachine(p Params, b Backend) *Machine {
	entities := p.entityCount()
	m := &Machine{
		p:          p,
		b:          b,
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
		m.topo = t
	}
	if m.drec != nil {
		m.candScratch = make([]obs.Candidate, 0, p.Processors)
	}
	for i := range m.lastProcOf {
		m.lastProcOf[i] = -1
	}
	for i := range m.procs {
		m.procs[i].seen = make([]bool, entities)
		m.procs[i].markNP = make([]float64, entities)
		m.procs[i].markProto = make([]float64, entities)
		m.procs[i].util.Set(0, 0)
		m.procs[i].slow = 1
	}
	if p.Faults.HasLoss() {
		m.lossRNG = des.Stream(p.Seed, "fault-loss")
	}
	m.idleScratch = make([]int, 0, p.Processors)
	schedRNG := des.Stream(p.Seed, "sched")
	if p.Paradigm == Locking {
		m.disp = sched.NewPacketDispatcherFull(p.Policy, p.Processors, schedRNG, p.MRULookahead,
			sched.HashConfig{Rebalance: p.FDRebalance, Identity: p.HashIdentity},
			sched.StealConfig{StealParams: p.Steal, Now: b.Now})
	} else {
		m.disp = sched.NewStackDispatcher(p.Policy, p.Stacks, p.Processors, schedRNG, p.MRULookahead)
		m.stacks = make([]stackState, p.Stacks)
		if p.Paradigm == Hybrid {
			m.rng = des.Stream(p.Seed, "hybrid-overflow")
		}
	}
	if p.TraceN > 0 {
		m.tsink = &traceSink{n: p.TraceN}
	}
	if m.tsink != nil {
		m.rec = obs.Multi(p.Recorder, m.tsink)
	} else {
		m.rec = p.Recorder
	}
	return m
}

// emit publishes one event on the recorder chain; callers guard with
// m.rec != nil so the disabled path constructs nothing.
func (m *Machine) emit(e obs.Event) {
	m.emitted++
	m.rec.Record(e)
}

// decide publishes one dispatch decision: the chosen processor plus the
// candidate set considered, each with the warm/cold prediction and the
// execution cost the model would charge there right now. Costs come
// from the same pure functions beginService charges with, so recording
// reads machine state without touching it. Callers guard with
// m.drec != nil; the emitted Decision aliases candScratch, valid only
// for the duration of RecordDecision.
func (m *Machine) decide(point obs.DecisionPoint, pkt sched.Packet, cands []int, chosen int) {
	m.decisions++
	cs := m.candScratch[:0]
	best := math.Inf(1)
	chosenCost := 0.0
	for _, pc := range cands {
		x := m.xRefs(pkt.Entity, pc)
		texec, f1 := m.exec.ExecTimeF1(x)
		if m.topo != nil {
			texec = m.topoScaled(texec, pkt.Entity, pc)
		}
		cost := texec + m.p.DataTouch
		if s := m.procs[pc].slow; s != 1 {
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
	m.candScratch = cs
	m.drec.RecordDecision(obs.Decision{
		T: float64(m.b.Now()), Point: point, Seq: pkt.Seq,
		Stream: pkt.Stream, Entity: pkt.Entity,
		Chosen: chosen, Preferred: m.disp.PreferredProc(pkt.Entity),
		ChosenCost: chosenCost, BestCost: best, Candidates: cs,
	})
}

// chose settles one dispatch decision: the counterfactual override (if
// any) substitutes the choice first, then the ledger records what will
// actually run. The override's ordinal advances at every decision site
// whether or not a recorder is attached, so a replay run (override, no
// recorder) counts decisions exactly as the factual run's ledger
// numbered them. Callers guard with `m.drec != nil || m.over != nil`.
func (m *Machine) chose(point obs.DecisionPoint, pkt sched.Packet, cands []int, chosen int) int {
	if m.over != nil {
		forced := m.over(m.overIdx, point, cands, chosen)
		m.overIdx++
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
	if m.drec != nil {
		m.decide(point, pkt, cands, chosen)
	}
	return chosen
}

// choseDispatch settles the single-candidate decision a processor
// pulling queued work makes: the processor is fixed, the choice was
// which work to run, so an override cannot move it — but it still
// consumes an ordinal, keeping replay numbering aligned with the ledger.
func (m *Machine) choseDispatch(pkt sched.Packet, proc int) {
	m.oneProc[0] = proc
	m.chose(obs.PointDispatch, pkt, m.oneProc[:], proc)
}

// Sample publishes the periodic gauges. Backends call it every
// Params.SamplePeriod, and only when a user recorder is attached (a
// TraceN-only run should not burn timer events on samples nobody
// sees); it reads state without mutating it, so it cannot perturb the
// run.
func (m *Machine) Sample() {
	t := float64(m.b.Now())
	m.emit(obs.Event{T: t, Kind: obs.KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1,
		Val: float64(m.queuedPackets())})
	m.emit(obs.Event{T: t, Kind: obs.KindGaugeHeap, Proc: -1, Stream: -1, Entity: -1,
		Val: float64(m.b.Pending())})
	var dNP, dProto float64
	for i := range m.procs {
		dNP += m.procs[i].dispNP
		dProto += m.procs[i].dispProto
	}
	m.emit(obs.Event{T: t, Kind: obs.KindGaugeDispNP, Proc: -1, Stream: -1, Entity: -1, Val: dNP})
	m.emit(obs.Event{T: t, Kind: obs.KindGaugeDispProto, Proc: -1, Stream: -1, Entity: -1, Val: dProto})
	if m.p.Paradigm == Hybrid {
		m.emit(obs.Event{T: t, Kind: obs.KindGaugeOverflow, Proc: -1, Stream: -1, Entity: -1,
			Val: float64(m.overflow.Len())})
	}
}

// Fault applies one fault-plan event at the current instant.
func (m *Machine) Fault(ev faults.Event) {
	switch ev.Kind {
	case faults.ProcDown:
		m.procDown(ev.Proc)
	case faults.ProcUp:
		m.procUp(ev.Proc)
	case faults.Slowdown:
		m.procs[ev.Proc].slow = ev.Factor
	case faults.Loss:
		m.lossProb = ev.Prob
	case faults.Burst:
		if ev.Stream < 0 {
			for s := 0; s < m.p.Streams; s++ {
				for j := 0; j < ev.Count; j++ {
					m.Arrive(s)
				}
			}
			return
		}
		for j := 0; j < ev.Count; j++ {
			m.Arrive(ev.Stream)
		}
	}
}

// idleProcs returns the processors currently free of protocol work. The
// returned slice is the machine's scratch buffer, valid until the next
// call.
func (m *Machine) idleProcs() []int {
	idle := m.idleScratch[:0]
	for i := range m.procs {
		if !m.procs[i].busy && !m.procs[i].down {
			idle = append(idle, i)
		}
	}
	m.idleScratch = idle
	return idle
}

// Arrive admits one packet of the stream at the current instant.
func (m *Machine) Arrive(stream int) {
	m.arrivals++
	m.streamSeq[stream]++
	now := m.b.Now()
	pkt := sched.Packet{Stream: stream, Entity: m.p.entityOf(stream), Arrive: now,
		Seq: m.arrivals, StreamSeq: m.streamSeq[stream]}
	if m.rec != nil {
		m.emit(obs.Event{T: float64(now), Kind: obs.KindArrival,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
	if m.lossProb > 0 && m.lossRNG.Float64() < m.lossProb {
		m.drop(pkt, obs.DropReasonLoss)
		return
	}
	if m.p.Paradigm == Locking {
		if idle := m.idleProcs(); len(idle) > 0 {
			if proc := m.disp.PickProcessor(pkt, idle); proc >= 0 {
				if m.drec != nil || m.over != nil {
					proc = m.chose(obs.PointPlace, pkt, idle, proc)
				}
				m.beginService(pkt, proc, true, true, compLocking)
				return
			}
		}
		if m.p.MaxQueueDepth > 0 && m.disp.DepthFor(pkt) >= m.p.MaxQueueDepth {
			m.drop(pkt, obs.DropReasonQueue)
			return
		}
		m.enqueued(pkt)
		m.disp.Enqueue(pkt)
		return
	}
	// IPS / Hybrid: the packet joins its stack's queue; a newly ready
	// stack is placed on a processor or queued.
	k := pkt.Entity
	st := &m.stacks[k]
	if m.p.Paradigm == Hybrid && (st.running || st.queued) && st.q.Len() >= m.p.HybridOverflow {
		// The stack is backed up: spill to the shared locking path,
		// which any idle processor may serve concurrently.
		if idle := m.idleProcs(); len(idle) > 0 {
			m.spills++
			proc := idle[m.rng.Intn(len(idle))]
			if m.drec != nil || m.over != nil {
				proc = m.chose(obs.PointSpill, pkt, idle, proc)
			}
			if m.rec != nil {
				m.emit(obs.Event{T: float64(now), Kind: obs.KindSpill,
					Proc: proc, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
			}
			m.beginService(pkt, proc, true, true, compOverflow)
			return
		}
		if m.p.MaxQueueDepth > 0 && m.overflow.Len() >= m.p.MaxQueueDepth {
			m.drop(pkt, obs.DropReasonQueue)
			return
		}
		m.spills++
		if m.rec != nil {
			m.emit(obs.Event{T: float64(now), Kind: obs.KindSpill,
				Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
		m.enqueued(pkt)
		m.overflow.Push(pkt)
		return
	}
	if m.p.MaxQueueDepth > 0 {
		waiting := st.q.Len()
		if st.running {
			waiting-- // the head is in service, not waiting
		}
		if waiting >= m.p.MaxQueueDepth {
			m.drop(pkt, obs.DropReasonQueue)
			return
		}
	}
	st.q.Push(pkt)
	if st.running || st.queued {
		m.enqueued(pkt)
		return
	}
	// The stack was idle and unqueued, so the arriving packet is its head:
	// the packet the dispatcher places or queues stands for the stack.
	if idle := m.idleProcs(); len(idle) > 0 {
		if proc := m.disp.PickProcessor(pkt, idle); proc >= 0 {
			if m.drec != nil || m.over != nil {
				proc = m.chose(obs.PointPlace, pkt, idle, proc)
			}
			m.startStack(k, proc, true)
			return
		}
	}
	m.enqueued(pkt)
	st.queued = true
	m.disp.Enqueue(pkt)
}

// enqueued publishes the packet's enqueue event — it could not be
// served immediately and now waits in some queue.
func (m *Machine) enqueued(pkt sched.Packet) {
	if m.rec != nil {
		m.emit(obs.Event{T: float64(m.b.Now()), Kind: obs.KindEnqueue,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
}

// drop removes an arrived packet from the system unserved. Dropped
// packets stay in the conservation ledger: Arrivals = CompletedTotal +
// InFlightAtEnd + QueueAtEnd + Dropped.
func (m *Machine) drop(pkt sched.Packet, reason int) {
	m.dropped++
	if m.rec != nil {
		m.emit(obs.Event{T: float64(m.b.Now()), Kind: obs.KindDrop,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Val: float64(reason)})
	}
}

// procDown takes a processor out of service: the dispatcher re-homes
// entities bound to it, its in-flight packet (if any) drains and then
// the processor parks until procUp.
func (m *Machine) procDown(proc int) {
	ps := &m.procs[proc]
	if ps.down {
		return
	}
	now := m.b.Now()
	ps.down = true
	ps.downSince = now
	if m.rec != nil {
		m.emit(obs.Event{T: float64(now), Kind: obs.KindProcDown,
			Proc: proc, Stream: -1, Entity: -1})
	}
	m.disp.ProcDown(proc)
	// Re-homed work may be runnable on other processors right now.
	m.kickIdle()
}

// procUp returns a processor to service with a cold cache: whatever
// protocol state it held is gone, so every entity restarts cold here —
// the failback penalty the wired policies' re-homing must amortize.
func (m *Machine) procUp(proc int) {
	ps := &m.procs[proc]
	if !ps.down {
		return
	}
	now := m.b.Now()
	ps.down = false
	ps.downTime += float64(now - ps.downSince)
	for i := range ps.seen {
		ps.seen[i] = false
	}
	if m.rec != nil {
		m.emit(obs.Event{T: float64(now), Kind: obs.KindProcUp,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.downSince)})
	}
	m.disp.ProcUp(proc)
	m.kickIdle()
}

// kickIdle offers queued work to every live idle processor. The normal
// arrival/completion flow cannot see work that a fault transition moved
// between queues (or a parked processor left behind), so every
// transition ends with a kick — this is what guarantees no stream
// strands while at least one processor is up.
func (m *Machine) kickIdle() {
	for proc := range m.procs {
		ps := &m.procs[proc]
		if ps.busy || ps.down {
			continue
		}
		if m.p.Paradigm == Locking {
			if next, ok := m.disp.Dispatch(proc); ok {
				if m.drec != nil || m.over != nil {
					m.choseDispatch(next, proc)
				}
				m.beginService(next, proc, true, true, compLocking)
			}
			continue
		}
		m.startNextWork(proc, true)
	}
}

// topoScaled applies the topology's migration transient multiplier to a
// model-charged execution time: a packet whose entity last completed on
// a different core pays t_warm + scale·(T(x) − t_warm), where scale
// depends on whether the migration crosses a socket. The warm floor
// never scales — it is a property of the code path, not of where the
// stale state lives — and an entity's very first run anywhere has no
// state to fetch, so it pays the plain cold charge. Callers guard with
// m.topo != nil (nil whenever no multiplier differs from 1), keeping
// the flat machine bit-identical to the topology-free runner.
func (m *Machine) topoScaled(texec float64, entity, proc int) float64 {
	if last := m.lastProcOf[entity]; last >= 0 && last != proc {
		if s := m.topo.TransientScale(last, proc); s != 1 {
			w := m.exec.Warm()
			texec = w + s*(texec-w)
		}
	}
	return texec
}

// xRefs returns the displacing references entity e has suffered on proc
// since it last completed there, or +Inf if it never ran there.
func (m *Machine) xRefs(e, proc int) float64 {
	ps := &m.procs[proc]
	if !ps.seen[e] {
		return math.Inf(1)
	}
	dNP := ps.dispNP - ps.markNP[e]
	dProto := ps.dispProto - ps.markProto[e]
	return dNP + (1-m.p.CodeSharedFrac)*dProto
}

// beginService runs pkt on proc. fromIdle marks a processor that was
// running the background workload (its idle displacement is settled and
// the preemption cost applies). locked selects the shared-stack path,
// which pays the lock overhead and serializes its critical section; done
// selects the completion continuation. The priced interval goes to the
// backend, which calls Elapsed when it has played out.
func (m *Machine) beginService(pkt sched.Packet, proc int, fromIdle, locked bool, done completionKind) {
	now := m.b.Now()
	ps := &m.procs[proc]
	if ps.busy && fromIdle {
		panic("sim: placed packet on busy processor")
	}
	if ps.down {
		panic("sim: placed packet on down processor")
	}
	preempt := 0.0
	if fromIdle {
		// Settle the idle period's background displacement.
		ps.dispNP += m.p.Background.Intensity * m.rate * float64(now-ps.idleSince)
		ps.busy = true
		ps.busySince = now
		ps.util.Set(float64(now), 1)
		if m.rec != nil {
			m.emit(obs.Event{T: float64(now), Kind: obs.KindProcBusy,
				Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.idleSince)})
		}
		if m.p.Background.Intensity > 0 {
			preempt = m.p.Background.PreemptCost
		}
	}

	x := m.xRefs(pkt.Entity, proc)
	texec, f1 := m.exec.ExecTimeF1(x)
	if m.topo != nil {
		texec = m.topoScaled(texec, pkt.Entity, proc)
	}
	exec := texec + m.p.DataTouch
	if ps.slow != 1 {
		// Transient slow-down fault: scale the charged execution. Guarded
		// so fault-free runs multiply nothing and stay bit-identical.
		exec *= ps.slow
	}
	cold := math.IsInf(x, 1)
	if cold {
		m.coldStarts++
	}
	// Warm hits are counted at completion (complete), alongside the
	// service accumulator that forms WarmFraction's denominator, so
	// packets still in flight when the run stops never enter the ratio.
	warmHit := !cold && f1 < 0.5
	migrated := false
	if last := m.lastProcOf[pkt.Entity]; last >= 0 && last != proc {
		m.migrations++
		migrated = true
	}
	m.queueing.Add(float64(now - pkt.Arrive))
	if m.rec != nil {
		t := float64(now)
		m.emit(obs.Event{T: t, Kind: obs.KindDispatch, Proc: proc,
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
		m.emit(obs.Event{T: t, Kind: obs.KindExecStart, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Dur: exec, Val: x, Flags: flags})
		if cold {
			m.emit(obs.Event{T: t, Kind: obs.KindColdStart, Proc: proc,
				Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
		if migrated {
			m.emit(obs.Event{T: t, Kind: obs.KindMigration, Proc: proc,
				Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
	}

	s := Service{Proc: proc, pkt: pkt, exec: exec, warmHit: warmHit, done: done}
	if locked {
		s.phase = phaseHold
		s.Dur = des.Time(preempt + m.p.LockOverhead + (1-m.p.LockCritFrac)*exec)
		s.crit = des.Time(m.p.LockCritFrac * exec)
	} else {
		s.Dur = des.Time(preempt + exec)
	}
	m.b.Serve(s)
}

// Elapsed advances a service whose interval the backend has played
// out. A hold ends in a lock request: a free lock is granted at once,
// with a wait of zero and no extra interval, and a held one queues the
// service. A critical section ends in a release, which grants the
// oldest waiter before the releasing packet completes.
func (m *Machine) Elapsed(s Service) {
	switch s.phase {
	case phaseHold:
		s.phase, s.Dur = phaseCrit, s.crit
		if m.lockHeld {
			m.lockQ.push(lockWaiter{s: s, since: m.b.Now()})
			return
		}
		m.lockHeld = true
		m.lockWait.Add(0)
		m.b.Serve(s)
	case phaseCrit:
		if w, ok := m.lockQ.pop(); ok {
			m.lockWait.Add(float64(m.b.Now() - w.since))
			m.b.Serve(w.s)
		} else {
			m.lockHeld = false
		}
		m.complete(s)
	default:
		m.complete(s)
	}
}

// complete settles a played-out service — the warm-hit count,
// displacement marks, affinity and delay statistics — and runs the
// paradigm's continuation, which may hand the processor its next
// Service.
func (m *Machine) complete(s Service) {
	// The protocol execution that displaces other footprints: the spin
	// wait is excluded, the lock overhead is not.
	protoExec := s.exec
	if s.phase == phaseCrit {
		protoExec += m.p.LockOverhead
	}
	if s.warmHit {
		m.warm++
	}
	switch s.done {
	case compLocking:
		m.completeLocking(s.pkt, s.Proc, protoExec)
	case compOverflow:
		m.completeOverflow(s.pkt, s.Proc, protoExec)
	default:
		m.completeIPS(s.pkt, s.Proc, protoExec)
	}
}

// settleCompletion updates displacement marks, affinity state and delay
// statistics common to both paradigms. protoExec is the protocol
// execution time that displaces other footprints (spin wait excluded).
func (m *Machine) settleCompletion(pkt sched.Packet, proc int, protoExec float64) {
	now := m.b.Now()
	ps := &m.procs[proc]
	ps.dispProto += m.rate * protoExec
	ps.seen[pkt.Entity] = true
	ps.markNP[pkt.Entity] = ps.dispNP
	ps.markProto[pkt.Entity] = ps.dispProto
	m.lastProcOf[pkt.Entity] = proc
	if !ps.down {
		// A completion draining off a failed processor must not refresh
		// affinity: its cache is lost at recovery, and ThreadPools would
		// otherwise migrate the stream's home onto the dead processor.
		m.disp.RanOn(pkt.Entity, proc)
	}
	m.service.Add(protoExec)
	if m.rec != nil {
		m.emit(obs.Event{T: float64(now), Kind: obs.KindExecEnd, Proc: proc,
			Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq, Dur: protoExec})
	}

	// Reordering: a completion below its stream's watermark finished
	// after a later arrival of the same stream already did. Distance is
	// measured in the stream's own arrival numbering.
	if pkt.StreamSeq > m.streamMaxDone[pkt.Stream] {
		m.streamMaxDone[pkt.Stream] = pkt.StreamSeq
	} else {
		m.reordered++
		if m.streamReordered == nil {
			m.streamReordered = make(map[int]uint64)
		}
		m.streamReordered[pkt.Stream]++
		if d := m.streamMaxDone[pkt.Stream] - pkt.StreamSeq; d > m.maxReorderDist {
			m.maxReorderDist = d
		}
	}

	if pkt.Arrive >= m.p.Warmup {
		delay := float64(now - pkt.Arrive)
		m.delays.Add(delay)
		m.delayAcc.Add(delay)
		m.delayHist.Add(delay)
		m.perStream[pkt.Stream].Add(delay)
		m.measured++
		if m.measured >= m.p.MeasuredPackets {
			if m.p.TargetRelCI <= 0 ||
				m.delays.RelativeHalfWidth() <= m.p.TargetRelCI {
				m.b.Stop()
			}
		}
	}
}

// goIdle marks a processor idle and lets the background workload resume.
func (m *Machine) goIdle(proc int) {
	now := m.b.Now()
	ps := &m.procs[proc]
	ps.busy = false
	ps.idleSince = now
	ps.util.Set(float64(now), 0)
	if m.rec != nil {
		m.emit(obs.Event{T: float64(now), Kind: obs.KindProcIdle,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.busySince)})
	}
}

func (m *Machine) completeLocking(pkt sched.Packet, proc int, protoExec float64) {
	m.settleCompletion(pkt, proc, protoExec)
	if m.procs[proc].down {
		// The drain is complete: park, and let live processors pick up
		// anything that queued behind this one.
		m.goIdle(proc)
		m.kickIdle()
		return
	}
	if next, ok := m.disp.Dispatch(proc); ok {
		if m.drec != nil || m.over != nil {
			m.choseDispatch(next, proc)
		}
		m.beginService(next, proc, false, true, compLocking)
		return
	}
	m.goIdle(proc)
}

// completeOverflow finishes a Hybrid spilled packet and picks the
// processor's next work: a ready stack first (affinity), then another
// spilled packet.
func (m *Machine) completeOverflow(pkt sched.Packet, proc int, protoExec float64) {
	m.settleCompletion(pkt, proc, protoExec)
	if m.procs[proc].down {
		m.goIdle(proc)
		m.kickIdle()
		return
	}
	if !m.startNextWork(proc, false) {
		m.goIdle(proc)
	}
}

// startNextStack starts the next ready stack the dispatcher offers proc,
// reporting whether there was one.
func (m *Machine) startNextStack(proc int, fromIdle bool) bool {
	next, ok := m.disp.Dispatch(proc)
	if !ok {
		return false
	}
	if m.drec != nil || m.over != nil {
		m.choseDispatch(next, proc)
	}
	m.startStack(next.Entity, proc, fromIdle)
	return true
}

// startNextWork starts proc's next IPS or Hybrid work item — a ready
// stack first (affinity), then a spilled packet (only Hybrid spills) —
// reporting whether there was one.
func (m *Machine) startNextWork(proc int, fromIdle bool) bool {
	if m.startNextStack(proc, fromIdle) {
		return true
	}
	pkt, ok := m.overflow.Pop()
	if !ok {
		return false
	}
	if m.drec != nil || m.over != nil {
		m.choseDispatch(pkt, proc)
	}
	m.beginService(pkt, proc, fromIdle, true, compOverflow)
	return true
}

func (m *Machine) completeIPS(pkt sched.Packet, proc int, protoExec float64) {
	m.settleCompletion(pkt, proc, protoExec)
	st := &m.stacks[pkt.Entity]
	st.q.Pop()
	head, more := st.q.Peek()
	if m.procs[proc].down {
		// The drain is complete: the stack rejoins the ready queue (its
		// new wire after re-homing) if it still has work, and the
		// processor parks.
		st.running = false
		if more {
			st.queued = true
			m.disp.Enqueue(head)
		}
		m.goIdle(proc)
		m.kickIdle()
		return
	}
	if more {
		// The stack still has work, but packet-level fairness applies:
		// if another ready stack is waiting for this processor, yield
		// to it and rejoin the ready queue; otherwise keep running.
		if m.startNextStack(proc, false) {
			st.running = false
			st.queued = true
			m.disp.Enqueue(head)
			return
		}
		// Continuing the same stack on the same processor is not a
		// decision: there was no alternative to weigh.
		m.beginService(head, proc, false, false, compIPS)
		return
	}
	st.running = false
	if !m.startNextWork(proc, false) {
		m.goIdle(proc)
	}
}

func (m *Machine) startStack(k, proc int, fromIdle bool) {
	st := &m.stacks[k]
	head, ok := st.q.Peek()
	if !ok {
		panic("sim: started an empty stack")
	}
	st.running = true
	st.queued = false
	m.beginService(head, proc, fromIdle, false, compIPS)
}

func (m *Machine) queuedPackets() int {
	if m.p.Paradigm == Locking {
		return m.disp.Queued()
	}
	n := m.overflow.Len()
	for i := range m.stacks {
		q := m.stacks[i].q.Len()
		if m.stacks[i].running && q > 0 {
			q-- // the head is in service, not waiting
		}
		n += q
	}
	return n
}

// inFlight returns the number of packets in service right now: every
// busy processor serves exactly one packet.
func (m *Machine) inFlight() int {
	n := 0
	for i := range m.procs {
		if m.procs[i].busy {
			n++
		}
	}
	return n
}

// Results assembles the run's metrics at the current instant. Call it
// once the backend has stopped driving the machine.
func (m *Machine) Results() Results {
	now := m.b.Now()
	measureSpan := now - m.p.Warmup
	offered := float64(m.p.Streams) * m.p.Arrival.Rate()
	if m.p.ArrivalPerStream != nil {
		offered = 0
		for _, spec := range m.p.ArrivalPerStream {
			offered += spec.Rate()
		}
	}
	res := Results{
		Paradigm:       m.p.Paradigm.String(),
		Policy:         m.p.Policy.String(),
		OfferedRate:    offered,
		Completed:      uint64(m.measured),
		CompletedTotal: m.service.N(),
		Arrivals:       m.arrivals,
		MeanDelay:      m.delayAcc.Mean(),
		DelayCI:        m.delays.HalfWidth(),
		MaxDelay:       m.delayAcc.Max(),
		MeanService:    m.service.Mean(),
		MeanQueueing:   m.queueing.Mean(),
		MeanLockWait:   m.lockWait.Mean(),
		ColdStarts:     m.coldStarts,
		Migrations:     m.migrations,
		Spills:         m.spills,
		QueueAtEnd:     m.queuedPackets(),
		InFlightAtEnd:  m.inFlight(),
		SimTime:        now,

		EventsFired:       m.b.Fired(),
		RecorderEvents:    m.emitted,
		DecisionsRecorded: m.decisions,

		ReorderedTotal:     m.reordered,
		MaxReorderDistance: m.maxReorderDist,
		PerStreamReordered: m.streamReordered, // machine-owned; nil when in order
	}
	res.P95Delay, res.P95Clamped = m.delayHist.QuantileClamped(0.95)
	res.DelayOverflow = m.delayHist.OverflowFraction()
	res.Dropped = m.dropped
	if m.arrivals > 0 {
		res.DropFraction = float64(m.dropped) / float64(m.arrivals)
	}
	if now > 0 {
		res.GoodputPPS = float64(m.service.N()) / now.Seconds()
	}
	if !m.p.Faults.Empty() {
		res.PerProcDownTime = make([]float64, len(m.procs))
		for i := range m.procs {
			dt := m.procs[i].downTime
			if m.procs[i].down {
				dt += float64(now - m.procs[i].downSince)
			}
			res.PerProcDownTime[i] = dt
		}
	}
	res.AffinityHits, res.Placements = m.disp.AffinityStats()
	if total := m.service.N(); total > 0 {
		res.WarmFraction = float64(m.warm) / float64(total)
	}
	if measureSpan > 0 && m.measured > 0 {
		res.Throughput = float64(m.measured) / measureSpan.Seconds()
	}
	var util float64
	res.PerProcBusyTime = make([]float64, len(m.procs))
	for i := range m.procs {
		u := m.procs[i].util.Mean(float64(now))
		util += u
		res.PerProcBusyTime[i] = u * float64(now)
	}
	res.Utilization = util / float64(len(m.procs))
	res.Saturated = m.measured < m.p.MeasuredPackets ||
		res.QueueAtEnd > 20*m.p.Processors
	res.PerStreamDelay = make([]float64, len(m.perStream))
	for i := range m.perStream {
		res.PerStreamDelay[i] = m.perStream[i].Mean()
	}
	res.DelayFairness = jainIndex(res.PerStreamDelay)
	if m.tsink != nil {
		res.Trace = m.tsink.entries
	}
	if mt := obs.FindMetrics(m.p.Recorder); mt != nil {
		snap := mt.Snapshot()
		res.Obs = &snap
	}
	return res
}

// jainIndex returns Jain's fairness index over per-stream mean delays:
// (Σx)² / (n·Σx²) — 1 when all streams see equal delay, → 1/n when one
// stream absorbs everything. Streams with no measured packets are
// excluded.
func jainIndex(xs []float64) float64 {
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
