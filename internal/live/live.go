package live

import (
	"math"
	"sync"

	"affinity/internal/core"
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/obs"
	"affinity/internal/sched"
	"affinity/internal/sim"
	"affinity/internal/stats"
	"affinity/internal/topo"
	"affinity/internal/traffic"
)

// Run executes one live (goroutine-backed) run of the configuration and
// returns its metrics in the same sim.Results shape the DES produces.
// Arrival processes draw from the same seed-derived RNG streams as the
// DES, so both backends see identical arrival sequences; scheduling
// decisions, however, happen under a real lock contended by real
// workers, so per-run results are statistically — not bit — equal to
// the DES (see the package comment and DESIGN.md §10).
func Run(p sim.Params) sim.Results {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := newLive(p)
	r.run()
	return r.results()
}

// entityCount / entityOf mirror the sim package's footprint-entity
// mapping: streams are the entities under Locking, stacks under
// IPS/Hybrid.
func entityCount(p sim.Params) int {
	if p.Paradigm == sim.IPS || p.Paradigm == sim.Hybrid {
		return p.Stacks
	}
	return p.Streams
}

func entityOf(p sim.Params, stream int) int {
	if p.Paradigm == sim.IPS || p.Paradigm == sim.Hybrid {
		return stream % p.Stacks
	}
	return stream
}

// procLive is one worker's processor state. Displacement counters,
// occupancy and fault state are all guarded by live.mu — the worker
// goroutine touches them only while holding the dispatch lock, never
// while sleeping on the virtual clock.
type procLive struct {
	busy      bool
	idleSince des.Time
	busySince des.Time
	dispNP    float64
	dispProto float64
	seen      []bool
	markNP    []float64
	markProto []float64
	util      stats.TimeWeighted

	down      bool
	downSince des.Time
	downTime  float64
	slow      float64
}

// stackLive is one IPS stack.
type stackLive struct {
	q       []sched.Packet
	running bool
	queued  bool
}

// completion continuation selectors, mirroring the DES runner's enum.
const (
	compLocking = iota
	compOverflow
	compIPS
)

// task is one packet hand-off to a worker: everything bound at
// beginService time that the worker needs to play out the service
// interval on the virtual clock.
type task struct {
	pkt     sched.Packet
	exec    float64
	preempt float64
	warmHit bool
	locked  bool
	done    int
}

// live is one run's shared state. mu is the dispatch lock — the live
// analogue of the queue lock a real parallel dispatcher serializes its
// scheduling decisions under. Everything logical (dispatcher state,
// queues, displacement counters, statistics, recorder emissions)
// mutates under mu at a fixed virtual instant; the real concurrency is
// in the workers racing for mu and playing out their service intervals
// on the clock in parallel.
type live struct {
	p     sim.Params
	clk   *clock
	model *core.Model
	exec  *core.Exec
	rate  float64

	// topo is Params.Topology when it can change a charge (some
	// transient multiplier ≠ 1); nil for the flat machine, mirroring
	// the DES runner's guard exactly.
	topo *topo.Topology

	mu sync.Mutex // the dispatch/queue lock

	disp  sched.PacketDispatcher
	sdisp sched.StackDispatcher

	// Virtual shared-stack lock (Locking & Hybrid overflow path): FIFO
	// grant order like des.Resource, waiters parked on the clock.
	lockHeld bool
	lockQ    []chan struct{}

	procs      []procLive
	stacks     []stackLive
	overflow   []sched.Packet
	rng        *des.RNG // Hybrid overflow placement
	lastProcOf []int

	workCh      []chan task
	idleScratch []int

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

	lossProb float64
	lossRNG  *des.RNG
	dropped  uint64

	rec     obs.Recorder
	tsink   *traceSink
	emitted uint64

	// Decision-ledger state, mirroring the DES runner: drec is
	// Params.DecisionRecorder (decide call sites guard with
	// `r.drec != nil`), decisions counts what was published, candScratch
	// is the reused candidate buffer and oneProc the reused
	// single-candidate set. All mutate under mu.
	drec        obs.DecisionRecorder
	decisions   uint64
	candScratch []obs.Candidate
	oneProc     [1]int

	// Per-stream reordering state (see the DES runner): counters always
	// run, so Results carries the metric with or without recorders.
	// streamReordered is sparse — created at the first reordered
	// completion, nil on in-order runs — matching the DES runner so the
	// backends' Results stay comparable.
	streamSeq       []uint64
	streamMaxDone   []uint64
	streamReordered map[int]uint64
	reordered       uint64
	maxReorderDist  uint64

	wg sync.WaitGroup
}

// traceSink adapts the recorder stream into Results.Trace, pairing each
// ExecStart with the Dispatch emitted just before it (same packet, same
// instant) — the same adapter the DES runner uses.
type traceSink struct {
	n       int
	wait    float64
	waitSeq uint64
	entries []sim.TraceEntry
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
		t.entries = append(t.entries, sim.TraceEntry{
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

func newLive(p sim.Params) *live {
	if p.DecisionOverride != nil {
		// Counterfactual replay needs the DES's bit determinism: worker
		// interleaving would make the live decision ordinals drift from
		// the ledger they were recorded against.
		panic("live: Params.DecisionOverride is DES-only")
	}
	entities := entityCount(p)
	r := &live{
		p:          p,
		clk:        newClock(p.MaxTime),
		model:      p.Model,
		exec:       p.Model.Compile(),
		rate:       p.Model.Platform.RefsPerMicrosecond(),
		procs:      make([]procLive, p.Processors),
		lastProcOf: make([]int, entities),
		workCh:     make([]chan task, p.Processors),
		delays:     stats.NewBatchMeans(p.BatchSize),
		delayHist:  stats.NewHistogram(0, 100_000, 10_000),
		perStream:  make([]stats.Accumulator, p.Streams),

		drec:          p.DecisionRecorder,
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
		r.workCh[i] = make(chan task, 1)
	}
	if p.Faults.HasLoss() {
		r.lossRNG = des.Stream(p.Seed, "fault-loss")
	}
	r.idleScratch = make([]int, 0, p.Processors)
	schedRNG := des.Stream(p.Seed, "sched")
	if p.Paradigm == sim.Locking {
		r.disp = sched.NewPacketDispatcherFull(p.Policy, p.Processors, schedRNG, p.MRULookahead,
			sched.HashConfig{Rebalance: p.FDRebalance, Identity: p.HashIdentity},
			sched.StealConfig{StealParams: p.Steal, Now: r.clk.Now})
	} else {
		r.sdisp = sched.NewStackDispatcherLookahead(p.Policy, p.Stacks, p.Processors, schedRNG, p.MRULookahead)
		r.stacks = make([]stackLive, p.Stacks)
		if p.Paradigm == sim.Hybrid {
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

// emit publishes one event; callers hold r.mu (which serializes the
// recorder chain) and guard with r.rec != nil.
func (r *live) emit(e obs.Event) {
	r.emitted++
	r.rec.Record(e)
}

// decide publishes one dispatch decision — the DES runner's decide under
// the dispatch lock at the current virtual instant. Costs come from the
// same pure model functions begin charges with, so recording reads state
// without touching it. Callers hold r.mu and guard with r.drec != nil;
// the emitted Decision aliases candScratch, valid only for the duration
// of RecordDecision.
func (r *live) decide(point obs.DecisionPoint, pkt sched.Packet, cands []int, chosen int) {
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
	if r.p.Paradigm == sim.Locking {
		preferred = r.disp.PreferredProc(pkt.Entity)
	} else {
		preferred = r.sdisp.PreferredProc(pkt.Entity)
	}
	r.drec.RecordDecision(obs.Decision{
		T: float64(r.clk.Now()), Point: point, Seq: pkt.Seq,
		Stream: pkt.Stream, Entity: pkt.Entity,
		Chosen: chosen, Preferred: preferred,
		ChosenCost: chosenCost, BestCost: best, Candidates: cs,
	})
}

// decideDispatch publishes the single-candidate decision a processor
// pulling queued work makes (see the DES runner).
func (r *live) decideDispatch(pkt sched.Packet, proc int) {
	r.oneProc[0] = proc
	r.decide(obs.PointDispatch, pkt, r.oneProc[:], proc)
}

// run spawns the whole cast — one worker per processor, one arrival
// source per stream, the fault injector and the gauge sampler — and
// blocks until the run stops (measurement target, horizon, or
// quiescence) and every goroutine has unwound.
func (r *live) run() {
	n := r.p.Processors
	evs := []faults.Event(nil)
	if !r.p.Faults.Empty() {
		evs = r.p.Faults.Sorted()
		n++
	}
	if r.p.Recorder != nil {
		n++
	}
	// Draw every stream's first gap and pre-register its keyed sleeper
	// here, in stream order, before anything runs: exactly how the DES
	// runner seeds its event heap, and the base case of the keyed-sleeper
	// ordering (see clock.go) that makes same-instant arrivals fire in
	// the DES's deterministic order. The sources start life asleep, so
	// they are never counted in the runnable spawn below.
	type armedArrival struct {
		proc  traffic.Process
		batch int
		first chan struct{}
	}
	arr := make([]armedArrival, r.p.Streams)
	for s := 0; s < r.p.Streams; s++ {
		spec := r.p.Arrival
		if r.p.ArrivalPerStream != nil {
			spec = r.p.ArrivalPerStream[s]
		}
		proc := spec.Build(des.ArrivalStream(r.p.Seed, s))
		d, b := proc.Next()
		arr[s] = armedArrival{proc: proc, batch: b, first: r.clk.preSleep(d)}
	}
	r.clk.spawn(n)
	r.wg.Add(n + r.p.Streams)
	for proc := 0; proc < r.p.Processors; proc++ {
		go r.worker(proc)
	}
	for s := 0; s < r.p.Streams; s++ {
		go r.arrivalLoop(s, arr[s].proc, arr[s].batch, arr[s].first)
	}
	if evs != nil {
		go r.faultLoop(evs)
	}
	if r.p.Recorder != nil {
		go r.gaugeLoop()
	}
	r.wg.Wait()
}

// arrivalLoop drives one stream: deliver the pending batch under the
// dispatch lock, draw the next gap, sleep it on the virtual clock — the
// same draw-then-deliver cycle as the DES arrival source, on the same
// seed-derived stream, so both backends see identical arrivals. The
// sleeps are keyed (serialized, deterministically ordered at virtual-
// time ties); the first was pre-registered by run() in stream order.
func (r *live) arrivalLoop(stream int, proc traffic.Process, batch int, first chan struct{}) {
	defer r.wg.Done()
	// Until the pre-registered first sleep releases, this source is a
	// sleeper, not a runnable: a run that stops first just unwinds with
	// no exit accounting.
	select {
	case <-first:
	case <-r.clk.stopCh:
		return
	}
	defer r.clk.exit()
	for {
		r.mu.Lock()
		for j := 0; j < batch; j++ {
			r.arrive(stream)
		}
		r.mu.Unlock()
		var d des.Time
		d, batch = proc.Next()
		if !r.clk.sleepKeyed(d) {
			return
		}
	}
}

// faultLoop plays the deterministic fault plan against the virtual
// clock, applying each event under the dispatch lock.
func (r *live) faultLoop(evs []faults.Event) {
	defer r.wg.Done()
	defer r.clk.exit()
	for _, ev := range evs {
		if !r.clk.sleepUntil(ev.At) {
			return
		}
		r.mu.Lock()
		switch ev.Kind {
		case faults.ProcDown:
			r.procDown(ev.Proc)
		case faults.ProcUp:
			r.procUp(ev.Proc)
		case faults.Slowdown:
			r.procs[ev.Proc].slow = ev.Factor
		case faults.Loss:
			r.lossProb = ev.Prob
		case faults.Burst:
			if ev.Stream < 0 {
				for s := 0; s < r.p.Streams; s++ {
					for j := 0; j < ev.Count; j++ {
						r.arrive(s)
					}
				}
			} else {
				for j := 0; j < ev.Count; j++ {
					r.arrive(ev.Stream)
				}
			}
		}
		r.mu.Unlock()
	}
}

// gaugeLoop publishes the periodic gauges; it runs only when a user
// recorder is attached, like the DES sampler.
func (r *live) gaugeLoop() {
	defer r.wg.Done()
	defer r.clk.exit()
	for {
		if !r.clk.sleep(r.p.SamplePeriod) {
			return
		}
		r.mu.Lock()
		t := float64(r.clk.Now())
		r.emit(obs.Event{T: t, Kind: obs.KindGaugeQueue, Proc: -1, Stream: -1, Entity: -1,
			Val: float64(r.queuedPackets())})
		r.emit(obs.Event{T: t, Kind: obs.KindGaugeHeap, Proc: -1, Stream: -1, Entity: -1,
			Val: float64(r.clk.Pending())})
		var dNP, dProto float64
		for i := range r.procs {
			dNP += r.procs[i].dispNP
			dProto += r.procs[i].dispProto
		}
		r.emit(obs.Event{T: t, Kind: obs.KindGaugeDispNP, Proc: -1, Stream: -1, Entity: -1, Val: dNP})
		r.emit(obs.Event{T: t, Kind: obs.KindGaugeDispProto, Proc: -1, Stream: -1, Entity: -1, Val: dProto})
		if r.p.Paradigm == sim.Hybrid {
			r.emit(obs.Event{T: t, Kind: obs.KindGaugeOverflow, Proc: -1, Stream: -1, Entity: -1,
				Val: float64(len(r.overflow))})
		}
		r.mu.Unlock()
	}
}

// worker is one simulated processor: it parks until a packet is handed
// to it, plays out the service interval (and the shared-stack lock's
// critical section, under Locking) on the virtual clock, then completes
// the packet under the dispatch lock and picks its next work.
func (r *live) worker(proc int) {
	defer r.wg.Done()
	defer r.clk.exit()
	for {
		tk, ok := parkRecv(r.clk, r.workCh[proc])
		if !ok {
			return
		}
		if tk.locked {
			nonCrit := tk.preempt + r.p.LockOverhead + (1-r.p.LockCritFrac)*tk.exec
			if !r.clk.sleep(des.Time(nonCrit)) {
				return
			}
			waitStart := r.clk.Now()
			if !r.lockAcquire() {
				return
			}
			r.mu.Lock()
			r.lockWait.Add(float64(r.clk.Now() - waitStart))
			r.mu.Unlock()
			if !r.clk.sleep(des.Time(r.p.LockCritFrac * tk.exec)) {
				return
			}
			r.lockRelease()
			r.complete(tk, proc, tk.exec+r.p.LockOverhead)
		} else {
			if !r.clk.sleep(des.Time(tk.preempt + tk.exec)) {
				return
			}
			r.complete(tk, proc, tk.exec)
		}
	}
}

// lockAcquire takes the virtual shared-stack lock, parking on the clock
// behind earlier requesters; grants are FIFO like des.Resource. Returns
// false when the run stopped while waiting.
func (r *live) lockAcquire() bool {
	r.mu.Lock()
	if !r.lockHeld {
		r.lockHeld = true
		r.mu.Unlock()
		return true
	}
	ch := make(chan struct{}, 1)
	r.lockQ = append(r.lockQ, ch)
	r.mu.Unlock()
	_, ok := parkRecv(r.clk, ch)
	return ok
}

// lockRelease hands the virtual lock to the oldest waiter, or frees it.
func (r *live) lockRelease() {
	r.mu.Lock()
	if len(r.lockQ) > 0 {
		ch := r.lockQ[0]
		r.lockQ = r.lockQ[1:]
		r.clk.wake()
		r.mu.Unlock()
		ch <- struct{}{}
		return
	}
	r.lockHeld = false
	r.mu.Unlock()
}

// idleProcs returns the processors currently free of protocol work;
// callers hold r.mu. The slice is scratch, valid until the next call.
func (r *live) idleProcs() []int {
	idle := r.idleScratch[:0]
	for i := range r.procs {
		if !r.procs[i].busy && !r.procs[i].down {
			idle = append(idle, i)
		}
	}
	r.idleScratch = idle
	return idle
}

// arrive admits one packet; callers hold r.mu. The logic is the DES
// runner's arrive, with beginService hand-offs going to real workers.
func (r *live) arrive(stream int) {
	r.arrivals++
	r.streamSeq[stream]++
	now := r.clk.Now()
	pkt := sched.Packet{Stream: stream, Entity: entityOf(r.p, stream), Arrive: now,
		Seq: r.arrivals, StreamSeq: r.streamSeq[stream]}
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindArrival,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
	if r.lossProb > 0 && r.lossRNG.Float64() < r.lossProb {
		r.drop(pkt, obs.DropReasonLoss)
		return
	}
	if r.p.Paradigm == sim.Locking {
		if idle := r.idleProcs(); len(idle) > 0 {
			if proc := r.disp.PickProcessor(pkt, idle); proc >= 0 {
				if r.drec != nil {
					r.decide(obs.PointPlace, pkt, idle, proc)
				}
				r.begin(pkt, proc, true, true, compLocking)
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
	k := pkt.Entity
	st := &r.stacks[k]
	if r.p.Paradigm == sim.Hybrid && (st.running || st.queued) && len(st.q) >= r.p.HybridOverflow {
		if idle := r.idleProcs(); len(idle) > 0 {
			r.spills++
			proc := idle[r.rng.Intn(len(idle))]
			if r.rec != nil {
				r.emit(obs.Event{T: float64(now), Kind: obs.KindSpill,
					Proc: proc, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
			}
			if r.drec != nil {
				r.decide(obs.PointSpill, pkt, idle, proc)
			}
			r.begin(pkt, proc, true, true, compOverflow)
			return
		}
		if r.p.MaxQueueDepth > 0 && len(r.overflow) >= r.p.MaxQueueDepth {
			r.drop(pkt, obs.DropReasonQueue)
			return
		}
		r.spills++
		if r.rec != nil {
			r.emit(obs.Event{T: float64(now), Kind: obs.KindSpill,
				Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
		}
		r.enqueued(pkt)
		r.overflow = append(r.overflow, pkt)
		return
	}
	if r.p.MaxQueueDepth > 0 {
		waiting := len(st.q)
		if st.running {
			waiting--
		}
		if waiting >= r.p.MaxQueueDepth {
			r.drop(pkt, obs.DropReasonQueue)
			return
		}
	}
	st.q = append(st.q, pkt)
	if st.running || st.queued {
		r.enqueued(pkt)
		return
	}
	if idle := r.idleProcs(); len(idle) > 0 {
		if proc := r.sdisp.PickProcessor(k, idle); proc >= 0 {
			if r.drec != nil {
				// The stack was idle and unqueued, so the arriving packet
				// is the one this placement runs.
				r.decide(obs.PointPlace, pkt, idle, proc)
			}
			r.startStack(k, proc, true)
			return
		}
	}
	r.enqueued(pkt)
	st.queued = true
	r.sdisp.EnqueueStack(k)
}

func (r *live) enqueued(pkt sched.Packet) {
	if r.rec != nil {
		r.emit(obs.Event{T: float64(r.clk.Now()), Kind: obs.KindEnqueue,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq})
	}
}

func (r *live) drop(pkt sched.Packet, reason int) {
	r.dropped++
	if r.rec != nil {
		r.emit(obs.Event{T: float64(r.clk.Now()), Kind: obs.KindDrop,
			Proc: -1, Stream: pkt.Stream, Entity: pkt.Entity, Seq: pkt.Seq,
			Val: float64(reason)})
	}
}

// procDown / procUp / kickIdle port the DES fault transitions; callers
// hold r.mu.
func (r *live) procDown(proc int) {
	ps := &r.procs[proc]
	if ps.down {
		return
	}
	now := r.clk.Now()
	ps.down = true
	ps.downSince = now
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindProcDown,
			Proc: proc, Stream: -1, Entity: -1})
	}
	if r.p.Paradigm == sim.Locking {
		r.disp.ProcDown(proc)
	} else {
		r.sdisp.ProcDown(proc)
	}
	r.kickIdle()
}

func (r *live) procUp(proc int) {
	ps := &r.procs[proc]
	if !ps.down {
		return
	}
	now := r.clk.Now()
	ps.down = false
	ps.downTime += float64(now - ps.downSince)
	for i := range ps.seen {
		ps.seen[i] = false
	}
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindProcUp,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.downSince)})
	}
	if r.p.Paradigm == sim.Locking {
		r.disp.ProcUp(proc)
	} else {
		r.sdisp.ProcUp(proc)
	}
	r.kickIdle()
}

func (r *live) kickIdle() {
	for proc := range r.procs {
		ps := &r.procs[proc]
		if ps.busy || ps.down {
			continue
		}
		if r.p.Paradigm == sim.Locking {
			if next, ok := r.disp.Dispatch(proc); ok {
				if r.drec != nil {
					r.decideDispatch(next, proc)
				}
				r.begin(next, proc, true, true, compLocking)
			}
			continue
		}
		if next := r.sdisp.DispatchStack(proc); next >= 0 {
			r.stacks[next].queued = false
			if r.drec != nil {
				r.decideDispatch(r.stacks[next].q[0], proc)
			}
			r.startStack(next, proc, true)
			continue
		}
		if r.p.Paradigm == sim.Hybrid && len(r.overflow) > 0 {
			pkt := r.overflow[0]
			r.overflow = r.overflow[1:]
			if r.drec != nil {
				r.decideDispatch(pkt, proc)
			}
			r.begin(pkt, proc, true, true, compOverflow)
		}
	}
}

// topoScaled applies the topology's migration transient multiplier to
// a model-charged execution time — the DES runner's topoScaled exactly
// (see its comment for the charging rule). Callers hold r.mu and guard
// with r.topo != nil.
func (r *live) topoScaled(texec float64, entity, proc int) float64 {
	if last := r.lastProcOf[entity]; last >= 0 && last != proc {
		if s := r.topo.TransientScale(last, proc); s != 1 {
			w := r.exec.Warm()
			texec = w + s*(texec-w)
		}
	}
	return texec
}

// xRefs returns the displacing references entity e suffered on proc
// since it last completed there; callers hold r.mu.
func (r *live) xRefs(e, proc int) float64 {
	ps := &r.procs[proc]
	if !ps.seen[e] {
		return math.Inf(1)
	}
	dNP := ps.dispNP - ps.markNP[e]
	dProto := ps.dispProto - ps.markProto[e]
	return dNP + (1-r.p.CodeSharedFrac)*dProto
}

// begin places pkt on proc — the DES beginService with the completion
// scheduling replaced by a hand-off to the processor's worker
// goroutine, which plays the interval out on the virtual clock. Callers
// hold r.mu.
func (r *live) begin(pkt sched.Packet, proc int, fromIdle, locked bool, done int) {
	now := r.clk.Now()
	ps := &r.procs[proc]
	if ps.busy && fromIdle {
		panic("live: placed packet on busy processor")
	}
	if ps.down {
		panic("live: placed packet on down processor")
	}
	preempt := 0.0
	if fromIdle {
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
		exec *= ps.slow
	}
	cold := math.IsInf(x, 1)
	if cold {
		r.coldStarts++
	}
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

	r.clk.wake()
	r.workCh[proc] <- task{pkt: pkt, exec: exec, preempt: preempt,
		warmHit: warmHit, locked: locked, done: done}
}

// complete settles one finished service: statistics, displacement
// marks, affinity state, and the paradigm's continuation — all under
// the dispatch lock, like a DES completion handler at one instant.
func (r *live) complete(tk task, proc int, protoExec float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tk.warmHit {
		r.warm++
	}
	r.settleCompletion(tk.pkt, proc, protoExec)
	switch tk.done {
	case compLocking:
		r.completeLocking(proc)
	case compOverflow:
		r.completeOverflow(proc)
	default:
		r.completeIPS(tk.pkt, proc)
	}
}

func (r *live) settleCompletion(pkt sched.Packet, proc int, protoExec float64) {
	now := r.clk.Now()
	ps := &r.procs[proc]
	ps.dispProto += r.rate * protoExec
	ps.seen[pkt.Entity] = true
	ps.markNP[pkt.Entity] = ps.dispNP
	ps.markProto[pkt.Entity] = ps.dispProto
	r.lastProcOf[pkt.Entity] = proc
	if !ps.down {
		if r.p.Paradigm == sim.Locking {
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
	// after a later arrival of the same stream already did (see the DES
	// runner's settleCompletion).
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
				r.clk.stop()
			}
		}
	}
}

func (r *live) goIdle(proc int) {
	now := r.clk.Now()
	ps := &r.procs[proc]
	ps.busy = false
	ps.idleSince = now
	ps.util.Set(float64(now), 0)
	if r.rec != nil {
		r.emit(obs.Event{T: float64(now), Kind: obs.KindProcIdle,
			Proc: proc, Stream: -1, Entity: -1, Dur: float64(now - ps.busySince)})
	}
}

func (r *live) completeLocking(proc int) {
	if r.procs[proc].down {
		r.goIdle(proc)
		r.kickIdle()
		return
	}
	if next, ok := r.disp.Dispatch(proc); ok {
		if r.drec != nil {
			r.decideDispatch(next, proc)
		}
		r.begin(next, proc, false, true, compLocking)
		return
	}
	r.goIdle(proc)
}

func (r *live) completeOverflow(proc int) {
	if r.procs[proc].down {
		r.goIdle(proc)
		r.kickIdle()
		return
	}
	r.dispatchHybrid(proc)
}

func (r *live) dispatchHybrid(proc int) {
	if next := r.sdisp.DispatchStack(proc); next >= 0 {
		r.stacks[next].queued = false
		if r.drec != nil {
			r.decideDispatch(r.stacks[next].q[0], proc)
		}
		r.startStack(next, proc, false)
		return
	}
	if len(r.overflow) > 0 {
		pkt := r.overflow[0]
		r.overflow = r.overflow[1:]
		if r.drec != nil {
			r.decideDispatch(pkt, proc)
		}
		r.begin(pkt, proc, false, true, compOverflow)
		return
	}
	r.goIdle(proc)
}

func (r *live) completeIPS(pkt sched.Packet, proc int) {
	k := pkt.Entity
	st := &r.stacks[k]
	st.q = st.q[1:]
	if r.procs[proc].down {
		st.running = false
		if len(st.q) > 0 {
			st.queued = true
			r.sdisp.EnqueueStack(k)
		}
		r.goIdle(proc)
		r.kickIdle()
		return
	}
	if len(st.q) > 0 {
		if next := r.sdisp.DispatchStack(proc); next >= 0 {
			st.running = false
			st.queued = true
			r.sdisp.EnqueueStack(k)
			r.stacks[next].queued = false
			if r.drec != nil {
				r.decideDispatch(r.stacks[next].q[0], proc)
			}
			r.startStack(next, proc, false)
			return
		}
		// Continuing the same stack on the same processor is not a
		// decision: there was no alternative to weigh.
		r.begin(st.q[0], proc, false, false, compIPS)
		return
	}
	st.running = false
	if r.p.Paradigm == sim.Hybrid {
		r.dispatchHybrid(proc)
		return
	}
	if next := r.sdisp.DispatchStack(proc); next >= 0 {
		r.stacks[next].queued = false
		if r.drec != nil {
			r.decideDispatch(r.stacks[next].q[0], proc)
		}
		r.startStack(next, proc, false)
		return
	}
	r.goIdle(proc)
}

func (r *live) startStack(k, proc int, fromIdle bool) {
	st := &r.stacks[k]
	if len(st.q) == 0 {
		panic("live: started an empty stack")
	}
	st.running = true
	st.queued = false
	r.begin(st.q[0], proc, fromIdle, false, compIPS)
}

func (r *live) queuedPackets() int {
	if r.p.Paradigm == sim.Locking {
		return r.disp.Queued()
	}
	n := len(r.overflow)
	for i := range r.stacks {
		q := len(r.stacks[i].q)
		if r.stacks[i].running && q > 0 {
			q--
		}
		n += q
	}
	return n
}

func (r *live) inFlight() int {
	n := 0
	for i := range r.procs {
		if r.procs[i].busy {
			n++
		}
	}
	return n
}

// results assembles the sim.Results after every goroutine has unwound;
// no locks are needed, the run is over.
func (r *live) results() sim.Results {
	now := r.clk.Now()
	measureSpan := now - r.p.Warmup
	offered := float64(r.p.Streams) * r.p.Arrival.Rate()
	if r.p.ArrivalPerStream != nil {
		offered = 0
		for _, spec := range r.p.ArrivalPerStream {
			offered += spec.Rate()
		}
	}
	res := sim.Results{
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

		EventsFired:       r.clk.Fired(),
		RecorderEvents:    r.emitted,
		DecisionsRecorded: r.decisions,

		ReorderedTotal:     r.reordered,
		MaxReorderDistance: r.maxReorderDist,
		PerStreamReordered: r.streamReordered, // run-owned; nil when in order
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
	if r.p.Paradigm == sim.Locking {
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
	res.DelayFairness = sim.JainIndex(res.PerStreamDelay)
	if r.tsink != nil {
		res.Trace = r.tsink.entries
	}
	if m := obs.FindMetrics(r.p.Recorder); m != nil {
		snap := m.Snapshot()
		res.Obs = &snap
	}
	return res
}
