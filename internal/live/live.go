package live

import (
	"sync"

	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/sim"
	"affinity/internal/traffic"
)

// Run executes one live (goroutine-backed) run of the configuration and
// returns its metrics in the same sim.Results shape the DES produces.
// The dispatch logic is the DES's own sim.Machine; only the passage of
// time differs. Arrival processes draw from the same seed-derived RNG
// streams as the DES, so both backends see identical arrival sequences,
// but scheduling decisions happen under a real lock contended by real
// workers, so per-run results are statistically — not bit — equal to
// the DES (see the package comment and DESIGN.md §10).
func Run(p sim.Params) sim.Results {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := &live{p: p, clk: newClock(p.MaxTime), workCh: make([]chan sim.Service, p.Processors)}
	for i := range r.workCh {
		r.workCh[i] = make(chan sim.Service, 1)
	}
	r.m = sim.NewMachine(p, r)
	r.run()
	return r.m.Results()
}

// live is one run's backend state. mu is the dispatch lock — the live
// analogue of the queue lock a real parallel dispatcher serializes its
// scheduling decisions under. Every call into the machine (dispatcher
// state, queues, displacement counters, statistics, recorder emissions)
// happens under mu at a fixed virtual instant; the real concurrency is
// in the workers racing for mu and playing out their service intervals
// on the clock in parallel.
type live struct {
	p   sim.Params
	m   *sim.Machine
	clk *clock

	mu sync.Mutex // the dispatch/queue lock

	workCh []chan sim.Service // one hand-off slot per processor's worker

	wg sync.WaitGroup
}

// The sim.Backend methods. The machine calls them with r.mu held.

func (r *live) Now() des.Time { return r.clk.Now() }
func (r *live) Stop()         { r.clk.stop() }
func (r *live) Pending() int  { return r.clk.Pending() }
func (r *live) Fired() uint64 { return r.clk.Fired() }

// Serve hands the interval to the processor's worker goroutine, which
// plays it out on the virtual clock. The slot is free: the processor
// was idle, its own worker is the caller, or its worker is parked
// waiting for the shared-stack lock that the caller is granting it.
func (r *live) Serve(s sim.Service) {
	r.clk.wake()
	r.workCh[s.Proc] <- s
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
		proc := r.p.ArrivalSpec(s).Build(des.ArrivalStream(r.p.Seed, s))
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
			r.m.Arrive(stream)
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
		r.m.Fault(ev)
		r.mu.Unlock()
	}
}

// gaugeLoop publishes the periodic gauges; it runs only when a user
// recorder is attached, like the DES sampler.
func (r *live) gaugeLoop() {
	defer r.wg.Done()
	defer r.clk.exit()
	for r.clk.sleep(r.p.SamplePeriod) {
		r.mu.Lock()
		r.m.Sample()
		r.mu.Unlock()
	}
}

// worker is one simulated processor: it parks until an interval is
// handed to it, plays the interval out on the virtual clock, then hands
// it back to the machine under the dispatch lock, which may hand the
// worker its next one. A worker whose lock request queues parks again
// until the machine grants it the critical section.
func (r *live) worker(proc int) {
	defer r.wg.Done()
	defer r.clk.exit()
	for {
		s, ok := parkRecv(r.clk, r.workCh[proc])
		if !ok || !r.clk.sleep(s.Dur) {
			return
		}
		r.mu.Lock()
		r.m.Elapsed(s)
		r.mu.Unlock()
	}
}
