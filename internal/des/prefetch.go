package des

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Prefetcher is the engine behind the runner's Params.Shards: it runs K
// pipeline workers that precompute independent per-source draw chains
// (arrival inter-delays and batch sizes) into single-producer /
// single-consumer rings, so the event loop pops ready-made draws
// instead of computing them inline.
//
// An arrival chain has no in-edges from the rest of the simulation, so
// it may run arbitrarily far ahead of the clock; the ring capacity is
// the only bound on how far. Each source function is called only by
// its owning worker, sequentially, in chain order, so the value
// sequence any consumer observes is bit-identical to calling the
// source inline: the draws move between goroutines, the numbers never
// change.
//
// Next is the consumer hot path and performs no allocation; producers
// park on a condition variable when their rings are full and are
// signalled when the consumer drains one below half capacity. The
// consumer must be a single goroutine per source (the DES event loop
// is one goroutine overall). Close releases the workers.
type Prefetcher struct {
	sources []func() (Time, int)
	rings   []drawRing
	workers []prefWorker
	closing atomic.Bool
	wg      sync.WaitGroup
}

// Draw is one precomputed source step.
type Draw struct {
	Delay Time
	Batch int32
}

// drawRing is a bounded SPSC ring: the owning worker advances tail, the
// consumer advances head. Slot writes happen before the tail store and
// slot reads after the tail load (Go atomics are sequentially
// consistent), so no further synchronization is needed.
type drawRing struct {
	buf  []Draw
	mask uint64
	head atomic.Uint64
	tail atomic.Uint64
	w    *prefWorker
}

type prefWorker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parked  atomic.Bool
	sources []int // ring indices this worker owns
}

// NewPrefetcher starts workers (clamped to [1, len(sources)]) producing
// into rings of ringCap entries each (rounded up to a power of two;
// ≤ 0 selects 256). Sources are assigned round-robin so neighboring —
// in Zipf-skewed workloads, similarly hot — sources land on different
// workers.
func NewPrefetcher(sources []func() (Time, int), workers, ringCap int) *Prefetcher {
	if len(sources) == 0 {
		panic("des: prefetcher with no sources")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	if ringCap <= 0 {
		ringCap = 256
	}
	capPow := 1
	for capPow < ringCap {
		capPow <<= 1
	}
	p := &Prefetcher{
		sources: sources,
		rings:   make([]drawRing, len(sources)),
		workers: make([]prefWorker, workers),
	}
	for i := range p.workers {
		w := &p.workers[i]
		w.cond = sync.NewCond(&w.mu)
	}
	for i := range p.rings {
		r := &p.rings[i]
		r.buf = make([]Draw, capPow)
		r.mask = uint64(capPow - 1)
		w := &p.workers[i%workers]
		r.w = w
		w.sources = append(w.sources, i)
	}
	p.wg.Add(workers)
	for i := range p.workers {
		go p.produce(&p.workers[i])
	}
	return p
}

// produce fills the worker's rings until Close; it parks when every
// owned ring is full.
func (p *Prefetcher) produce(w *prefWorker) {
	defer p.wg.Done()
	for !p.closing.Load() {
		produced := false
		for _, si := range w.sources {
			r := &p.rings[si]
			tail := r.tail.Load()
			for tail-r.head.Load() < uint64(len(r.buf)) {
				d, b := p.sources[si]()
				if int(int32(b)) != b {
					panic(fmt.Sprintf("des: draw batch %d overflows the ring entry", b))
				}
				r.buf[tail&r.mask] = Draw{Delay: d, Batch: int32(b)}
				tail++
				r.tail.Store(tail)
				produced = true
			}
		}
		if produced {
			continue
		}
		// Every ring full: park until the consumer signals a low-water
		// crossing. parked is set before the re-check, and the consumer
		// stores head before loading parked, so the sequentially
		// consistent order rules out a lost wakeup: either the re-check
		// sees the freed slot, or the consumer sees parked and signals.
		w.mu.Lock()
		w.parked.Store(true)
		for !p.closing.Load() && p.noSpace(w) {
			w.cond.Wait()
		}
		w.parked.Store(false)
		w.mu.Unlock()
	}
}

// noSpace reports whether every ring owned by w is full.
func (p *Prefetcher) noSpace(w *prefWorker) bool {
	for _, si := range w.sources {
		r := &p.rings[si]
		if r.tail.Load()-r.head.Load() < uint64(len(r.buf)) {
			return false
		}
	}
	return true
}

// Next pops the next draw for source src — the same (delay, batch) the
// source function would have returned if called inline. It spins (with
// Gosched) only when the producer has fallen behind, and allocates
// nothing.
func (p *Prefetcher) Next(src int) (Time, int) {
	r := &p.rings[src]
	h := r.head.Load()
	for r.tail.Load() == h {
		if w := r.w; w.parked.Load() {
			w.mu.Lock()
			w.cond.Signal()
			w.mu.Unlock()
		}
		runtime.Gosched()
	}
	d := r.buf[h&r.mask]
	r.head.Store(h + 1)
	if occ := r.tail.Load() - (h + 1); occ*2 < uint64(len(r.buf)) {
		if w := r.w; w.parked.Load() {
			w.mu.Lock()
			w.cond.Signal()
			w.mu.Unlock()
		}
	}
	return d.Delay, int(d.Batch)
}

// Close stops the pipeline workers and waits for them to exit. The
// consumer must not call Next afterwards.
func (p *Prefetcher) Close() {
	p.closing.Store(true)
	for i := range p.workers {
		w := &p.workers[i]
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	p.wg.Wait()
}
