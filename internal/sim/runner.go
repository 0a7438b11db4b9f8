package sim

import (
	"affinity/internal/des"
	"affinity/internal/faults"
	"affinity/internal/traffic"
)

// runner is the discrete-event Backend: it drives the Machine from a
// des.Simulator. Per-packet service state lives in pooled svc records
// scheduled through non-capturing des.ArgHandler functions (no
// per-packet closures) and arrival sources are scheduled by pointer, so
// together with the machine's own discipline the event loop stops
// allocating in steady state.
type runner struct {
	*Machine
	sim *des.Simulator

	sources  []arrivalSource // one per stream, scheduled by pointer
	svcFree  []*svc          // recycled per-packet service records
	faultEvs []faultEvent    // the scheduled fault-plan events
}

func newRunner(p Params) *runner {
	r := &runner{sim: des.NewSimulator()}
	r.Machine = NewMachine(p, r)
	return r
}

func (r *runner) Now() des.Time { return r.sim.Now() }
func (r *runner) Stop()         { r.sim.Stop() }
func (r *runner) Pending() int  { return r.sim.Pending() }
func (r *runner) Fired() uint64 { return r.sim.Fired() }
func (r *runner) Serve(s Service) {
	sv := r.acquireSvc()
	sv.Service = s
	r.sim.ScheduleArg(s.Dur, svcElapsed, sv)
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
		r.Arrive(src.stream)
	}
	d, b := src.proc.Next()
	src.pending = b
	r.sim.ScheduleArg(d, arrivalFire, src)
}

// gaugeSample publishes the periodic gauges and reschedules itself.
func gaugeSample(a any) {
	r := a.(*runner)
	r.Sample()
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
	fe.r.Fault(fe.ev)
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
	for s := 0; s < r.p.Streams; s++ {
		src := &r.sources[s]
		src.r, src.stream = r, s
		src.proc = r.p.ArrivalSpec(s).Build(des.ArrivalStream(r.p.Seed, s))
		d, b := src.proc.Next()
		src.pending = b
		r.sim.ScheduleArg(d, arrivalFire, src)
	}
}

// svc is the pooled service record: the machine's Service threaded
// through the DES by pointer.
type svc struct {
	r *runner
	Service
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

// svcElapsed recycles the record and hands the played-out interval
// back to the machine.
func svcElapsed(a any) {
	s := a.(*svc)
	r, sv := s.r, s.Service
	r.svcFree = append(r.svcFree, s)
	r.Elapsed(sv)
}
