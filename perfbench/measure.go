package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"affinity/internal/sim"
)

// minPasses is the fewest passes a run measures, however long they take.
const minPasses = 3

// bench holds one run's settings and its correctness tally.
type bench struct {
	name   string // workload
	seed   int64
	budget time.Duration
	golden []byte
	tr     *tracer // nil outside the traced run's traced passes
	c      checks
	digest string
	// refs are live-hotpath's DES runs of the same Params, the
	// reference the live runs are checked against.
	refs [numPaths]sim.Results
}

// pass is one execution of a workload: the suite (suite-quick only)
// and then every path.
type pass struct {
	wall, cpu float64 // seconds in suite-quick's suite, elsewhere in the path runs
	sims      int
	events    uint64
	nsPerPkt  [numPaths][]float64 // host CPU ns per completed packet, per run
	res       [numPaths]sim.Results
	poolHits  float64 // suite-quick: share of pool submissions served from cache
	peakMB    float64 // peak resident set during the pass
}

// prepare computes what checking needs before anything is timed: the
// DES references of a live workload.
func (b *bench) prepare(in *inputs) {
	if !in.live {
		return
	}
	des := *in
	des.live = false
	for k := range b.refs {
		b.refs[k], _ = des.run(k, nil)
	}
	b.c.checkLedger(b.refs[locking], b.refs[ledger])
	b.digest = digestOf(b.refs)
}

// runPass executes one pass and checks its outputs.
func (b *bench) runPass(in *inputs) pass {
	var ps pass
	fresh()
	resetPeakRSS()
	var suiteOut []byte
	if in.suite {
		w0, c0 := time.Now(), cpuNow()
		ev0 := sim.TotalEventsFired()
		sp := b.tr.begin("exp.suite")
		// The golden pins the suite at seed 1; the workload seed
		// reaches only the probe paths.
		out, hits, misses := suiteOutput(1)
		b.tr.end(sp, int(hits+misses))
		ps.wall, ps.cpu = time.Since(w0).Seconds(), cpuNow()-c0
		ps.events = sim.TotalEventsFired() - ev0
		ps.sims = int(hits + misses)
		ps.poolHits = float64(hits) / float64(hits+misses)
		b.c.check(bytes.Equal(out, b.golden), "suite-quick output differs from the golden")
		suiteOut = out
	}
	for k := range in.paths {
		for r := 0; r < in.probeRepeat; r++ {
			fresh()
			sp := b.tr.begin("sim." + pathNames[k])
			w, c := time.Now(), cpuNow()
			res, _ := in.run(k, nil)
			wall, cpu := time.Since(w).Seconds(), cpuNow()-c
			b.tr.end(sp, int(res.CompletedTotal))
			ps.nsPerPkt[k] = append(ps.nsPerPkt[k], cpu*1e9/float64(res.CompletedTotal))
			ps.res[k] = res
			if !in.suite {
				ps.wall += wall
				ps.cpu += cpu
				ps.sims++
				ps.events += res.EventsFired
			}
		}
	}
	ps.peakMB = peakRSSMB()

	sp := b.tr.begin("check")
	for k := range in.paths {
		b.c.checkRun(pathNames[k], in.paths[k], ps.res[k])
	}
	if in.live {
		for k := range in.paths {
			b.c.checkLive(pathNames[k], b.refs[k], ps.res[k])
		}
	} else {
		b.c.checkLedger(ps.res[locking], ps.res[ledger])
		// Every pass must reproduce the first pass's statistics.
		d := digestOf(suiteOut, ps.res)
		if b.digest == "" {
			b.digest = d
		}
		b.c.check(d == b.digest, "pass digest %s differs from the first pass's %s", d, b.digest)
	}
	b.tr.end(sp, 0)
	return ps
}

// runPasses repeats passes until the budget is spent (at least
// minPasses).
func (b *bench) runPasses(in *inputs, budget time.Duration) []pass {
	t0 := time.Now()
	var ps []pass
	for len(ps) < minPasses || time.Since(t0) < budget {
		ps = append(ps, b.runPass(in))
	}
	return ps
}

// setups times the workload's set-up repeatedly for budget (at least
// three times) and returns its median seconds and the median bytes it
// allocated per declared stream.
func (b *bench) setups(in *inputs, budget time.Duration) (secs, bytesPerStream float64) {
	var ts, bs []float64
	t0 := time.Now()
	for len(ts) < 3 || (time.Since(t0) < budget && len(ts) < 101) {
		fresh()
		a0 := allocBytes()
		w := time.Now()
		streams := in.setup()
		ts = append(ts, time.Since(w).Seconds())
		bs = append(bs, float64(allocBytes()-a0)/float64(streams))
	}
	return median(ts), median(bs)
}

// endToEnd is the untraced run: set-up, then passes for the budget.
func (b *bench) endToEnd(in *inputs) result {
	b.prepare(in)
	setupS, bps := b.setups(in, b.budget/5)
	ps := b.runPasses(in, b.budget-b.budget/5)
	m := map[string]metric{
		"setup_s":           {setupS, "s"},
		"wall_s":            {medianOf(ps, func(p pass) float64 { return p.wall }), "s"},
		"cpu_s":             {medianOf(ps, func(p pass) float64 { return p.cpu }), "s"},
		"peak_rss_mb":       {medianOf(ps, func(p pass) float64 { return p.peakMB }), "MB"},
		"events_per_cpu_s":  {medianOf(ps, func(p pass) float64 { return float64(p.events) / p.cpu }), "1/s"},
		"sims_per_s":        {medianOf(ps, func(p pass) float64 { return float64(p.sims) / p.wall }), "1/s"},
		"ns_per_pkt":        {pathNs(ps, locking), "ns"},
		"ips_ns_per_pkt":    {pathNs(ps, ips), "ns"},
		"ledger_ns_per_pkt": {pathNs(ps, ledger), "ns"},
		"bytes_per_stream":  {bps, "B"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, %d checks\n", b.name, b.seed, len(ps), b.c.attempted)
	return b.result(m)
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.c.failed == 0, Attempted: b.c.attempted, Failed: b.c.failed, Metrics: m}
}

// pathNs is the median host CPU ns per completed packet of path k over
// every run of every pass.
func pathNs(ps []pass, k int) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, p.nsPerPkt[k]...)
	}
	return median(xs)
}

func medianOf(ps []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuNow returns the process's user plus system CPU time, seconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocBytes returns the bytes allocated on the heap so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// fresh collects the heap and returns freed memory to the OS, so a
// timed run starts as in a new process and pays only for its own
// garbage and page faults.
func fresh() { debug.FreeOSMemory() }

// resetPeakRSS restarts the process's VmHWM at its current resident
// set, so the next peakRSSMB reads the peak of what runs in between.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		panic(fmt.Sprintf("resetting peak RSS: %v", err))
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM), MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
