// Command perfbench is the repository benchmark. It measures the host
// cost of the affinity simulator end to end and layer by layer, on four
// workloads, and checks every simulated output it produces.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload hotpath --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package into .bench_build/ and passes its
// arguments on. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where failed/attempted
// counts the correctness checks. Earlier lines carry provenance
// (revision, Go version, GOMAXPROCS, nproc, seed and a digest of the
// simulated statistics) and, in the traced run, the layer-additivity
// report. BENCHMARK.json at the repository root names every workload
// and metric; `go test` in this directory is the benchmark's self-test.
//
// All timings are host time. Simulated statistics are deterministic
// for a seed, so they serve as correctness checks, never as metrics.
//
// # Workloads
//
// Every workload sends one arrival input through three paths:
// Locking-MRU, IPS-MRU, and Locking-MRU with an in-memory decision
// ledger (obs.FlightRecorder) attached.
//
//   - suite-quick runs every experiment at quick fidelity concurrently
//     through one shared sim.Pool, as `paperfigs -quick` does, and must
//     reproduce testdata/paperfigs_quick.golden byte for byte. The golden
//     pins the experiment seed at 1, so the workload seed reaches only
//     the three paths, a probe at the suite's base point (8 Poisson
//     streams at 1000 pkt/s, 3000 packets).
//   - hotpath is the paper's platform as affinitysim runs it by default:
//     8 processors, 8 Poisson streams at 1000 pkt/s, 100 000 packets.
//   - zipf-streams is a 10⁵-stream Zipf(1.0) Poisson spec, 8000 pkt/s
//     aggregate, 20 000 packets.
//   - live-hotpath is hotpath's input on live.Run, checked against the
//     DES within the live differential tests' tolerance.
//
// # End-to-end metrics (--trace 0)
//
// Medians over the passes of a run (a pass runs the suite, then every
// path once; suite-quick repeats its probe paths ten times a pass).
// Every timed set-up, suite and path run starts from a collected heap
// with freed memory returned to the OS, as in a new process.
//
//   - setup_s: wall time to parse and generate the input and construct
//     the Locking-MRU run, stopped after 1 µs of simulated time (median
//     of repeated set-ups).
//   - wall_s, cpu_s: the simulation runs of one pass (suite-quick: the
//     suite alone); cpu_s is process user plus system time.
//   - peak_rss_mb: VmHWM of the process, which runs only this workload,
//     restarted before each pass after freed memory is returned to the OS.
//   - events_per_cpu_s: DES events fired (live: clock wake-ups) per CPU
//     second of the pass; sims_per_s: simulations per wall second.
//   - ns_per_pkt, ips_ns_per_pkt, ledger_ns_per_pkt: process CPU ns per
//     completed packet, warm-up included, of each path.
//   - bytes_per_stream: heap bytes set-up allocates per declared stream.
//
// # Per-layer metrics (--trace 1)
//
// The traced run alternates passes with tracing off and on
// (trace.overhead_frac), then times each layer by replaying the
// workload's own inputs, captured from a ledger run on the DES, into
// the layer's public functions, in batches that each form one span.
// The spans go to .bench_build/spans-<workload>-<seed>.json and their
// per-name self time to standard error. A metric the workload does not
// exercise reads 0. Each should move:
//
//   - des.schedule_step_ns (ScheduleArg+Step at the observed heap depth),
//     des.events_per_pkt.*: ns_per_pkt, ips_ns_per_pkt on hotpath,
//     events_per_cpu_s on suite-quick. des.stream_new_ns,
//     des.stream_bytes: setup_s, peak_rss_mb, bytes_per_stream on
//     zipf-streams.
//   - core.exec_ns (ExecTimeF1 on the candidates' displacements):
//     ns_per_pkt on hotpath, cpu_s on suite-quick. core.exec_per_pkt.*:
//     ledger_ns_per_pkt.
//   - sched.decide_ns.<policy> (one PickProcessor, Enqueue, Dispatch and
//     RanOn per replayed placement, 8 processors): ns_per_pkt on hotpath,
//     cpu_s on suite-quick.
//   - traffic.next_ns.poisson: ns_per_pkt on hotpath.
//     traffic.next_ns.zipf, workload.generate_s: setup_s on zipf-streams.
//   - obs.record_decision_ns, obs.decisions_per_pkt: ledger_ns_per_pkt.
//   - live.overhead_ns_per_pkt (live minus DES ns_per_pkt on the same
//     input): ns_per_pkt on live-hotpath.
//   - sim.residual_ns_per_pkt.*: ns_per_pkt less the sum of count × unit
//     cost of the layers above, the runner's own time. sim.pool_hit_ratio:
//     sims_per_s on suite-quick.
//   - exp.<ID>.cpu_s (each experiment alone on a one-worker pool): cpu_s
//     on suite-quick.
//   - check_fail_frac: failed / attempted checks of the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// goldenPath is the expected suite-quick output, relative to the
// repository root.
const goldenPath = "testdata/paperfigs_quick.golden"

func main() {
	var (
		name    = flag.String("workload", "", "workload: suite-quick | hotpath | zipf-streams | live-hotpath")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measuring time of one run, seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {suite-quick|hotpath|zipf-streams|live-hotpath} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, out := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, want, *trace == 1)
	if b.tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		b.tr.summary(os.Stderr)
	}
	printProvenance(*name, *seed, b.digest)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs the named workload for one seed, untraced or
// traced, with golden as the expected suite output.
func runWorkload(name string, seed int64, budget time.Duration, golden []byte, traced bool) (*bench, result) {
	b := &bench{name: name, seed: seed, budget: budget, golden: golden}
	in := workloads[name](seed)
	if !traced {
		return b, b.endToEnd(in)
	}
	b.tr = &tracer{t0: time.Now()}
	return b, b.traced(in)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printProvenance writes one JSON line naming what was measured where:
// the revision the binary was built from, the toolchain, the
// parallelism, the seed and the digest of the simulated statistics.
func printProvenance(workload string, seed int64, digest string) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"provenance": map[string]any{
			"workload":     workload,
			"seed":         seed,
			"vcs.revision": rev,
			"go":           runtime.Version(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"nproc":        runtime.NumCPU(),
			"digest":       digest,
		},
	})
	fmt.Println(string(line))
}
