// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time from a seed, checks that the program's outputs
// are correct, and prints one JSON result line with either the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload frames --seed 1 --seconds 44 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	frames  trains vgg5 on rate-coded synthetic CIFAR-10 (bptt, ckpt,
//	        skipper, and skipper at world 2 over the dist protocol) and
//	        serves dense frames: a router over two serve replicas with
//	        open-loop /v1/infer arrivals and paced stream sessions at once
//	events  the same with customnet on synthetic N-MNIST events, serving
//	        sparse frames
//
// Training repetitions and serving traffic slots alternate over the run.
//
// The last stdout line is {"correct","attempted","failed","metrics"}. A
// failed correctness check prints correct=false and exits with status 1; an
// error that stops the workload exits with status 1 without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation's state: its options, the metrics and operation
// counts it collects, and the correctness checks that failed.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	nproc    int
	// outDir receives the run record and, when tracing, the Chrome trace.
	outDir string

	attempted, failed int
	metrics           map[string]metric
	failures          []string
	// params records the workload parameters next to the environment.
	params map[string]any
}

func newRun(workload string, seed uint64, seconds time.Duration, traced bool, outDir string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: traced,
		nproc: goruntime.NumCPU(), outDir: outDir,
		metrics: map[string]metric{}, params: map[string]any{}, failures: []string{},
	}
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed correctness check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) result() result {
	return result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// workloads maps each workload name to its runner. Each workload trains and
// serves, so every run reports every metric; the two differ in the input
// regime: dense rate-coded frames or sparse events.
var workloads = map[string]func(*run) error{
	"frames": func(r *run) error { return trainAndServe(r, framesSpec, serveFrames()) },
	"events": func(r *run) error { return trainAndServe(r, eventsSpec, serveEvents()) },
}

// trainAndServe alternates training repetitions with serving traffic slots
// as long as the first repetition took, until the run's time is used (at
// least two rounds, so the cross-repetition checks always run). Spreading
// both phases over the whole run lets host drift, which comes in spells of
// tens of seconds, hit every metric alike. setup_s is the sum of the two
// phases' median set-up times; the fleet is set up before the timed rounds.
func trainAndServe(r *run, spec func() (trainSpec, error), ss serveSpec) error {
	ts, err := spec()
	if err != nil {
		return err
	}
	tp := newTrainPhase(r, ts)
	defer tp.close()
	sp, err := newServePhase(r, ss)
	if err != nil {
		return fmt.Errorf("starting the fleet: %w", err)
	}
	defer sp.close()
	start := time.Now()
	var slot time.Duration
	for round := 1; ; round++ {
		repStart := time.Now()
		if err := tp.rep(r); err != nil {
			return fmt.Errorf("training: %w", err)
		}
		if slot == 0 {
			slot = time.Since(repStart)
		}
		// Collect each phase's garbage before the other phase is timed, so
		// neither pays for the other's collections.
		goruntime.GC()
		sp.slot(r, slot)
		goruntime.GC()
		// Stop once another round would overrun the time by more than half
		// a round.
		perRound := time.Since(start) / time.Duration(round)
		if round >= 2 && time.Since(start)+perRound/2 > r.seconds {
			break
		}
	}
	trainSetup, err := tp.report(r)
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	serveSetup, err := sp.report(r)
	if err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	if !r.trace {
		r.set("setup_s", "s", trainSetup+serveSetup)
	}
	return nil
}

// phase returns the workload parameters recorded for one phase of the run.
func (r *run) phase(name string) map[string]any {
	p, ok := r.params[name].(map[string]any)
	if !ok {
		p = map[string]any{}
		r.params[name] = p
	}
	return p
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the run record and trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || *seed == 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seed >= 1, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	r := newRun(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *outDir)
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if !r.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: reading peak RSS: %v\n", err)
			return 1
		}
		r.set("peak_rss_mib", "MiB", rss)
	}
	res := r.result()
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
	}
	if err := r.writeRecord(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing run record: %v\n", err)
		return 1
	}
	env, err := json.Marshal(map[string]any{"env": r.environment()})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", env, line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// environment is recorded with every result.
func (r *run) environment() map[string]any {
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"cores":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"rev":        rev,
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.trace,
		"params":     r.params,
	}
}

// writeRecord writes the environment, the result and any failed checks to
// <outDir>/<workload>-seed<seed>-trace<0|1>.json.
func (r *run) writeRecord(res result) error {
	rec := map[string]any{"env": r.environment(), "result": res, "failed_checks": r.failures}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.recordPath("json"), append(b, '\n'), 0o644)
}

func (r *run) recordPath(ext string) string {
	t := 0
	if r.trace {
		t = 1
	}
	return filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d.%s", r.workload, r.seed, t, ext))
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20
