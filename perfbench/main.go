// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's public Go API, checks every output,
// and prints one JSON result line:
//
//	perfbench --workload serve|fs-trap|fleet-churn --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) wraps the kernel, the monitor and the shadow runtime in
// timed spans and reports the per-layer metrics. The metric tables are in
// metrics.go, the workloads in workloads.go. perfbench/run.py builds the
// binary and runs it from the repository root.
//
// The end-to-end times (setup_s, ops_per_s, op_p50_ms, op_p99_ms) are
// measured on CPU clocks, not the wall clock: on a shared machine a
// ready process is often not running, and the wall clock would charge
// those gaps to the program. --seconds is wall time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sizes fix how much work a run does besides its timed loop.
type sizes struct {
	// Setups is how many times a run sets up; setup_s is the median.
	Setups int
	// PrefixOps (serve, fs-trap) and PrefixWaves (fleet-churn) size the
	// op prefix every exact metric is counted over.
	PrefixOps   int
	PrefixWaves int
	// TenantLife is the units a serve tenant serves before it is
	// relaunched; it must exceed PrefixOps.
	TenantLife int
	// WaveTenants and TenantUnits shape one fleet.Run wave.
	WaveTenants int
	TenantUnits int
	// MaxSpans caps the spans a traced run keeps individually.
	MaxSpans int
}

var defaultSizes = sizes{Setups: 21, PrefixOps: 600, TenantLife: 1024, PrefixWaves: 12, WaveTenants: 12, TenantUnits: 4, MaxSpans: 200_000}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	sizes   sizes
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// order names the op sequence of the counted prefix: the same for
	// one seed, different across seeds.
	order  []string
	notes  []string
	tracer *tracer
}

func measure(w workloadSpec, o options) (*result, error) {
	if w.Fleet {
		return measureChurn(w, o)
	}
	return measureServe(w, o)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: serve, fs-trap or fleet-churn")
	seed := fl.Int64("seed", 1, "seed of the op order and attack choice")
	seconds := fl.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := fl.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	spans := fl.String("spans", "", "traced run: file for the spans as JSON lines (default .bench_build/spans-<workload>.jsonl)")
	profile := fl.String("profile", "", "write cpu-<workload>.pprof and allocs-<workload>.pprof into this directory; profiling perturbs timing, so leave it off in timed comparisons")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload serve|fs-trap|fleet-churn, --trace 0|1 and --seconds >= 0\n")
		return 2
	}
	// One thread for every workload: on a small shared machine a second
	// busy thread mostly adds noise, and the fleet's two workers still
	// run concurrently, interleaved.
	runtime.GOMAXPROCS(1)
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, sizes: defaultSizes}

	stopProfile, err := startProfile(*profile, w.Name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(w, o)
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if o.traced {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.Name+".jsonl")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := res.tracer.writeSpans(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	out, err := render(res, metricsOf(o.traced))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %s; failed_op_ratio %g\n", w.Name, o.seed, w.Load, float64(res.failed)/float64(res.attempted))
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "perfbench:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// render checks that the run produced every metric of its table, each a
// finite number, and builds the result line.
func render(res *result, defs []metricDef) (output, error) {
	out := output{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(res.metrics) != len(defs) {
		return out, fmt.Errorf("run measured %d metrics, the table has %d", len(res.metrics), len(defs))
	}
	return out, nil
}

// startProfile starts a CPU profile of the run when dir is set; the
// returned function stops it and writes the allocation profile.
func startProfile(dir, workload string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu-"+workload+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, "allocs-"+workload+".pprof"))
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
