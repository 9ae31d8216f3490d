package main

import (
	"fmt"
	"runtime"

	"bastion/internal/baseline/cet"
	"bastion/internal/bench"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
	"bastion/internal/workload"
)

// apps are the three protected applications every workload runs.
var apps = []string{"nginx", "sqlite", "vsftpd"}

// workloadSpec fixes one workload: what it runs, and the load shape.
type workloadSpec struct {
	Name string
	// Load describes the load shape (recorded beside the results).
	Load string
	// ExtendFS traps the Table 7 file-system syscalls as well.
	ExtendFS bool
	// CET adds the CET shadow stack (the full Figure 3 stack); fleet
	// tenants launch without it, as fleet.Run does.
	CET bool
	// Fleet selects the fleet-churn loop instead of the serve loop.
	Fleet bool
}

var workloads = []workloadSpec{
	{Name: "serve", CET: true,
		Load: "closed loop, 1 client goroutine, one long-lived tenant per app relaunched untimed every 1024 units, seeded app interleaving"},
	{Name: "fs-trap", CET: true, ExtendFS: true,
		Load: "closed loop, 1 client goroutine, one long-lived tenant per app relaunched untimed every 1024 units, seeded app interleaving, ExtendFS"},
	{Name: "fleet-churn", Fleet: true,
		Load: "closed loop of fleet.Run waves, 2 shards x 1 worker interleaved on one thread, short-lived tenants, seeded schedule and 1-in-16 attacks"},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// maxSteps bounds each guest, as the evaluation harness does.
const maxSteps = 1 << 34

// monitorConfig is the launch policy: every context, full mode, the
// Table 1 sensitive set, verdict cache off.
func (w workloadSpec) monitorConfig() monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.ExtendFS = w.ExtendFS
	return cfg
}

func (w workloadSpec) vmOptions() []vm.Option {
	opts := []vm.Option{vm.WithMaxSteps(maxSteps)}
	if w.CET {
		opts = append(opts, vm.WithMitigations(cet.New()))
	}
	return opts
}

// tenant is one launched, initialized guest and the workload target
// serving it.
type tenant struct {
	app    string
	target workload.Target
	prot   *core.Protected
	// next is the index of the next unit to serve; served sums the
	// steady-state counters of the units served so far.
	next   int
	served workload.Result
	// art and cfg are what the tenant was launched from, kept for
	// relaunching it.
	art *core.Artifact
	cfg monitor.Config
}

// setupTenants compiles each app, builds its seccomp filter, launches it
// and runs its init phase.
func setupTenants(w workloadSpec, tr *tracer) ([]*tenant, error) {
	var out []*tenant
	for _, app := range apps {
		target, err := workload.NewTarget(app)
		if err != nil {
			return nil, err
		}
		t := &tenant{app: app}
		if err := tr.do(spanCompile, func() (err error) {
			t.art, err = core.Compile(target.Build(), core.CompileOptions{})
			return err
		}); err != nil {
			return nil, fmt.Errorf("compile %s: %w", app, err)
		}
		if err := tr.do(spanFilter, func() (err error) {
			t.cfg, err = core.PrepareFilter(t.art, w.monitorConfig())
			return err
		}); err != nil {
			return nil, fmt.Errorf("filter %s: %w", app, err)
		}
		if err := t.launch(w, target, tr); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// launch starts the tenant on a fresh kernel and runs its init phase,
// serving from unit 0 again. With a tracer the launch is split into its
// layer calls (tracer.launch); without one it is core.Launch itself.
func (t *tenant) launch(w workloadSpec, target workload.Target, tr *tracer) error {
	k := kernel.New(nil)
	k.Costs.IOPerByte = workload.IOPerByte(t.app)
	if err := target.Fixture(k); err != nil {
		return fmt.Errorf("fixture %s: %w", t.app, err)
	}
	var prot *core.Protected
	var err error
	if tr == nil {
		prot, err = core.Launch(t.art, k, t.cfg, w.vmOptions()...)
	} else {
		prot, err = tr.launch(t.art, k, t.cfg, w.vmOptions())
	}
	if err != nil {
		return fmt.Errorf("launch %s: %w", t.app, err)
	}
	if err := tr.do(spanInit, func() error { return target.Init(prot) }); err != nil {
		return fmt.Errorf("init %s: %w", t.app, err)
	}
	t.target, t.prot, t.next, t.served = target, prot, 0, workload.Result{}
	return nil
}

// relaunch replaces the tenant by a fresh launch of the same artifact.
// The old guest is collected first, so the two never share the heap.
func (t *tenant) relaunch(w workloadSpec, tr *tracer) error {
	target, err := workload.NewTarget(t.app)
	if err != nil {
		return err
	}
	t.target, t.prot = nil, nil
	runtime.GC()
	return t.launch(w, target, tr)
}

// repeatSetup sets up n times and keeps the last set of tenants.
func repeatSetup(w workloadSpec, n int, tr *tracer) ([]*tenant, error) {
	var tenants []*tenant
	for i := 0; i < n; i++ {
		tenants = nil // let the previous set-up go before the next
		runtime.GC()
		var err error
		if tenants, err = setupTenants(w, tr); err != nil {
			return nil, err
		}
	}
	return tenants, nil
}

// setupSampler times set-ups of a workload spread over a run: one before
// the timed loop, the rest between its windows, every few windows, with
// the loop's clock stopped. A neighbour on the machine slows the process
// for seconds at a time; set-ups taken back to back would all fall in
// one such spell.
type setupSampler struct {
	w     workloadSpec
	n     int // set-ups in all
	every int // windows between two set-ups in the loop
	times []float64
}

func newSetupSampler(w workloadSpec, o options) *setupSampler {
	win := serveWindow
	if w.Fleet {
		win = churnWindow
	}
	// Leave the last quarter of the run free, in case the windows run
	// slower than their CPU length.
	windows := int(0.75 * o.seconds / win.Seconds())
	every := 1
	if o.sizes.Setups > 1 && windows > o.sizes.Setups-1 {
		every = windows / (o.sizes.Setups - 1)
	}
	return &setupSampler{w: w, n: o.sizes.Setups, every: every}
}

// first takes the set-up before the loop and keeps its tenants.
func (s *setupSampler) first() ([]*tenant, error) {
	runtime.GC()
	t0 := processCPU()
	tenants, err := setupTenants(s.w, nil)
	s.times = append(s.times, (processCPU() - t0).Seconds())
	return tenants, err
}

// due reports whether a set-up is to be taken after the loop's windows
// window closes. It is false on a nil sampler.
func (s *setupSampler) due(windows int) bool {
	return s != nil && len(s.times) < s.n && windows%s.every == 0
}

// sample takes one set-up in the loop and lets its tenants go. The
// kernel's peak-RSS count restarts after it, so the window after it is
// not charged with the set-up's own peak.
func (s *setupSampler) sample() error {
	if _, err := s.first(); err != nil {
		return err
	}
	return resetPeakRSS()
}

// median finishes the samples the loop left (a short run) and returns
// the median CPU time of one set-up.
func (s *setupSampler) median() (float64, error) {
	for len(s.times) < s.n {
		if err := s.sample(); err != nil {
			return 0, err
		}
	}
	return median(s.times), nil
}

// counters are simulated counts over a set of tenants. They are exact: a
// traced and an untraced run of one seed must agree on every field.
type counters struct {
	Units                        int
	Cycles, MonitorCycles, Traps uint64
	Steps, Syscalls, FilterSteps uint64
	CacheHits, CacheMisses       uint64
	// Stage holds the monitor's per-stage cycle counters, in stageNames
	// order.
	Stage [len(stageNames)]uint64
}

// stageNames are the monitor's stage cycle counters, by metric suffix.
var stageNames = [...]string{"fetch", "unwind", "ct", "cf", "ai", "sf", "cache_lookup"}

func (c *counters) add(o counters) {
	c.Units += o.Units
	c.Cycles += o.Cycles
	c.MonitorCycles += o.MonitorCycles
	c.Traps += o.Traps
	c.Steps += o.Steps
	c.Syscalls += o.Syscalls
	c.FilterSteps += o.FilterSteps
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	for i := range c.Stage {
		c.Stage[i] += o.Stage[i]
	}
}

func (c counters) sub(o counters) counters {
	d := c
	d.Units -= o.Units
	d.Cycles -= o.Cycles
	d.MonitorCycles -= o.MonitorCycles
	d.Traps -= o.Traps
	d.Steps -= o.Steps
	d.Syscalls -= o.Syscalls
	d.FilterSteps -= o.FilterSteps
	d.CacheHits -= o.CacheHits
	d.CacheMisses -= o.CacheMisses
	for i := range d.Stage {
		d.Stage[i] -= o.Stage[i]
	}
	return d
}

// counters reads one tenant's simulated counters.
func (t *tenant) counters() counters {
	p := t.prot
	c := counters{
		Units:         t.served.Units,
		Cycles:        t.served.TotalCycles,
		MonitorCycles: t.served.MonitorCycles,
		Traps:         t.served.Traps,
		Steps:         p.Machine.Steps,
		FilterSteps:   p.Proc.FilterSteps,
		CacheHits:     p.Monitor.CacheHits,
		CacheMisses:   p.Monitor.CacheMisses,
	}
	for _, n := range p.Proc.SyscallCounts {
		c.Syscalls += n
	}
	for i, s := range stageNames {
		c.Stage[i] = p.Monitor.Metrics.Counter("monitor_cycles_" + s + "_total").Value()
	}
	return c
}

func sumCounters(tenants []*tenant) counters {
	var c counters
	for _, t := range tenants {
		c.add(t.counters())
	}
	return c
}

// simOverhead is the paper's modeled throughput loss (bench.Overhead) of
// each app's protected steady state against an unprotected run of
// baseUnits units (0: as many as the protected side served), averaged
// over the apps. The unprotected arm is untimed.
func simOverhead(protected map[string]workload.Result, baseUnits int) (float64, error) {
	var sum float64
	for _, app := range apps {
		run := protected[app]
		if run.Units == 0 {
			return 0, fmt.Errorf("overhead: no %s units served", app)
		}
		target, err := workload.NewTarget(app)
		if err != nil {
			return 0, err
		}
		k := kernel.New(nil)
		k.Costs.IOPerByte = workload.IOPerByte(app)
		if err := target.Fixture(k); err != nil {
			return 0, err
		}
		p, err := core.LaunchUnprotected(&core.Artifact{Prog: target.Build()}, k, vm.WithMaxSteps(maxSteps))
		if err != nil {
			return 0, err
		}
		units := baseUnits
		if units == 0 {
			units = run.Units
		}
		base, err := workload.Run(target, p, units)
		if err != nil {
			return 0, fmt.Errorf("overhead: unprotected %s: %w", app, err)
		}
		sum += bench.Overhead(&bench.RunResult{Workload: base, Target: target},
			&bench.RunResult{Workload: run, Target: target})
	}
	return sum / float64(len(apps)), nil
}
