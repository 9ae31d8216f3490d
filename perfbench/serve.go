package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bastion/internal/workload"
)

// serveWindow and churnWindow are the CPU time one window of the timed
// loop lasts: long enough for a stable op mix (about 1500 serve ops, 7
// fleet waves), short enough to give a run many windows to take the
// median peak RSS over.
const (
	serveWindow = 500 * time.Millisecond
	churnWindow = time.Second
)

// window is one slice of the timed loop, a winLen of CPU time long.
type window struct {
	ops   int
	cpu   time.Duration // CPU time the window took
	wall  time.Duration // wall time it took, for information
	lat   []float64     // per-op latency, ms
	rssMB float64       // the process's peak RSS within the window
}

// close ends the window that began at start: it records the window's
// length and peak RSS, and restarts the kernel's peak-RSS count for the
// next one.
func (w *window) close(start, end instant) error {
	w.cpu, w.wall = end.cpu-start.cpu, end.wall.Sub(start.wall)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	w.rssMB = rss
	return resetPeakRSS()
}

// loopStats is what one run of the serve loop observed.
type loopStats struct {
	ops, failed int
	windows     []window
	winLen      time.Duration
	// start and prefix are the tenants' counters before the first op and
	// after the counted prefix of ops; opSteps counts guest instructions
	// over all ops.
	start, prefix counters
	opSteps       uint64
	pausedAlloc   uint64              // heap bytes relaunches and set-ups allocated
	perApp        map[string]counters // per app, after the prefix
	prefixDur     time.Duration
	prefixHooks   int64 // shadow hook calls in the prefix (traced)
	order         []string
	rt0, rt1      runtimeSample
}

// serveLoop runs the closed loop: one client serves one unit at a time on
// a seeded choice of tenant, until seconds of wall time have passed and
// at least prefixOps ops are done. Counters are read after exactly
// prefixOps ops, so every simulated count is a function of the seed
// alone.
//
// A tenant that has served life units is relaunched, with the clock
// stopped: a long-lived guest's per-unit host cost grows with the units
// it has served (vsftpd's most of all), and without a bound on tenant age
// a faster build would be charged for the older tenants its extra ops
// produce. Within each life the growth is still measured. Between
// windows, smp (if set) takes its set-up samples, also with the clock
// stopped. The seconds of the run count the pauses.
//
// An op's latency is the CPU time of the client's thread while it serves
// the op: with GOMAXPROCS=1 the garbage collector's background workers
// take turns with the client on the one P, and on a machine of several
// cores they would run beside it, so the op is charged only for the
// collection work it does itself (its mark assists). The windows, and so
// ops_per_s, count the whole process's CPU time, collector included.
func serveLoop(w workloadSpec, tenants []*tenant, seed int64, seconds float64, sz sizes, tr *tracer, smp *setupSampler) (loopStats, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	prefixOps := sz.PrefixOps
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Duration(seconds * float64(time.Second))
	st := loopStats{winLen: serveWindow, start: sumCounters(tenants)}
	var hooks0 int64
	if tr != nil {
		hooks0 = tr.layer(spanHook).Count
	}
	if err := resetPeakRSS(); err != nil {
		return st, err
	}
	st.rt0 = readRuntime()
	begin := time.Now()
	t0 := now()
	winStart := t0
	cur := window{}
	for i := 0; ; i++ {
		at := now()
		if i >= prefixOps && at.wall.Sub(begin) >= deadline {
			break
		}
		if cur.ops > 0 && at.cpu-winStart.cpu >= st.winLen {
			if err := cur.close(winStart, at); err != nil {
				return st, err
			}
			st.windows = append(st.windows, cur)
			cur = window{lat: make([]float64, 0, 2*len(cur.lat))}
			if smp.due(len(st.windows)) {
				alloc := heapAllocBytes()
				if err := smp.sample(); err != nil {
					return st, err
				}
				st.pausedAlloc += heapAllocBytes() - alloc
				resumed := now()
				t0 = t0.add(resumed.wall.Sub(at.wall), resumed.cpu-at.cpu)
				at = resumed
			}
			winStart = at
		}
		ten := tenants[rng.Intn(len(tenants))]
		if ten.next == sz.TenantLife {
			if tr != nil {
				tr.op = -1
			}
			paused, alloc := now(), heapAllocBytes()
			if err := ten.relaunch(w, tr); err != nil {
				return st, err
			}
			resumed := now()
			dw, dc := resumed.wall.Sub(paused.wall), resumed.cpu-paused.cpu
			t0, winStart = t0.add(dw, dc), winStart.add(dw, dc)
			st.pausedAlloc += heapAllocBytes() - alloc
		}
		if i < prefixOps {
			st.order = append(st.order, ten.app)
		}
		if tr != nil {
			tr.op = i
			tr.begin(spanOp)
		}
		steps := ten.prot.Machine.Steps
		opStart := threadCPU()
		r, err := workload.Continue(ten.target, ten.prot, ten.next, 1)
		lat := threadCPU() - opStart
		st.opSteps += ten.prot.Machine.Steps - steps
		if tr != nil {
			tr.end()
		}
		ten.next++
		addResult(&ten.served, r)
		st.ops++
		if err != nil {
			st.failed++
		}
		cur.ops++
		cur.lat = append(cur.lat, float64(lat)/1e6)
		if i+1 == prefixOps {
			st.prefixDur = t0.since()
			st.prefix = sumCounters(tenants)
			st.perApp = map[string]counters{}
			for _, t := range tenants {
				st.perApp[t.app] = t.counters()
			}
			if tr != nil {
				st.prefixHooks = tr.layer(spanHook).Count - hooks0
			}
		}
	}
	if cur.ops > 0 {
		if err := cur.close(winStart, now()); err != nil {
			return st, err
		}
		st.windows = append(st.windows, cur)
	}
	st.rt1 = readRuntime()
	return st, nil
}

func addResult(dst *workload.Result, r workload.Result) {
	dst.Units += r.Units
	dst.Bytes += r.Bytes
	dst.TotalCycles += r.TotalCycles
	dst.MonitorCycles += r.MonitorCycles
	dst.Traps += r.Traps
}

// timing reports throughput (ops per CPU second) and the p50 and p99 of
// op latency over the windows that ran their whole length (the loop's
// last one is usually cut short; a run shorter than one window keeps
// all), and peak RSS as the median over them, so that one rare heap peak
// does not move it. On a shared machine, neighbours slow the process
// down in spells of seconds to minutes that take a different share of
// each run; totals over the run move smoothly with that share, where a
// median of the windows' own figures jumps when the share crosses a
// half.
// wallOpsPerS is the throughput on the wall clock, for information.
func timing(windows []window, winLen time.Duration) (opsPerS, p50, p99, rssMB, wallOpsPerS float64) {
	var full []window
	for _, w := range windows {
		if w.cpu >= winLen*9/10 {
			full = append(full, w)
		}
	}
	if len(full) == 0 {
		full = windows
	}
	var ops int
	var cpu, wall time.Duration
	var lat, rss []float64
	for _, w := range full {
		ops += w.ops
		cpu += w.cpu
		wall += w.wall
		lat = append(lat, w.lat...)
		rss = append(rss, w.rssMB)
	}
	return float64(ops) / cpu.Seconds(), quantile(lat, 0.50), quantile(lat, 0.99), median(rss), float64(ops) / wall.Seconds()
}

// measureServe runs the serve and fs-trap workloads.
func measureServe(w workloadSpec, o options) (*result, error) {
	if o.traced {
		return traceServe(w, o)
	}
	smp := newSetupSampler(w, o)
	tenants, err := smp.first()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	st, err := serveLoop(w, tenants, o.seed, o.seconds, o.sizes, nil, smp)
	if err != nil {
		return nil, err
	}
	setupS, err := smp.median()
	if err != nil {
		return nil, err
	}
	res := &result{attempted: st.ops, failed: st.failed, order: st.order, metrics: map[string]float64{}}

	protected := map[string]workload.Result{}
	for app, c := range st.perApp {
		protected[app] = workload.Result{Units: c.Units, TotalCycles: c.Cycles, MonitorCycles: c.MonitorCycles, Traps: c.Traps}
	}
	overhead, err := simOverhead(protected, 0)
	if err != nil {
		return nil, err
	}
	opsPerS, p50, p99, rss, wallRate := timing(st.windows, st.winLen)
	m := res.metrics
	m["setup_s"] = setupS
	m["ops_per_s"] = opsPerS
	m["op_p50_ms"] = p50
	m["op_p99_ms"] = p99
	m["alloc_bytes_per_op"] = float64(st.rt1.allocBytes-st.rt0.allocBytes-st.pausedAlloc) / float64(st.ops)
	m["peak_rss_mb"] = rss
	// Per app, then averaged: the seeded app mix of the prefix does not
	// move it.
	var perUnit float64
	for _, app := range apps {
		c := st.perApp[app]
		perUnit += float64(c.Cycles) / float64(c.Units) / float64(len(apps))
	}
	m["sim_cycles_per_op"] = perUnit
	m["sim_overhead_pct"] = overhead
	res.notes = append(res.notes, fmt.Sprintf("%d ops in %d windows of %v CPU time; prefix %d ops; %.1f ops per wall second", st.ops, len(st.windows), st.winLen, o.sizes.PrefixOps, wallRate))
	return res, nil
}

// traceServe is the traced run: an untraced reference pass over the op
// prefix, then the traced set-up and loop. The two passes must agree on
// every simulated counter.
func traceServe(w workloadSpec, o options) (*result, error) {
	// The reference pass runs twice; the first only warms the process
	// up, so the tracing overhead compares two warm passes.
	var ref loopStats
	for pass := 0; pass < 2; pass++ {
		refTenants, err := setupTenants(w, nil)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if ref, err = serveLoop(w, refTenants, o.seed, 0, o.sizes, nil, nil); err != nil {
			return nil, err
		}
	}

	tr := newTracer(o.sizes.MaxSpans)
	tenants, err := repeatSetup(w, o.sizes.Setups, tr)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}, tracer: tr}
	m := res.metrics
	setupMetrics(m, tr)
	runtime.GC()
	st, err := serveLoop(w, tenants, o.seed, o.seconds, o.sizes, tr, nil)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.order = st.ops, st.failed+ref.failed, st.order

	pre := st.prefix.sub(st.start)
	if refPre := ref.prefix.sub(ref.start); pre != refPre {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("traced counters differ from untraced:\n  traced   %+v\n  untraced %+v", pre, refPre))
	}
	ops := float64(st.ops)
	n := float64(o.sizes.PrefixOps)
	opT, sysT, trapT, hookT := tr.layer(spanOp), tr.layer(spanSyscall), tr.layer(spanTrap), tr.layer(spanHook)
	m["seccomp.insns_per_syscall"] = ratio(pre.FilterSteps, pre.Syscalls)
	m["vm.insns_per_op"] = float64(pre.Steps) / n
	m["vm.self_us_per_op"] = us(opT.Self) / ops
	m["vm.ns_per_insn"] = float64(opT.Self) / float64(st.opSteps)
	m["kernel.syscalls_per_op"] = float64(pre.Syscalls) / n
	m["kernel.self_us_per_op"] = us(sysT.Self) / ops
	m["monitor.traps_per_op"] = float64(pre.Traps) / n
	m["monitor.trap_us_p50"] = us(durationQuantile(tr.traps, 0.50))
	m["monitor.trap_us_p99"] = us(durationQuantile(tr.traps, 0.99))
	m["monitor.self_us_per_op"] = us(trapT.Self) / ops
	m["monitor.sim_cycles_per_op"] = float64(pre.MonitorCycles) / n
	for i, s := range stageNames {
		m["monitor.sim_"+s+"_cycles_per_op"] = float64(pre.Stage[i]) / n
	}
	m["monitor.cache_hit_ratio"] = ratio(pre.CacheHits, pre.CacheHits+pre.CacheMisses)
	m["shadow.hook_calls_per_op"] = float64(st.prefixHooks) / n
	m["shadow.self_us_per_op"] = us(hookT.Self) / ops
	// Serve tenants are never restarted after a failure or hot-reloaded
	// (their planned relaunches are not restarts); a kill fails an op.
	killed := 0
	for _, t := range tenants {
		if t.prot.Proc.Killed() {
			killed++
		}
	}
	m["fleet.restarts_per_tenant"] = 0
	m["fleet.kills_per_tenant"] = float64(killed) / float64(len(tenants))
	m["fleet.reloads_per_tenant"] = 0
	m["runtime.gc_cpu_pct"] = gcCPUPct(st.rt0, st.rt1)
	m["trace.overhead_pct"] = 100 * (st.prefixDur.Seconds()/ref.prefixDur.Seconds() - 1)
	return res, nil
}

// setupMetrics reads the per-layer set-up costs off the tracer.
func setupMetrics(m map[string]float64, tr *tracer) {
	m["analysis.compile_ms"] = tr.setupMs(spanCompile)
	m["seccomp.filter_build_ms"] = tr.setupMs(spanFilter)
	m["vm.new_ms"] = tr.setupMs(spanVMNew)
	m["monitor.attach_ms"] = tr.setupMs(spanAttach)
	m["workload.init_ms"] = tr.setupMs(spanInit)
	if n := tr.setup[spanAttach].Count; n > 0 {
		m["monitor.attach_alloc_bytes"] = float64(tr.attachAlloc) / float64(n)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
