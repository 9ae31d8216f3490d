package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bastion/internal/attacks"
	"bastion/internal/core/monitor"
	"bastion/internal/fleet"
	"bastion/internal/workload"
)

// The fleet's control plane: each shard runs its own pool of workers, so
// the fleet's concurrency is their product.
const (
	fleetShards  = 2
	fleetWorkers = 1
)

// reloadSpec is the policy every fleet tenant hot-reloads to halfway
// through its units: verdict cache plus tree-compiled filter.
var reloadSpec = fleet.PolicySpec{VerdictCache: true, TreeFilter: true}

// attackPool lists, per app, the catalog attacks a tenant of that app can
// replay.
func attackPool() map[string][]string {
	pool := map[string][]string{}
	for _, s := range attacks.Catalog() {
		pool[s.App] = append(pool[s.App], s.ID)
	}
	return pool
}

// churnPlan draws the fleet waves from one seeded stream, so a seed fixes
// every wave's schedule and its choice of malicious tenants.
type churnPlan struct {
	rng   *rand.Rand
	pool  map[string][]string
	sz    sizes
	trace bool
}

func newChurnPlan(seed int64, sz sizes, trace bool) *churnPlan {
	return &churnPlan{rng: rand.New(rand.NewSource(seed)), pool: attackPool(), sz: sz, trace: trace}
}

func (p *churnPlan) next() fleet.Config {
	cfg := fleet.DefaultConfig(p.sz.WaveTenants, p.sz.TenantUnits, apps...)
	cfg.Shards, cfg.Workers = fleetShards, fleetWorkers
	cfg.ReloadAt = p.sz.TenantUnits / 2
	spec := reloadSpec
	cfg.ReloadSpec = &spec
	cfg.Seed = p.rng.Int63()
	cfg.Trace = p.trace
	for i := 0; i < cfg.Tenants; i++ {
		if p.rng.Intn(16) != 0 {
			continue
		}
		ids := p.pool[apps[i%len(apps)]]
		if cfg.Malicious == nil {
			cfg.Malicious = map[int]string{}
		}
		cfg.Malicious[i] = ids[p.rng.Intn(len(ids))]
	}
	return cfg
}

// tenantOK checks one tenant of a wave: every unit served under the
// reloaded policy, a benign tenant never killed, and an injected attack
// stopped exactly as the catalog expects under full enforcement.
func tenantOK(cfg *fleet.Config, t *fleet.TenantResult) bool {
	ok := !t.Dead && !t.Compromised && t.Units == cfg.Units && t.Faults == 0 && t.Gen == 1
	id, malicious := cfg.Malicious[t.Index]
	if !malicious {
		return ok && t.Kills == 0 && t.Restarts == 0
	}
	s, _ := attacks.ByID(id)
	expectBlocked := s.BlockCT || s.BlockCF || s.BlockAI || s.BlockSF
	return ok && t.Attack != nil && !t.Attack.Completed && t.Attack.Killed == expectBlocked
}

// fleetCounts are simulated counts summed over a wave's tenants.
type fleetCounts struct {
	Tenants, Restarts, Kills int
	Reloads                  uint64
	// Cycles is set-up + init + steady state; MonitorCycles and Traps
	// are the steady state's.
	Cycles, MonitorCycles, Traps uint64
	CacheHits, CacheMisses       uint64
	// life is read off the tenants' monitor registries (traced waves
	// only) and spans each tenant's whole life, init included.
	life monitorLife
}

// monitorLife is the monitor's own telemetry over a tenant's life.
type monitorLife struct {
	Traps, TrapCycles uint64
	Stage             [len(stageNames)]uint64
}

// churnStats is what one run of the fleet loop observed.
type churnStats struct {
	waves, tenants, failed int
	windows                []window
	winLen                 time.Duration
	prefix                 fleetCounts
	// benign sums each app's benign steady state over the prefix.
	benign    map[string]workload.Result
	prefixDur time.Duration
	order     []string
	rt0, rt1  runtimeSample
	// pausedAlloc counts the heap bytes set-up samples allocated.
	pausedAlloc uint64
}

// churnLoop runs fleet waves back to back until seconds have passed and
// at least prefixWaves waves are done. An op is one tenant; its latency
// is the wave's per-tenant service time, the wave's CPU time ×
// concurrency / tenants, since fleet.Run times no tenant on its own. Between windows, smp (if
// set) takes its set-up samples with the clock stopped; the seconds of
// the run count the pauses.
func churnLoop(seed int64, seconds float64, sz sizes, trace bool, smp *setupSampler) (churnStats, error) {
	plan := newChurnPlan(seed, sz, trace)
	deadline := time.Duration(seconds * float64(time.Second))
	st := churnStats{winLen: churnWindow, benign: map[string]workload.Result{}}
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
		if i >= sz.PrefixWaves && at.wall.Sub(begin) >= deadline {
			break
		}
		if cur.ops > 0 && at.cpu-winStart.cpu >= st.winLen {
			if err := cur.close(winStart, at); err != nil {
				return st, err
			}
			st.windows = append(st.windows, cur)
			cur = window{}
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
		cfg := plan.next()
		waveStart := processCPU()
		rep, err := fleet.Run(cfg)
		took := processCPU() - waveStart
		if err != nil {
			return st, fmt.Errorf("wave %d: %w", i, err)
		}
		st.waves++
		st.tenants += len(rep.Results)
		for j := range rep.Results {
			if !tenantOK(&cfg, &rep.Results[j]) {
				st.failed++
			}
		}
		cur.ops += len(rep.Results)
		cur.lat = append(cur.lat, took.Seconds()*1e3*float64(fleetShards*fleetWorkers)/float64(len(rep.Results)))
		if i < sz.PrefixWaves {
			st.order = append(st.order, fmt.Sprintf("seed=%d malicious=%v", cfg.Seed, cfg.Malicious))
			st.addPrefix(&cfg, rep)
			if i+1 == sz.PrefixWaves {
				st.prefixDur = t0.since()
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

func (st *churnStats) addPrefix(cfg *fleet.Config, rep *fleet.Report) {
	c := &st.prefix
	for i := range rep.Results {
		t := &rep.Results[i]
		c.Tenants++
		c.Restarts += t.Restarts
		c.Kills += t.Kills
		c.Reloads += t.Reloads
		c.Cycles += t.SetupCycles + t.InitCycles + t.TotalCycles
		c.MonitorCycles += t.MonitorCycles
		c.Traps += t.Traps
		c.CacheHits += t.CacheHits
		c.CacheMisses += t.CacheMisses
		if _, malicious := cfg.Malicious[i]; !malicious {
			b := st.benign[t.App]
			b.Units += t.Units
			b.TotalCycles += t.TotalCycles
			b.MonitorCycles += t.MonitorCycles
			b.Traps += t.Traps
			st.benign[t.App] = b
		}
	}
	if cfg.Trace {
		merged := rep.MergedMetrics()
		trap := merged.Histogram("monitor_trap_cycles", nil)
		c.life.Traps += trap.Count()
		c.life.TrapCycles += trap.Sum()
		for i, s := range stageNames {
			c.life.Stage[i] += merged.Counter("monitor_cycles_" + s + "_total").Value()
		}
	}
}

// measureChurn runs the fleet-churn workload.
func measureChurn(w workloadSpec, o options) (*result, error) {
	if o.traced {
		return traceChurn(w, o)
	}
	// Set-up here is the fleet's per-tenant launch path, one tenant per
	// app, outside fleet.Run (which times nothing).
	smp := newSetupSampler(w, o)
	if _, err := smp.first(); err != nil {
		return nil, err
	}
	runtime.GC()
	st, err := churnLoop(o.seed, o.seconds, o.sizes, false, smp)
	if err != nil {
		return nil, err
	}
	setupS, err := smp.median()
	if err != nil {
		return nil, err
	}
	overhead, err := simOverhead(st.benign, o.sizes.TenantUnits)
	if err != nil {
		return nil, err
	}
	opsPerS, p50, p99, rss, wallRate := timing(st.windows, st.winLen)
	res := &result{attempted: st.tenants, failed: st.failed, order: st.order, metrics: map[string]float64{}}
	m := res.metrics
	m["setup_s"] = setupS
	m["ops_per_s"] = opsPerS
	m["op_p50_ms"] = p50
	m["op_p99_ms"] = p99
	m["alloc_bytes_per_op"] = float64(st.rt1.allocBytes-st.rt0.allocBytes-st.pausedAlloc) / float64(st.tenants)
	m["peak_rss_mb"] = rss
	m["sim_cycles_per_op"] = float64(st.prefix.Cycles) / float64(st.prefix.Tenants)
	m["sim_overhead_pct"] = overhead
	res.notes = append(res.notes, fmt.Sprintf("%d tenants in %d waves, %d windows of %v CPU time; prefix %d waves; %.1f tenants per wall second",
		st.tenants, st.waves, len(st.windows), st.winLen, o.sizes.PrefixWaves, wallRate))
	return res, nil
}

// traceChurn is the fleet's traced run. fleet.Run takes no injected
// components, so the layer spans come from the same launch calls made
// outside it, on the same apps and configs: each replicated tenant is set
// up, serves its units and hot-reloads halfway, all under the timed
// wrappers. The fleet metrics come from fleet.Report over traced waves,
// which must agree with an untraced reference pass.
func traceChurn(w workloadSpec, o options) (*result, error) {
	// As in traceServe, the second of two reference passes is timed.
	var ref churnStats
	for pass := 0; pass < 2; pass++ {
		var err error
		if ref, err = churnLoop(o.seed, 0, o.sizes, false, nil); err != nil {
			return nil, err
		}
	}

	tr := newTracer(o.sizes.MaxSpans)
	res := &result{metrics: map[string]float64{}, tracer: tr}
	m := res.metrics
	var repl counters
	ops := 0
	for r := 0; r < o.sizes.Setups; r++ {
		tenants, err := setupTenants(w, tr)
		if err != nil {
			return nil, err
		}
		for _, t := range tenants {
			gen, err := reloadGeneration(t)
			if err != nil {
				return nil, err
			}
			before := t.counters()
			tr.op = ops
			tr.begin(spanOp)
			err = serveWithReload(t, gen, o.sizes.TenantUnits)
			tr.end()
			tr.op = -1
			ops++
			if err != nil {
				return nil, fmt.Errorf("replicated %s tenant: %w", t.app, err)
			}
			repl.add(t.counters().sub(before))
		}
	}
	setupMetrics(m, tr)

	runtime.GC()
	st, err := churnLoop(o.seed, o.seconds, o.sizes, true, nil)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.order = st.tenants, st.failed+ref.failed, st.order
	traced := st.prefix
	traced.life = ref.prefix.life
	if traced != ref.prefix {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("traced fleet counters differ from untraced:\n  traced   %+v\n  untraced %+v", st.prefix, ref.prefix))
	}

	opT, sysT, trapT, hookT := tr.layer(spanOp), tr.layer(spanSyscall), tr.layer(spanTrap), tr.layer(spanHook)
	fc := st.prefix
	n := float64(fc.Tenants)
	perOp := func(v uint64) float64 { return float64(v) / float64(ops) }
	m["seccomp.insns_per_syscall"] = ratio(repl.FilterSteps, repl.Syscalls)
	m["vm.insns_per_op"] = perOp(repl.Steps)
	m["vm.self_us_per_op"] = us(opT.Self) / float64(ops)
	m["vm.ns_per_insn"] = float64(opT.Self) / float64(repl.Steps)
	m["kernel.syscalls_per_op"] = perOp(repl.Syscalls)
	m["kernel.self_us_per_op"] = us(sysT.Self) / float64(ops)
	m["monitor.traps_per_op"] = float64(fc.life.Traps) / n
	m["monitor.trap_us_p50"] = us(durationQuantile(tr.traps, 0.50))
	m["monitor.trap_us_p99"] = us(durationQuantile(tr.traps, 0.99))
	m["monitor.self_us_per_op"] = us(trapT.Self) / float64(ops)
	m["monitor.sim_cycles_per_op"] = float64(fc.life.TrapCycles) / n
	for i, s := range stageNames {
		m["monitor.sim_"+s+"_cycles_per_op"] = float64(fc.life.Stage[i]) / n
	}
	m["monitor.cache_hit_ratio"] = ratio(fc.CacheHits, fc.CacheHits+fc.CacheMisses)
	m["shadow.hook_calls_per_op"] = perOp(uint64(hookT.Count))
	m["shadow.self_us_per_op"] = us(hookT.Self) / float64(ops)
	m["fleet.restarts_per_tenant"] = float64(fc.Restarts) / n
	m["fleet.kills_per_tenant"] = float64(fc.Kills) / n
	m["fleet.reloads_per_tenant"] = float64(fc.Reloads) / n
	m["runtime.gc_cpu_pct"] = gcCPUPct(st.rt0, st.rt1)
	m["trace.overhead_pct"] = 100 * (st.prefixDur.Seconds()/ref.prefixDur.Seconds() - 1)
	return res, nil
}

// reloadGeneration builds the policy generation a fleet tenant reloads
// to, as fleet.Run does once per app.
func reloadGeneration(t *tenant) (*monitor.Generation, error) {
	cfg := t.cfg
	cfg.VerdictCache, cfg.TreeFilter, cfg.Filter = reloadSpec.VerdictCache, reloadSpec.TreeFilter, nil
	filter, err := monitor.BuildFilter(t.art.Meta, cfg)
	if err != nil {
		return nil, err
	}
	return monitor.NewGeneration(1, t.art.Meta, cfg, filter)
}

// serveWithReload serves a replicated fleet tenant's units, staging the
// reload generation halfway through, as the fleet does.
func serveWithReload(t *tenant, gen *monitor.Generation, units int) error {
	half := units / 2
	r, err := workload.Continue(t.target, t.prot, 0, half)
	addResult(&t.served, r)
	if err != nil {
		return err
	}
	if err := t.prot.Monitor.StageGeneration(gen); err != nil {
		return err
	}
	r, err = workload.Continue(t.target, t.prot, half, units-half)
	addResult(&t.served, r)
	return err
}
