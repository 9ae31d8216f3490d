package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// Span names. Each brackets one call into a layer, made from this
// package: the simulator itself is never instrumented.
const (
	spanCompile  = "analysis.compile"
	spanFilter   = "seccomp.filter_build"
	spanVMNew    = "vm.new"
	spanRegister = "kernel.register"
	spanAttach   = "monitor.attach"
	spanInit     = "workload.init"
	spanOp       = "op"
	spanSyscall  = "kernel.syscall"
	spanTrap     = "monitor.trap"
	spanHook     = "shadow.hook"
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent indexes the enclosing recorded span (-1 for a root) and
// Op is the op the span belongs to (-1 during set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// layerTime accumulates the closed spans of one name. Self time is the
// span's duration minus the time its direct children cover.
type layerTime struct {
	Count int64
	Total time.Duration
	Self  time.Duration
}

type openSpan struct {
	name  string
	start time.Time
	child time.Duration
	idx   int
}

// tracer records spans in memory. Spans beyond maxSpans still feed the
// per-name totals but are not kept individually. Totals are kept apart
// for set-up (op < 0) and for ops. A nil *tracer is the untraced run: do
// runs its function and nothing is recorded.
type tracer struct {
	t0       time.Time
	op       int
	maxSpans int
	spans    []span
	dropped  int
	stack    []openSpan
	setup    map[string]*layerTime
	ops      map[string]*layerTime
	// traps holds the duration of every monitor trap inside an op.
	traps []time.Duration
	// attachAlloc sums heap bytes allocated inside monitor.Attach.
	attachAlloc uint64
}

func newTracer(maxSpans int) *tracer {
	return &tracer{t0: time.Now(), op: -1, maxSpans: maxSpans,
		setup: map[string]*layerTime{}, ops: map[string]*layerTime{}}
}

func (t *tracer) begin(name string) {
	now := time.Now()
	idx := -1
	if len(t.spans) < t.maxSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Start: int64(now.Sub(t.t0)), Parent: parent, Op: t.op})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, openSpan{name: name, start: now, idx: idx})
}

func (t *tracer) end() time.Duration {
	now := time.Now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now.Sub(o.start)
	if o.idx >= 0 {
		t.spans[o.idx].End = int64(now.Sub(t.t0))
	}
	totals := t.ops
	if t.op < 0 {
		totals = t.setup
	}
	lt := totals[o.name]
	if lt == nil {
		lt = &layerTime{}
		totals[o.name] = lt
	}
	lt.Count++
	lt.Total += d
	lt.Self += d - o.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	return d
}

// do runs f inside a span named name (just runs f on a nil tracer).
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	t.begin(name)
	err := f()
	t.end()
	return err
}

// layer returns the op-time totals of one span name.
func (t *tracer) layer(name string) layerTime {
	if lt := t.ops[name]; lt != nil {
		return *lt
	}
	return layerTime{}
}

// setupMs is the mean set-up duration of one span name in milliseconds.
func (t *tracer) setupMs(name string) float64 {
	lt := t.setup[name]
	if lt == nil || lt.Count == 0 {
		return 0
	}
	return float64(lt.Total) / float64(lt.Count) / 1e6
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// launch does what core.Launch does, one call at a time, so each layer's
// set-up gets its own span, and installs the timed wrappers around the
// kernel, the monitor and the shadow runtime.
func (t *tracer) launch(art *core.Artifact, k *kernel.Kernel, cfg monitor.Config, vmOpts []vm.Option) (*core.Protected, error) {
	opts := append([]vm.Option{vm.WithOS(&tracedOS{k: k, tr: t}), vm.WithClock(k.Clock)}, vmOpts...)
	var m *vm.Machine
	if err := t.do(spanVMNew, func() (err error) {
		m, err = vm.New(art.Prog, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	var proc *kernel.Process
	t.do(spanRegister, func() error {
		proc = k.Register(m)
		return nil
	})
	var mon *monitor.Monitor
	before := heapAllocBytes()
	if err := t.do(spanAttach, func() (err error) {
		mon, err = monitor.Attach(proc, art.Meta, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	t.attachAlloc += heapAllocBytes() - before
	proc.SetTracer(&tracedMonitor{mon: mon, tr: t})
	m.Runtime = &tracedRuntime{rt: m.Runtime, tr: t}
	return &core.Protected{Machine: m, Proc: proc, Monitor: mon, Kernel: k}, nil
}

// tracedOS times every syscall the guest makes, delegating to the kernel.
type tracedOS struct {
	k  *kernel.Kernel
	tr *tracer
}

func (o *tracedOS) Syscall(m *vm.Machine) (int64, error) {
	o.tr.begin(spanSyscall)
	r, err := o.k.Syscall(m)
	o.tr.end()
	return r, err
}

// tracedMonitor times every seccomp trap the monitor handles.
type tracedMonitor struct {
	mon *monitor.Monitor
	tr  *tracer
}

func (w *tracedMonitor) Trap(p *kernel.Process) error {
	w.tr.begin(spanTrap)
	err := w.mon.Trap(p)
	if d := w.tr.end(); w.tr.op >= 0 {
		w.tr.traps = append(w.tr.traps, d)
	}
	return err
}

// tracedRuntime times the guest's shadow-memory intrinsics.
type tracedRuntime struct {
	rt vm.RuntimeHooks
	tr *tracer
}

func (r *tracedRuntime) CtxWriteMem(m *vm.Machine, addr uint64, size int64) error {
	r.tr.begin(spanHook)
	err := r.rt.CtxWriteMem(m, addr, size)
	r.tr.end()
	return err
}

func (r *tracedRuntime) CtxBindMem(m *vm.Machine, site uint64, pos int, addr uint64) error {
	r.tr.begin(spanHook)
	err := r.rt.CtxBindMem(m, site, pos, addr)
	r.tr.end()
	return err
}

func (r *tracedRuntime) CtxBindConst(m *vm.Machine, site uint64, pos int, val int64) error {
	r.tr.begin(spanHook)
	err := r.rt.CtxBindConst(m, site, pos, val)
	r.tr.end()
	return err
}
