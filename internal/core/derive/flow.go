// Syscall-flow derivation (SFIP-style): the program's syscall transition
// graph — which syscall number may legally follow which over any path of
// the instruction-level CFG — for the monitor's syscall-flow (SF) context.
//
// The derivation is interprocedural. Every non-wrapper function gets a
// summary (FIRST: the nrs its invocation can emit first; LAST: the nrs it
// can emit last before returning; EMPTY: whether it can complete without
// emitting), computed by a forward dataflow over the function's CFG where
// the abstract state at an instruction is the set of possibly-last-emitted
// nrs plus a TOP element meaning "nothing emitted yet since function
// entry". A direct call to a wrapper is an emission point; a direct call
// to any other function composes that function's summary; an indirect
// call composes the union of the summaries of its refined target set
// (which falls back to the coarse frontier exactly where the refinement
// does, so the flow graph inherits its soundness).
//
// The composition is monotone in the target sets: more targets only add
// FIRST/LAST members and EMPTY, so only add edges. Since coarse ⊇ refined
// at every site, the graph derived with no refinement (the binary-only
// extractor's) is a superset of the one derived with the compiler's
// points-to refinement: every ordering the traced SF context admits, the
// extracted one admits too, while orderings only reachable through targets
// the points-to analysis pruned are the extraction's looseness.
//
// The program graph unions the transition edges contributed by every
// function body — so any function the harness invokes at top level has
// its internal orderings admitted — while the *cross-function* ordering
// (which function-level sequences are legal, and which nr may start a
// fresh process) is exactly what the entry function's CFG composes.
// Programs without an entry function produce an empty graph, which
// constrains nothing.

package derive

import (
	"sort"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
)

// summary is one function's emission summary, and equally the emission
// effect of one call instruction.
type summary struct {
	first map[uint32]bool // nrs that can be emitted first
	last  map[uint32]bool // nrs that can be emitted last
	empty bool            // can complete without emitting
}

func newSummary() *summary {
	return &summary{first: map[uint32]bool{}, last: map[uint32]bool{}}
}

// flowState is the abstract dataflow state before one instruction: the set
// of nrs that may have been emitted last, plus top ("nothing emitted yet").
type flowState struct {
	top bool
	nrs map[uint32]bool
}

func (s *flowState) clone() flowState {
	c := flowState{top: s.top, nrs: make(map[uint32]bool, len(s.nrs))}
	for nr := range s.nrs {
		c.nrs[nr] = true
	}
	return c
}

// join unions o into s and reports whether s changed.
func (s *flowState) join(o flowState) bool {
	changed := false
	if o.top && !s.top {
		s.top = true
		changed = true
	}
	for nr := range o.nrs {
		if !s.nrs[nr] {
			if s.nrs == nil {
				s.nrs = map[uint32]bool{}
			}
			s.nrs[nr] = true
			changed = true
		}
	}
	return changed
}

// flowEngine carries the summary fixpoint state.
type flowEngine struct {
	d         *deriver
	summaries map[string]*summary
	changed   bool
}

// syscallFlow derives the transition graph into meta.SyscallFlow.
func (d *deriver) syscallFlow() {
	// A program without an entry function derives the empty graph: with no
	// composition root there is no sound start set, and an empty Start
	// would reject every first syscall. Empty constrains nothing instead
	// (the pre-SF compatibility behavior).
	if d.prog.Entry == "" || d.prog.Func(d.prog.Entry) == nil {
		return
	}
	fe := &flowEngine{d: d, summaries: map[string]*summary{}}
	// Deterministic function order for the fixpoint sweeps.
	names := make([]string, 0, len(d.prog.Funcs))
	for _, f := range d.prog.Funcs {
		if _, isWrapper := d.wrapperNr[f.Name]; isWrapper {
			continue
		}
		names = append(names, f.Name)
		fe.summaries[f.Name] = newSummary()
	}
	sort.Strings(names)

	// Summary fixpoint: FIRST/LAST/EMPTY only grow, so iteration
	// terminates.
	for {
		fe.changed = false
		for _, name := range names {
			fe.analyze(d.prog.Func(name), nil)
		}
		if !fe.changed {
			break
		}
	}

	// Final pass with stable summaries accumulates the edges.
	g := d.meta.SyscallFlow
	for _, name := range names {
		fe.analyze(d.prog.Func(name), g)
	}
	if entry := fe.summaries[d.prog.Entry]; entry != nil {
		for _, nr := range sortedNrs(entry.first) {
			g.AddStart(nr)
		}
	}
	d.counts.FlowNodes = len(g.Nodes)
	d.counts.FlowEdges = g.EdgeCount()
	d.counts.FlowStarts = len(g.Start)
}

// effectOf resolves the emission effect of the instruction at f.Code[idx],
// or nil when the instruction cannot emit. Unknown targets and empty
// target sets contribute an empty (no-emission) effect, which is the
// permissive direction: it never rejects a benign ordering.
func (fe *flowEngine) effectOf(f *ir.Function, idx int) *summary {
	in := &f.Code[idx]
	switch in.Kind {
	case ir.Call:
		eff := newSummary()
		fe.addCallee(eff, in.Sym)
		return eff
	case ir.CallInd:
		eff := newSummary()
		targets := fe.d.targets[siteKey{fn: f.Name, idx: idx}]
		if len(targets) == 0 {
			eff.empty = true
		}
		for t := range targets {
			fe.addCallee(eff, t)
		}
		return eff
	}
	return nil
}

// addCallee unions one possible callee's effect into eff.
func (fe *flowEngine) addCallee(eff *summary, t string) {
	if nr, ok := fe.d.wrapperNr[t]; ok {
		eff.first[nr] = true
		eff.last[nr] = true
		return
	}
	sum := fe.summaries[t]
	if sum == nil {
		eff.empty = true
		return
	}
	for nr := range sum.first {
		eff.first[nr] = true
	}
	for nr := range sum.last {
		eff.last[nr] = true
	}
	if sum.empty {
		eff.empty = true
	}
}

// analyze runs the intra-function dataflow for f to a fixpoint, updating
// f's summary. When g is non-nil the pass also accumulates transition
// edges and emission nodes into the graph (done once summaries are
// stable; edges derived from partial summaries would only be a subset).
func (fe *flowEngine) analyze(f *ir.Function, g *metadata.FlowGraph) {
	if f == nil || len(f.Code) == 0 {
		return
	}
	sum := fe.summaries[f.Name]
	in := make([]flowState, len(f.Code))
	reached := make([]bool, len(f.Code))
	in[0] = flowState{top: true, nrs: map[uint32]bool{}}
	reached[0] = true
	work := []int{0}
	push := func(idx int, st flowState) {
		if idx < 0 || idx >= len(f.Code) {
			return
		}
		if !reached[idx] {
			reached[idx] = true
			in[idx] = st.clone()
			work = append(work, idx)
			return
		}
		if in[idx].join(st) {
			work = append(work, idx)
		}
	}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[idx]
		instr := &f.Code[idx]
		switch instr.Kind {
		case ir.Ret:
			for nr := range st.nrs {
				if !sum.last[nr] {
					sum.last[nr] = true
					fe.changed = true
				}
			}
			if st.top && !sum.empty {
				sum.empty = true
				fe.changed = true
			}
			continue
		case ir.Jump:
			push(instr.ToIndex, st)
			continue
		case ir.BranchNZ:
			push(instr.ToIndex, st)
			push(idx+1, st)
			continue
		case ir.Syscall:
			// Raw syscall outside a wrapper: validated programs keep
			// Syscall inside wrappers (which this derivation treats as
			// atomic emissions and never analyzes), so nothing to do here
			// beyond falling through.
			push(idx+1, st)
			continue
		}
		eff := fe.effectOf(f, idx)
		if eff == nil {
			push(idx+1, st)
			continue
		}
		out := flowState{nrs: map[uint32]bool{}}
		if len(eff.first) > 0 {
			if g != nil {
				addEdges(g, st.nrs, eff.first)
			}
			if st.top {
				for nr := range eff.first {
					if !sum.first[nr] {
						sum.first[nr] = true
						fe.changed = true
					}
					if g != nil {
						g.Nodes[nr] = true
					}
				}
			}
		}
		for nr := range eff.last {
			out.nrs[nr] = true
			if g != nil {
				g.Nodes[nr] = true
			}
		}
		if eff.empty {
			out.join(st)
		}
		push(idx+1, out)
	}
}

// addEdges adds the cross product prev × next to the graph in sorted
// order, keeping graph construction deterministic.
func addEdges(g *metadata.FlowGraph, prev, next map[uint32]bool) {
	ns := sortedNrs(next)
	for _, a := range sortedNrs(prev) {
		for _, b := range ns {
			g.AddEdge(a, b)
		}
	}
}

func sortedNrs(set map[uint32]bool) []uint32 {
	nrs := make([]uint32, 0, len(set))
	for nr := range set {
		nrs = append(nrs, nr)
	}
	sort.Slice(nrs, func(i, j int) bool { return nrs[i] < nrs[j] })
	return nrs
}
