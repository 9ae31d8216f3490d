// Package derive is BASTION's one policy-derivation core. Given a linked
// program, the sensitive syscall set, and an optional per-indirect-callsite
// target refinement, Policy derives every address-keyed context the
// monitor enforces from the program's call sites:
//
//   - call types (§6.1): a syscall is directly callable when some Call
//     targets its wrapper, indirectly callable when the wrapper's address
//     is materialized (FuncAddr);
//   - control flow (§6.2): callee→valid-caller relations by reverse
//     reachability from the sensitive wrappers over direct call edges,
//     stopping at the entry function and not crossing indirect callsites;
//   - indirect-call policy (§7.3): per indirect callsite, the coarse
//     frontier (every address-taken function of matching signature), the
//     refined target set, and the syscalls each may start a path to;
//   - syscall flow (SF): the FIRST/LAST/EMPTY transition-graph engine of
//     flow.go, composed over the refined indirect target sets.
//
// Both front ends call Policy and differ only in Refine: the compiler pass
// (internal/core/analysis) passes its points-to result, the binary-only
// extractor (internal/core/binscan) passes nil, so its refined sets are
// the coarse frontier. Recovering facts depends on what the front end can
// see; deriving policy from them does not.
package derive

import (
	"sort"

	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// Refine resolves the indirect callsite f.Code[idx] to the functions its
// target register may hold. exact=false means the front end could not
// bound the target; the site then keeps its coarse frontier. Exact targets
// are intersected with the coarse frontier, so a refined set is always a
// subset of the coarse one. A nil Refine leaves every site coarse.
type Refine func(f *ir.Function, idx int) (targets map[string]bool, exact bool)

// Counts are the derivation statistics both front ends' Stats map from.
type Counts struct {
	TotalCallsites     int
	DirectCallsites    int
	IndirectCallsites  int
	SensitiveCallsites int // direct callsites invoking sensitive wrappers
	SensitiveIndirect  int // address materializations of sensitive wrappers

	IndirectEdgesCoarse  int // Σ coarse targets over indirect callsites
	IndirectEdgesRefined int // Σ refined targets (always ≤ coarse)
	AllowedPairsCoarse   int // (syscall, callsite) AllowedIndirectCoarse pairs
	AllowedPairsRefined  int // the same pairs under AllowedIndirect
	ExactIndirectSites   int // callsites whose refinement was exact
	EscapedIndirectSites int // callsites that kept the coarse frontier

	FlowNodes  int // distinct syscall nrs the program can emit
	FlowEdges  int // legal nr→nr transitions
	FlowStarts int // nrs that may open a fresh process
}

// siteKey names one instruction: (function, instruction index).
type siteKey struct {
	fn  string
	idx int
}

type deriver struct {
	prog      *ir.Program
	meta      *metadata.Metadata
	counts    Counts
	sensitive map[uint32]bool
	// wrapperNr maps wrapper function name -> syscall number.
	wrapperNr map[string]uint32
	// callers maps callee -> set of direct callers.
	callers map[string]map[string]bool
	// targets maps each indirect callsite to its refined target set.
	targets map[siteKey]map[string]bool
}

// Policy derives the call-type, control-flow, indirect-call and
// syscall-flow contexts of the linked program prog. The returned metadata
// carries Entry, Funcs, Callsites, CallTypes, IndirectTargets,
// ValidCallers, IndirectSites, AllowedIndirect, AllowedIndirectCoarse and
// SyscallFlow; argument sites are the front end's to add.
func Policy(prog *ir.Program, sensitive []uint32, refine Refine) (*metadata.Metadata, Counts) {
	d := &deriver{
		prog:      prog,
		meta:      metadata.New(),
		sensitive: make(map[uint32]bool, len(sensitive)),
		wrapperNr: map[string]uint32{},
		callers:   map[string]map[string]bool{},
		targets:   map[siteKey]map[string]bool{},
	}
	for _, nr := range sensitive {
		d.sensitive[nr] = true
	}
	for _, f := range prog.Funcs {
		if nr, ok := ir.SyscallNumber(f); ok {
			d.wrapperNr[f.Name] = uint32(nr)
		}
	}
	d.scanCallsites()
	d.indirectPolicy(d.validCallers(), refine)
	d.syscallFlow()
	return d.meta, d.counts
}

// scanCallsites walks every instruction once, filling Funcs, Callsites,
// CallTypes and IndirectTargets and building the direct call graph.
func (d *deriver) scanCallsites() {
	meta := d.meta
	meta.Entry = d.prog.Entry
	for _, f := range d.prog.Funcs {
		meta.Funcs[f.Name] = metadata.FuncInfo{
			Name:  f.Name,
			Entry: f.Base,
			End:   f.Base + uint64(len(f.Code))*ir.InstrSize,
		}
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Kind {
			case ir.Call:
				d.counts.TotalCallsites++
				d.counts.DirectCallsites++
				meta.Callsites[f.InstrAddr(i+1)] = metadata.Callsite{
					Addr:    f.InstrAddr(i),
					RetAddr: f.InstrAddr(i + 1),
					Caller:  f.Name,
					Kind:    metadata.SiteDirect,
					Target:  in.Sym,
				}
				if d.callers[in.Sym] == nil {
					d.callers[in.Sym] = map[string]bool{}
				}
				d.callers[in.Sym][f.Name] = true
				if d.markCallType(in.Sym, true) {
					d.counts.SensitiveCallsites++
				}
			case ir.CallInd:
				d.counts.TotalCallsites++
				d.counts.IndirectCallsites++
				meta.Callsites[f.InstrAddr(i+1)] = metadata.Callsite{
					Addr:    f.InstrAddr(i),
					RetAddr: f.InstrAddr(i + 1),
					Caller:  f.Name,
					Kind:    metadata.SiteIndirect,
					TypeSig: in.TypeSig,
				}
			case ir.FuncAddr:
				meta.IndirectTargets[in.Sym] = true
				if d.markCallType(in.Sym, false) {
					d.counts.SensitiveIndirect++
				}
			}
		}
	}
}

// markCallType records a direct call to (or the address materialization
// of) fn when fn is a syscall wrapper, and reports whether it wraps a
// sensitive syscall.
func (d *deriver) markCallType(fn string, direct bool) bool {
	nr, ok := d.wrapperNr[fn]
	if !ok {
		return false
	}
	ct := d.meta.CallTypes[nr]
	ct.Nr = nr
	ct.Name = kernel.Name(nr)
	ct.Wrapper = fn
	if direct {
		ct.Direct = true
	} else {
		ct.Indirect = true
	}
	d.meta.CallTypes[nr] = ct
	return d.sensitive[nr]
}

// validCallers runs the §6.2 reverse reachability from every sensitive
// wrapper, filling ValidCallers with the union, and returns the
// per-syscall sets of functions on a direct-call path to each wrapper.
func (d *deriver) validCallers() map[uint32]map[string]bool {
	reaches := map[uint32]map[string]bool{}
	for _, fn := range sortedNames(d.wrapperNr) {
		nr := d.wrapperNr[fn]
		if !d.sensitive[nr] {
			continue
		}
		set := map[string]bool{fn: true}
		work := []string{fn}
		for len(work) > 0 {
			callee := work[0]
			work = work[1:]
			cs := d.callers[callee]
			if len(cs) == 0 {
				continue
			}
			if d.meta.ValidCallers[callee] == nil {
				d.meta.ValidCallers[callee] = map[string]bool{}
			}
			for _, caller := range sortedNames(cs) {
				d.meta.ValidCallers[callee][caller] = true
				// Recursion stops at main; indirect reachability of the
				// caller is recorded via IndirectTargets and ends monitor
				// unwinding.
				if caller == d.prog.Entry || set[caller] {
					continue
				}
				set[caller] = true
				work = append(work, caller)
			}
		}
		reaches[nr] = set
	}
	return reaches
}

// indirectPolicy fills IndirectSites, AllowedIndirectCoarse and
// AllowedIndirect: an indirect callsite may start a path to syscall nr iff
// a function in its target set reaches nr (the statically expected
// partial traces of §7.3). The coarse policy admits every address-taken
// function with the callsite's signature; the refined policy uses what
// refine resolved, which shrinks that to the functions whose address
// actually flows into the callsite.
func (d *deriver) indirectPolicy(reaches map[uint32]map[string]bool, refine Refine) {
	meta := d.meta
	meta.AllowedIndirectCoarse = metadata.NrAddrSets{}
	meta.IndirectSites = map[uint64]metadata.IndirectSite{}
	for _, f := range d.prog.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			if in.Kind != ir.CallInd {
				continue
			}
			coarse := Frontier(d.prog, meta.IndirectTargets, in.TypeSig)
			refined, exact := coarse, false
			if refine != nil {
				var vals map[string]bool
				if vals, exact = refine(f, i); exact {
					refined = map[string]bool{}
					for t := range vals {
						if coarse[t] {
							refined[t] = true
						}
					}
				}
			}
			d.targets[siteKey{fn: f.Name, idx: i}] = refined
			addr := f.InstrAddr(i)
			meta.IndirectSites[addr] = metadata.IndirectSite{
				Addr:    addr,
				Caller:  f.Name,
				TypeSig: in.TypeSig,
				Targets: sortedNames(refined),
				Coarse:  sortedNames(coarse),
				Exact:   exact,
			}
			d.counts.IndirectEdgesCoarse += len(coarse)
			d.counts.IndirectEdgesRefined += len(refined)
			if exact {
				d.counts.ExactIndirectSites++
			} else {
				d.counts.EscapedIndirectSites++
			}
			for nr, set := range reaches {
				if reachesAny(set, coarse) {
					addAddr(meta.AllowedIndirectCoarse, nr, addr)
				}
				if reachesAny(set, refined) {
					addAddr(meta.AllowedIndirect, nr, addr)
				}
			}
		}
	}
	// A syscall constrained under the coarse policy stays constrained when
	// refinement empties its callsite set: a present-but-empty entry
	// rejects every indirect path, an absent one would unconstrain it.
	for nr, coarse := range meta.AllowedIndirectCoarse {
		if meta.AllowedIndirect[nr] == nil {
			meta.AllowedIndirect[nr] = metadata.AddrSet{}
		}
		d.counts.AllowedPairsCoarse += len(coarse)
		d.counts.AllowedPairsRefined += len(meta.AllowedIndirect[nr])
	}
}

// Frontier is the coarse target set of an indirect callsite with type
// signature sig: every address-taken function whose signature matches, or
// every one of them when the callsite is untyped.
func Frontier(prog *ir.Program, addressTaken map[string]bool, sig string) map[string]bool {
	set := map[string]bool{}
	for t := range addressTaken {
		if f := prog.Func(t); sig == "" || (f != nil && f.TypeSig == sig) {
			set[t] = true
		}
	}
	return set
}

func addAddr(sets metadata.NrAddrSets, nr uint32, addr uint64) {
	if sets[nr] == nil {
		sets[nr] = metadata.AddrSet{}
	}
	sets[nr][addr] = true
}

// reachesAny reports whether any function in targets is in the
// reachability set.
func reachesAny(set map[string]bool, targets map[string]bool) bool {
	for t := range targets {
		if set[t] {
			return true
		}
	}
	return false
}

func sortedNames[V any](set map[string]V) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
