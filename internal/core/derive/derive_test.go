package derive

import (
	"reflect"
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/core/metadata"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// buildDispatch is main → mmap, then one indirect i64() dispatch whose
// coarse frontier is {hook_chmod, hook_getpid}: hook_chmod reaches the
// sensitive chmod, hook_getpid only the non-sensitive getpid. hook_other
// is address-taken too but has another signature, so it stays outside the
// frontier.
func buildDispatch() *ir.Program {
	p := guestlibc.NewProgram()

	hc := ir.NewBuilder("hook_chmod", 0)
	hc.Call("chmod", ir.Imm(0), ir.Imm(0o700))
	hc.Ret(ir.Imm(0))
	p.AddFunc(hc.Build())

	hg := ir.NewBuilder("hook_getpid", 0)
	hg.Call("getpid")
	hg.Ret(ir.Imm(0))
	p.AddFunc(hg.Build())

	ho := ir.NewBuilder("hook_other", 1).SetTypeSig("i64(i64)")
	ho.Ret(ir.Imm(0))
	p.AddFunc(ho.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	m.FuncAddr("hook_other")
	m.FuncAddr("hook_getpid")
	tgt := m.FuncAddr("hook_chmod")
	m.CallInd(tgt, "i64()")
	m.Call("exit_group", ir.Imm(0))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())
	return p
}

// onlySite returns the program's single indirect callsite.
func onlySite(t *testing.T, meta *metadata.Metadata) metadata.IndirectSite {
	t.Helper()
	if len(meta.IndirectSites) != 1 {
		t.Fatalf("want 1 indirect site, got %d", len(meta.IndirectSites))
	}
	for _, s := range meta.IndirectSites {
		return s
	}
	panic("unreachable")
}

// TestPolicyRefine pins the indirect-call policy under the two front
// ends' refinements: nil keeps every site at its coarse frontier, and a
// refinement that empties a site leaves the syscalls the coarse policy
// constrained present-but-empty, so they stay constrained.
func TestPolicyRefine(t *testing.T) {
	coarse := []string{"hook_chmod", "hook_getpid"}

	meta, c := policy(t, buildDispatch(), nil)
	site := onlySite(t, meta)
	if !reflect.DeepEqual(site.Coarse, coarse) || !reflect.DeepEqual(site.Targets, site.Coarse) || site.Exact {
		t.Fatalf("nil refine: site = %+v, want Targets == Coarse == %v and Exact false", site, coarse)
	}
	if !meta.AllowedIndirect[kernel.SysChmod][site.Addr] || !meta.AllowedIndirectCoarse[kernel.SysChmod][site.Addr] {
		t.Fatalf("nil refine: chmod must be allowed from %#x: refined %v coarse %v",
			site.Addr, meta.AllowedIndirect, meta.AllowedIndirectCoarse)
	}
	if _, ok := meta.AllowedIndirect[kernel.SysGetpid]; ok {
		t.Error("getpid is not sensitive and must not get an indirect policy")
	}
	if c.IndirectEdgesCoarse != 2 || c.IndirectEdgesRefined != 2 || c.EscapedIndirectSites != 1 ||
		c.ExactIndirectSites != 0 || c.AllowedPairsCoarse != 1 || c.AllowedPairsRefined != 1 {
		t.Errorf("nil refine counts = %+v", c)
	}
	if !meta.SyscallFlow.Allows(kernel.SysMmap, kernel.SysChmod) || !meta.SyscallFlow.Allows(kernel.SysMmap, kernel.SysGetpid) {
		t.Errorf("nil refine: the flow graph must compose the whole frontier, edges %v", meta.SyscallFlow.Edges)
	}

	// An exact refinement to getpid alone (plus a name outside the
	// frontier, which the intersection drops) empties chmod's site set.
	toGetpid := func(f *ir.Function, idx int) (map[string]bool, bool) {
		return map[string]bool{"hook_getpid": true, "hook_other": true}, true
	}
	meta, c = policy(t, buildDispatch(), toGetpid)
	site = onlySite(t, meta)
	if !reflect.DeepEqual(site.Targets, []string{"hook_getpid"}) || !reflect.DeepEqual(site.Coarse, coarse) || !site.Exact {
		t.Fatalf("refined: site = %+v, want Targets [hook_getpid] ⊆ Coarse %v, Exact", site, coarse)
	}
	refined, present := meta.AllowedIndirect[kernel.SysChmod]
	if !present || len(refined) != 0 {
		t.Fatalf("refined: AllowedIndirect[chmod] = %v (present %v), want present and empty", refined, present)
	}
	if !meta.AllowedIndirectCoarse[kernel.SysChmod][site.Addr] {
		t.Error("refined: the coarse policy must still admit chmod from the site")
	}
	if c.IndirectEdgesCoarse != 2 || c.IndirectEdgesRefined != 1 || c.ExactIndirectSites != 1 ||
		c.EscapedIndirectSites != 0 || c.AllowedPairsCoarse != 1 || c.AllowedPairsRefined != 0 {
		t.Errorf("refined counts = %+v", c)
	}
	if meta.SyscallFlow.Allows(kernel.SysMmap, kernel.SysChmod) || !meta.SyscallFlow.Allows(kernel.SysMmap, kernel.SysGetpid) {
		t.Errorf("refined: the flow graph must compose the refined targets only, edges %v", meta.SyscallFlow.Edges)
	}
}
