package analysis

import (
	"testing"

	"bastion/internal/apps/guestlibc"
	"bastion/internal/ir"
	"bastion/internal/kernel"
)

// TestFlowGraphIndirectCall checks that an indirect callsite composes the
// union of its points-to targets' summaries.
func TestFlowGraphIndirectCall(t *testing.T) {
	p := guestlibc.NewProgram()
	p.AddGlobal(&ir.Global{Name: "hook", Size: 8})

	ha := ir.NewBuilder("hook_socket", 0)
	ha.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
	ha.Ret(ir.Imm(0))
	p.AddFunc(ha.Build())

	hb := ir.NewBuilder("hook_chmod", 0)
	hb.Call("chmod", ir.Imm(0), ir.Imm(0o700))
	hb.Ret(ir.Imm(0))
	p.AddFunc(hb.Build())

	m := ir.NewBuilder("main", 0)
	m.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
	fa := m.FuncAddr("hook_socket")
	g := m.GlobalLea("hook", 0)
	m.Store(g, 0, ir.R(fa), 8)
	fb := m.FuncAddr("hook_chmod")
	m.Store(m.GlobalLea("hook", 0), 0, ir.R(fb), 8)
	tgt := m.Load(m.GlobalLea("hook", 0), 0, 8)
	m.CallInd(tgt, "i64()")
	m.Call("exit_group", ir.Imm(0))
	m.Ret(ir.Imm(0))
	p.AddFunc(m.Build())

	flow := runPass(t, p).Meta.SyscallFlow
	if !flow.Allows(kernel.SysMmap, kernel.SysSocket) || !flow.Allows(kernel.SysMmap, kernel.SysChmod) {
		t.Errorf("indirect targets not composed: edges %v", flow.Edges)
	}
	if !flow.Allows(kernel.SysSocket, kernel.SysExitGroup) || !flow.Allows(kernel.SysChmod, kernel.SysExitGroup) {
		t.Errorf("post-indirect continuation missing: edges %v", flow.Edges)
	}
	if flow.Allows(kernel.SysSocket, kernel.SysChmod) || flow.Allows(kernel.SysChmod, kernel.SysSocket) {
		t.Error("one indirect dispatch cannot emit both targets in sequence")
	}
}
