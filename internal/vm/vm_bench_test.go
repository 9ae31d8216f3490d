package vm

import (
	"testing"

	"bastion/internal/ir"
)

// buildSpinner returns a program whose main executes roughly n simple
// instructions.
func buildSpinner(n int64) *ir.Program {
	p := ir.NewProgram()
	b := ir.NewBuilder("main", 0)
	i := b.Const(0)
	b.Label("loop")
	c := b.Bin(ir.OpLt, ir.R(i), ir.Imm(n))
	done := b.Bin(ir.OpEq, ir.R(c), ir.Imm(0))
	b.BranchNZ(ir.R(done), "end")
	b.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(1))
	b.Jump("loop")
	b.Label("end")
	b.Ret(ir.R(i))
	p.AddFunc(b.Build())
	return p
}

// BenchmarkInterpreterALU measures raw interpreter throughput.
func BenchmarkInterpreterALU(b *testing.B) {
	p := buildSpinner(1000)
	if err := p.Link(); err != nil {
		b.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	m.MaxSteps = 0
	b.SetBytes(1000 * 5) // ~5 instructions per iteration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallReturn measures memory-realized frame push/pop cost.
func BenchmarkCallReturn(b *testing.B) {
	p := ir.NewProgram()
	leaf := ir.NewBuilder("leaf", 2)
	v := leaf.LoadLocal("p0")
	leaf.Ret(ir.R(v))
	p.AddFunc(leaf.Build())
	mb := ir.NewBuilder("main", 0)
	mb.Local("x", 64)
	r := mb.Call("leaf", ir.Imm(1), ir.Imm(2))
	for i := 0; i < 19; i++ {
		r = mb.Call("leaf", ir.R(r), ir.Imm(2))
	}
	mb.Ret(ir.R(r))
	p.AddFunc(mb.Build())
	if err := p.Link(); err != nil {
		b.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	m.MaxSteps = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("main"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestMemoryAccess measures load/store dispatch.
func BenchmarkGuestMemoryAccess(b *testing.B) {
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "g", Size: 4096})
	mb := ir.NewBuilder("main", 0)
	g := mb.GlobalLea("g", 0)
	i := mb.Const(0)
	mb.Label("loop")
	c := mb.Bin(ir.OpLt, ir.R(i), ir.Imm(256))
	d := mb.Bin(ir.OpEq, ir.R(c), ir.Imm(0))
	mb.BranchNZ(ir.R(d), "end")
	addr := mb.Bin(ir.OpAdd, ir.R(g), ir.R(i))
	mb.Store(addr, 0, ir.R(i), 8)
	mb.Load(addr, 0, 8)
	mb.BinInto(i, ir.OpAdd, ir.R(i), ir.Imm(8))
	mb.Jump("loop")
	mb.Label("end")
	mb.Ret(ir.Imm(0))
	p.AddFunc(mb.Build())
	if err := p.Link(); err != nil {
		b.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	m.MaxSteps = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CallFunction("main"); err != nil {
			b.Fatal(err)
		}
	}
}
