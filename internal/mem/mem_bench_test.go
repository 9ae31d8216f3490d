package mem

import (
	"testing"

	"bastion/internal/ir"
)

// BenchmarkGuestWord measures the checked word access on the guest's hot
// path (every IR load/store lands here).
func BenchmarkGuestWord(b *testing.B) {
	s := NewSpace()
	if err := s.Map(0x10000, 1<<16, PermRW); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := 0x10000 + uint64(i%8000)*8
		if err := s.WriteUint(addr, uint64(i), 8); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ReadUint(addr, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuestWordSpread interleaves word accesses over the regions a
// guest touches together: globals, heap, stack and the shadow region. Their
// chunks compete for the page table's chunk cache, which
// BenchmarkGuestWord's single region never exercises.
func BenchmarkGuestWordSpread(b *testing.B) {
	s := NewSpace()
	for _, r := range []struct{ base, size uint64 }{
		{ir.DataBase, 1 << 16},
		{ir.HeapBase, 1 << 16},
		{ir.StackTop - ir.StackSize, ir.StackSize},
		{ir.ShadowBase, ir.ShadowSize},
	} {
		if err := s.Map(r.base, r.size, PermRW); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%4096) * 8
		for _, addr := range [...]uint64{ir.DataBase + off, ir.HeapBase + off, ir.StackTop - 8 - off, ir.ShadowBase + off} {
			if err := s.WriteUint(addr, uint64(i), 8); err != nil {
				b.Fatal(err)
			}
			if _, err := s.ReadUint(addr, 8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBulkCopy measures page-spanning block transfers (ptrace reads,
// kernel copy_to_user analogs).
func BenchmarkBulkCopy(b *testing.B) {
	s := NewSpace()
	if err := s.Map(0x10000, 1<<20, PermRW); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(0x10800, buf); err != nil { // unaligned start
			b.Fatal(err)
		}
		if err := s.Read(0x10800, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAccessStopsAtUnmappedBoundary(t *testing.T) {
	s := NewSpace()
	if err := s.Map(0x1000, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	// A copy that begins in mapped memory and runs off the end must fail
	// (and the failure address is the first unmapped byte).
	err := s.Write(0x1ff8, make([]byte, 16))
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if f.Addr != 0x2000 {
		t.Fatalf("fault at %#x, want 0x2000", f.Addr)
	}
	// Peek has the same boundary behavior.
	if err := s.Peek(0x1ff8, make([]byte, 16)); err == nil {
		t.Fatal("Peek across unmapped boundary succeeded")
	}
}
