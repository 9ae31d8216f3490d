package mem

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"bastion/internal/ir"
)

// eagerSpace is the reference model for the lazy Space: every mapped page
// carries its 4 KiB of zeroed storage from the moment it is mapped.
type eagerSpace struct {
	pages         map[uint64]*eagerPage
	reads, writes uint64
}

type eagerPage struct {
	data [PageSize]byte
	perm Perm
}

func newEager() *eagerSpace { return &eagerSpace{pages: map[uint64]*eagerPage{}} }

func (s *eagerSpace) Map(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mapping"}
	}
	if length == 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "zero-length mapping"}
	}
	for a := addr; a < addr+RoundUp(length); a += PageSize {
		if pg, ok := s.pages[a]; ok {
			pg.perm = perm
		} else {
			s.pages[a] = &eagerPage{perm: perm}
		}
	}
	return nil
}

func (s *eagerSpace) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned unmap"}
	}
	for a := addr; a < addr+RoundUp(length); a += PageSize {
		delete(s.pages, a)
	}
	return nil
}

func (s *eagerSpace) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mprotect"}
	}
	end := addr + RoundUp(length)
	for a := addr; a < end; a += PageSize {
		if _, ok := s.pages[a]; !ok {
			return &Fault{Addr: a, Kind: AccessMap, Why: "mprotect of unmapped page"}
		}
	}
	for a := addr; a < end; a += PageSize {
		s.pages[a].perm = perm
	}
	return nil
}

func (s *eagerSpace) access(addr uint64, buf []byte, write, checkPerm bool) error {
	n := uint64(len(buf))
	for done := uint64(0); done < n; {
		a := addr + done
		pa := pageAddr(a)
		pg, ok := s.pages[pa]
		if !ok {
			k := AccessRead
			if write {
				k = AccessWrite
			}
			return &Fault{Addr: a, Kind: k, Why: "unmapped page"}
		}
		if checkPerm && write && pg.perm&PermWrite == 0 {
			return &Fault{Addr: a, Kind: AccessWrite, Why: "page is " + pg.perm.String()}
		}
		if checkPerm && !write && pg.perm&PermRead == 0 {
			return &Fault{Addr: a, Kind: AccessRead, Why: "page is " + pg.perm.String()}
		}
		off := a - pa
		chunk := min(PageSize-off, n-done)
		if write {
			copy(pg.data[off:off+chunk], buf[done:done+chunk])
		} else {
			copy(buf[done:done+chunk], pg.data[off:off+chunk])
		}
		done += chunk
	}
	return nil
}

func (s *eagerSpace) Regions() []Region {
	addrs := make([]uint64, 0, len(s.pages))
	for a := range s.pages {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []Region
	for _, a := range addrs {
		p := s.pages[a].perm
		if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Size == a && out[n-1].Perm == p {
			out[n-1].Size += PageSize
			continue
		}
		out = append(out, Region{Addr: a, Size: PageSize, Perm: p})
	}
	return out
}

// opReader decodes fuzz bytes into operation fields, yielding zeros once
// the input runs out.
type opReader struct{ b []byte }

func (r *opReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *opReader) u16() uint64 { return uint64(r.byte()) | uint64(r.byte())<<8 }

// FuzzSpaceLazyVsEager runs random Map/Unmap/Protect/Read/Write/Peek/Poke/
// Regions sequences against the lazy Space and the eager reference model:
// every fault, every byte read and the final memory image must agree.
func FuzzSpaceLazyVsEager(f *testing.F) {
	f.Add([]byte{0, 2, 2, 0, 3, 4, 2, 0x10, 0, 0x20, 0, 3, 2, 0x08, 0, 0x40, 0})
	f.Add([]byte{0, 0, 4, 0, 7, 4, 1, 0xf8, 0x0f, 0x10, 0x00, 2, 1, 1, 0, 1, 5, 1, 0xf0, 0x0f, 0x40, 0, 1, 1, 1, 0, 3, 1, 0, 0, 0, 0x10, 7})
	f.Add([]byte{0, 3, 1, 1, 4, 3, 0, 0, 0x20, 0, 6, 3, 0, 0, 0x20, 0, 1, 3, 1, 0, 0, 3, 0, 0, 0, 0x10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 0x40000
		const window = 16 // pages
		lazy, ref := NewSpace(), newEager()
		r := &opReader{b: data}
		for step := 0; len(r.b) > 0 && step < 256; step++ {
			op := r.byte() % 8
			pg := uint64(r.byte() % window)
			addr := base + pg*PageSize
			var errL, errR error
			switch op {
			case 0, 1, 2: // Map, Unmap, Protect: a few pages, sometimes unaligned
				n := uint64(r.byte())
				length := (n%5)*PageSize - (n/5)%3
				if n&0x80 != 0 {
					addr++
				}
				perm := Perm(r.byte() % 8)
				switch op {
				case 0:
					errL, errR = lazy.Map(addr, length, perm), ref.Map(addr, length, perm)
				case 1:
					errL, errR = lazy.Unmap(addr, length), ref.Unmap(addr, length)
				case 2:
					errL, errR = lazy.Protect(addr, length, perm), ref.Protect(addr, length, perm)
				}
			case 3, 4, 5, 6: // Read, Write, Peek, Poke: page-straddling spans
				addr += r.u16() % PageSize
				buf := make([]byte, r.u16()%(3*PageSize))
				got := make([]byte, len(buf))
				if op == 4 || op == 6 {
					for i := range buf {
						buf[i] = byte(step + i) // includes zero bytes
					}
					copy(got, buf)
				}
				switch op {
				case 3:
					ref.reads++
					errL, errR = lazy.Read(addr, got), ref.access(addr, buf, false, true)
				case 4:
					ref.writes++
					errL, errR = lazy.Write(addr, got), ref.access(addr, buf, true, true)
				case 5:
					errL, errR = lazy.Peek(addr, got), ref.access(addr, buf, false, false)
				case 6:
					errL, errR = lazy.Poke(addr, got), ref.access(addr, buf, true, false)
				}
				if !bytes.Equal(got, buf) {
					t.Fatalf("step %d op %d at %#x: bytes differ", step, op, addr)
				}
			case 7:
				if l, e := lazy.Regions(), ref.Regions(); !reflect.DeepEqual(l, e) {
					t.Fatalf("step %d: Regions = %v, want %v", step, l, e)
				}
				continue
			}
			if !reflect.DeepEqual(errL, errR) {
				t.Fatalf("step %d op %d at %#x: err = %v, want %v", step, op, addr, errL, errR)
			}
		}
		if l, e := lazy.Regions(), ref.Regions(); !reflect.DeepEqual(l, e) {
			t.Fatalf("final Regions = %v, want %v", l, e)
		}
		if lazy.Reads != ref.reads || lazy.Writes != ref.writes {
			t.Fatalf("counters = %d/%d, want %d/%d", lazy.Reads, lazy.Writes, ref.reads, ref.writes)
		}
		for a, pg := range ref.pages {
			var got [PageSize]byte
			if err := lazy.Peek(a, got[:]); err != nil {
				t.Fatalf("final Peek %#x: %v", a, err)
			}
			if got != pg.data {
				t.Fatalf("final image differs in page %#x", a)
			}
		}
	})
}

// materialised counts the pages that hold storage.
func (s *Space) materialised() int {
	var n int
	for _, pg := range s.pages {
		if pg.data != nil {
			n++
		}
	}
	return n
}

// TestLazyShadowMapping maps and reads back a whole shadow region, as
// every tenant launch does: that must cost page records, not the region's
// size in zeroed memory, and a 1-byte write must materialise one page.
func TestLazyShadowMapping(t *testing.T) {
	buf := make([]byte, PageSize)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSpace()
	if err := s.Map(ir.ShadowBase, ir.ShadowSize, PermRW); err != nil {
		t.Fatal(err)
	}
	for a := ir.ShadowBase; a < ir.ShadowBase+ir.ShadowSize; a += PageSize {
		if err := s.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, PageSize)) {
			t.Fatalf("page %#x is not zero", a)
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= ir.ShadowSize/8 {
		t.Fatalf("mapping and reading %d bytes allocated %d bytes", ir.ShadowSize, d)
	}
	if n := s.materialised(); n != 0 {
		t.Fatalf("%d pages materialised by reads", n)
	}
	if err := s.Write(ir.ShadowBase+3*PageSize+7, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if n := s.materialised(); n != 1 {
		t.Fatalf("1-byte write materialised %d pages, want 1", n)
	}
}
