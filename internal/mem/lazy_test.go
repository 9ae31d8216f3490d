package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		pa := a &^ (PageSize - 1)
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
// Regions and ReadUint/WriteUint/PeekUint/PokeUint sequences against the
// lazy Space and the eager reference model: every fault, every byte and
// word read, the access counters and the final memory image must agree.
// The window straddles the chunk boundary at 0x200000, a page byte with
// the high bit set aliases the window to a chunk with the same cache slot,
// and a length byte with bit 0x40 set counts chunks instead of pages.
func FuzzSpaceLazyVsEager(f *testing.F) {
	f.Add([]byte{0, 2, 2, 0, 3, 4, 2, 0x10, 0, 0x20, 0, 3, 2, 0x08, 0, 0x40, 0})
	f.Add([]byte{0, 0, 4, 0, 7, 4, 1, 0xf8, 0x0f, 0x10, 0x00, 2, 1, 1, 0, 1, 5, 1, 0xf0, 0x0f, 0x40, 0, 1, 1, 1, 0, 3, 1, 0, 0, 0, 0x10, 7})
	f.Add([]byte{0, 3, 1, 1, 4, 3, 0, 0, 0x20, 0, 6, 3, 0, 0, 0x20, 0, 1, 3, 1, 0, 0, 3, 0, 0, 0, 0x10, 0})
	// Words across the chunk boundary 0x1ff000-0x201000, then against a
	// read-only page on its far side.
	f.Add([]byte{0, 7, 2, 3, 9, 7, 0xfc, 0x0f, 3, 8, 7, 0xfc, 0x0f, 3, 10, 8, 0, 0, 2,
		2, 8, 1, 1, 9, 7, 0xfc, 0x0f, 3, 8, 7, 0xfc, 0x0f, 3, 11, 8, 0x10, 0, 3, 7, 0})
	// Unmap and remap a whole chunk: its words must read as zeros again.
	f.Add([]byte{0, 8, 0x4c, 3, 9, 8, 0x10, 0, 3, 4, 9, 0, 0, 0x20, 0, 1, 8, 0x4c, 0,
		8, 8, 0x10, 0, 3, 0, 8, 0x4c, 3, 8, 8, 0x10, 0, 3, 10, 9, 0, 0, 3, 7, 0})
	// Words in a PROT_NONE page and in its cache-aliased twin chunk.
	f.Add([]byte{0, 5, 1, 0, 8, 5, 0, 0, 3, 9, 5, 0, 0x80, 2, 11, 5, 8, 0, 3, 10, 5, 8, 0, 3,
		0, 0x85, 1, 3, 9, 0x85, 0xf9, 0x8f, 3, 8, 5, 8, 0, 3, 8, 0x85, 0xf9, 0x8f, 3, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 0x1f8000
		const window = 16 // pages
		lazy, ref := NewSpace(), newEager()
		r := &opReader{b: data}
		for step := 0; len(r.b) > 0 && step < 256; step++ {
			op := r.byte() % 12
			pb := r.byte()
			addr := base + uint64(pb%window)*PageSize
			if pb&0x80 != 0 {
				addr += cacheSlots << chunkShift
			}
			var errL, errR error
			switch op {
			case 0, 1, 2: // Map, Unmap, Protect: a few pages or chunks, sometimes unaligned
				n := uint64(r.byte())
				length := (n%5)*PageSize - (n/5)%3
				if n&0x40 != 0 {
					length *= chunkPages
				}
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
			case 8, 9, 10, 11: // ReadUint, WriteUint, PeekUint, PokeUint
				off := r.u16()
				if off&0x8000 != 0 { // the last bytes of the page: straddling words
					addr += PageSize - 8 + off%8
				} else {
					addr += off % PageSize
				}
				size := []int64{1, 2, 4, 8}[r.byte()%4]
				v := uint64(step+1) * 0x0100_7f00_0301_ff05 // includes zero bytes
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], v)
				var got uint64
				switch op {
				case 8:
					ref.reads++
					got, errL = lazy.ReadUint(addr, size)
					errR = ref.access(addr, buf[:size], false, true)
				case 9:
					ref.writes++
					errL, errR = lazy.WriteUint(addr, v, size), ref.access(addr, buf[:size], true, true)
				case 10:
					got, errL = lazy.PeekUint(addr, size)
					errR = ref.access(addr, buf[:size], false, false)
				case 11:
					errL, errR = lazy.PokeUint(addr, v, size), ref.access(addr, buf[:size], true, false)
				}
				if op == 8 || op == 10 {
					want := uint64(0)
					if errR == nil {
						want = binary.LittleEndian.Uint64(buf[:]) & (1<<(8*size) - 1)
					}
					if got != want {
						t.Fatalf("step %d op %d size %d at %#x: got %#x, want %#x", step, op, size, addr, got, want)
					}
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
			if lazy.Reads != ref.reads || lazy.Writes != ref.writes {
				t.Fatalf("step %d op %d: counters = %d/%d, want %d/%d", step, op, lazy.Reads, lazy.Writes, ref.reads, ref.writes)
			}
		}
		if l, e := lazy.Regions(), ref.Regions(); !reflect.DeepEqual(l, e) {
			t.Fatalf("final Regions = %v, want %v", l, e)
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
	for _, c := range s.dir {
		for _, pg := range &c.pages {
			if pg.data != nil {
				n++
			}
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

// TestWordAccessAllocs pins the word fast path: once a page is
// materialised, checked word loads and stores allocate nothing.
func TestWordAccessAllocs(t *testing.T) {
	s := NewSpace()
	if err := s.Map(ir.StackTop-ir.StackSize, ir.StackSize, PermRW); err != nil {
		t.Fatal(err)
	}
	addr := ir.StackTop - 64
	if err := s.WriteUint(addr, 1, 8); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for size := int64(1); size <= 8; size *= 2 {
			if err := s.WriteUint(addr, 0x1122334455667788, size); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ReadUint(addr, size); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed ReadUint/WriteUint: %v allocs, want 0", allocs)
	}
}

// TestLazyUnmapReleasesChunks maps and unmaps 4 MiB at many distinct
// addresses, as a guest cycling mmap/munmap does: every chunk must be
// freed and dropped from the chunk cache, and the old addresses must
// fault afterwards.
func TestLazyUnmapReleasesChunks(t *testing.T) {
	const size = 4 << 20
	s := NewSpace()
	addrAt := func(i int) uint64 { return 0x7f00_0000_0000 + uint64(i)*(size+3*PageSize) }
	for i := 0; i < 1000; i++ {
		a := addrAt(i)
		if err := s.Map(a, size, PermRW); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteUint(a+size/2, uint64(i), 8); err != nil {
			t.Fatal(err)
		}
		if err := s.Unmap(a, size); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.dir); n != 0 {
		t.Fatalf("%d chunks left in the directory", n)
	}
	for i, e := range s.cache {
		if e.c != nil {
			t.Fatalf("cache slot %d still holds chunk %#x", i, e.key)
		}
	}
	var f *Fault
	if _, err := s.ReadUint(addrAt(999)+size/2, 8); !errors.As(err, &f) || f.Why != "unmapped page" {
		t.Fatalf("read of an unmapped address: %v, want an unmapped-page fault", err)
	}
}
