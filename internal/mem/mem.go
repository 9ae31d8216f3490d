// Package mem implements the sparse, paged virtual address space used by
// simulated guest processes. It provides mmap/mprotect/munmap semantics with
// per-page permissions, checked guest accesses, and privileged (kernel/
// ptrace-style) accesses that bypass permissions — the access path the
// BASTION monitor uses via process_vm_readv.
//
// Mapped pages are zero pages until first written: a mapping costs one
// page-table entry per page, and a page's 4 KiB of storage is allocated by
// the first write that touches it.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// Perm is a page-permission bitmask.
type Perm uint8

// Permission bits, mirroring PROT_READ/PROT_WRITE/PROT_EXEC.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermNone Perm = 0
	PermRW        = PermRead | PermWrite
	PermRX        = PermRead | PermExec
	PermRWX       = PermRead | PermWrite | PermExec
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind describes the faulting operation in a Fault.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessMap
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessMap:
		return "map"
	}
	return "access"
}

// Fault is a simulated memory fault (SIGSEGV analog).
type Fault struct {
	Addr uint64
	Kind AccessKind
	Why  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: fault: %s at %#x: %s", f.Kind, f.Addr, f.Why)
}

// page is one page-table entry. data stays nil, and a mapped page reads as
// zeros, until the first write materialises it.
type page struct {
	data   *[PageSize]byte
	perm   Perm
	mapped bool
}

// Page-table geometry: the address space is split into 2 MiB chunks of 512
// page entries each.
const (
	pageShift  = 12
	chunkShift = 21
	chunkPages = 1 << (chunkShift - pageShift)
)

// chunk holds the page entries of one 2 MiB-aligned span of the address
// space. It exists while at least one of its pages is mapped.
type chunk struct {
	pages [chunkPages]page
	live  int // mapped pages
}

// cacheSlots is the size of the direct-mapped chunk cache.
const cacheSlots = 8

type cached struct {
	key uint64
	c   *chunk // nil: empty slot
}

// cacheSlot folds the address bits above 1 TiB and 64 TiB into the chunk
// number, so the hot chunks of the conventional layout (globals, heap,
// stack, the two shadow chunks and the mmap area) use distinct slots.
func cacheSlot(key uint64) uint64 { return (key ^ key>>19 ^ key>>25) % cacheSlots }

// Space is a sparse virtual address space kept in a two-level page table:
// a directory from chunk number (addr>>21) to chunk, fronted by a small
// direct-mapped cache of recently used chunks. The zero value is not
// usable; call NewSpace.
type Space struct {
	dir   map[uint64]*chunk
	cache [cacheSlots]cached

	// Reads and Writes count checked guest accesses, for statistics.
	Reads, Writes uint64
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{dir: make(map[uint64]*chunk)}
}

// RoundUp rounds a length up to a whole number of pages.
func RoundUp(n uint64) uint64 { return (n + PageSize - 1) &^ (PageSize - 1) }

// chunk returns the chunk numbered key, or nil if none of its pages is
// mapped.
func (s *Space) chunk(key uint64) *chunk {
	e := &s.cache[cacheSlot(key)]
	if e.c != nil && e.key == key {
		return e.c
	}
	c := s.dir[key]
	if c != nil {
		*e = cached{key, c}
	}
	return c
}

// page returns the entry of the mapped page containing addr, or nil.
func (s *Space) page(addr uint64) *page {
	c := s.chunk(addr >> chunkShift)
	if c == nil {
		return nil
	}
	if pg := &c.pages[addr>>pageShift%chunkPages]; pg.mapped {
		return pg
	}
	return nil
}

// span splits the page-aligned range [a, end) at its first chunk boundary:
// the range's first n pages are the entries from index i of chunk key.
func span(a, end uint64) (key, i, n uint64) {
	i = a >> pageShift % chunkPages
	return a >> chunkShift, i, min(chunkPages-i, (end-a)>>pageShift)
}

// Map maps [addr, addr+length) with the given permissions. addr must be
// page-aligned. Mapping over an existing page replaces its permissions and
// keeps its contents (MAP_FIXED-over-existing semantics); callers that need
// fresh zero pages should Unmap first.
func (s *Space) Map(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mapping"}
	}
	if length == 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "zero-length mapping"}
	}
	s.setPerm(addr, addr+RoundUp(length), perm)
	return nil
}

// setPerm sets the permissions of every page in [addr, end), mapping the
// missing ones as zero pages.
func (s *Space) setPerm(addr, end uint64, perm Perm) {
	for a := addr; a < end; {
		key, i, n := span(a, end)
		c := s.chunk(key)
		if c == nil {
			c = new(chunk)
			s.dir[key] = c
		}
		for j := i; j < i+n; j++ {
			pg := &c.pages[j]
			if !pg.mapped {
				pg.mapped = true
				c.live++
			}
			pg.perm = perm
		}
		a += n << pageShift
	}
}

// Unmap removes the pages covering [addr, addr+length). A chunk left with
// no mapped page is freed.
func (s *Space) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned unmap"}
	}
	end := addr + RoundUp(length)
	for a := addr; a < end; {
		key, i, n := span(a, end)
		if c := s.chunk(key); c != nil {
			for j := i; j < i+n; j++ {
				if c.pages[j].mapped {
					c.pages[j] = page{}
					c.live--
				}
			}
			if c.live == 0 {
				delete(s.dir, key)
				if e := &s.cache[cacheSlot(key)]; e.c == c {
					*e = cached{}
				}
			}
		}
		a += n << pageShift
	}
	return nil
}

// Protect changes the permissions of the already-mapped range
// [addr, addr+length). It fails on any unmapped page in the range without
// applying a partial change.
func (s *Space) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return &Fault{Addr: addr, Kind: AccessMap, Why: "unaligned mprotect"}
	}
	end := addr + RoundUp(length)
	for a := addr; a < end; {
		key, i, n := span(a, end)
		c := s.chunk(key)
		for j := i; j < i+n; j++ {
			if c == nil || !c.pages[j].mapped {
				return &Fault{Addr: a + (j-i)<<pageShift, Kind: AccessMap, Why: "mprotect of unmapped page"}
			}
		}
		a += n << pageShift
	}
	s.setPerm(addr, end, perm)
	return nil
}

// Mapped reports whether addr lies in a mapped page.
func (s *Space) Mapped(addr uint64) bool {
	return s.page(addr) != nil
}

// PermAt returns the permissions of the page containing addr; ok is false
// for unmapped addresses.
func (s *Space) PermAt(addr uint64) (Perm, bool) {
	pg := s.page(addr)
	if pg == nil {
		return PermNone, false
	}
	return pg.perm, true
}

// Read copies len(buf) bytes from addr into buf, requiring PermRead on every
// touched page.
func (s *Space) Read(addr uint64, buf []byte) error {
	s.Reads++
	return s.access(addr, buf, false, true)
}

// Write copies buf to addr, requiring PermWrite on every touched page.
func (s *Space) Write(addr uint64, buf []byte) error {
	s.Writes++
	return s.access(addr, buf, true, true)
}

// Peek copies bytes out without permission checks (kernel/ptrace access).
// It still faults on unmapped pages, as process_vm_readv does.
func (s *Space) Peek(addr uint64, buf []byte) error {
	return s.access(addr, buf, false, false)
}

// Poke writes bytes without permission checks (kernel/ptrace access).
func (s *Space) Poke(addr uint64, buf []byte) error {
	return s.access(addr, buf, true, false)
}

func (s *Space) access(addr uint64, buf []byte, write, checkPerm bool) error {
	n := uint64(len(buf))
	var done uint64
	for done < n {
		a := addr + done
		pg := s.page(a)
		if pg == nil {
			return s.fault(a, write)
		}
		if checkPerm {
			if write && pg.perm&PermWrite == 0 {
				return &Fault{Addr: a, Kind: AccessWrite, Why: "page is " + pg.perm.String()}
			}
			if !write && pg.perm&PermRead == 0 {
				return &Fault{Addr: a, Kind: AccessRead, Why: "page is " + pg.perm.String()}
			}
		}
		off := a % PageSize
		step := min(PageSize-off, n-done)
		switch {
		case write:
			if pg.data == nil {
				pg.data = new([PageSize]byte)
			}
			copy(pg.data[off:off+step], buf[done:done+step])
		case pg.data == nil:
			clear(buf[done : done+step])
		default:
			copy(buf[done:done+step], pg.data[off:off+step])
		}
		done += step
	}
	return nil
}

func (s *Space) fault(addr uint64, write bool) error {
	k := AccessRead
	if write {
		k = AccessWrite
	}
	return &Fault{Addr: addr, Kind: k, Why: "unmapped page"}
}

// word returns the entry of the mapped page holding the whole size-byte
// word at addr, or nil when the word is not 1, 2, 4 or 8 bytes, straddles
// a page or is unmapped. The Uint accessors serve a word with an entry
// directly and leave everything else, faults included, to the general
// path.
func (s *Space) word(addr uint64, size int64) *page {
	switch size {
	case 1, 2, 4, 8:
		if addr%PageSize+uint64(size) <= PageSize {
			return s.page(addr)
		}
	}
	return nil
}

// load decodes the size-byte little-endian word at addr from pg; size is
// 1, 2, 4 or 8.
func (pg *page) load(addr uint64, size int64) uint64 {
	if pg.data == nil {
		return 0
	}
	b := pg.data[addr%PageSize:]
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// store encodes v as a size-byte little-endian word at addr in pg; size is
// 1, 2, 4 or 8.
func (pg *page) store(addr, v uint64, size int64) {
	if pg.data == nil {
		pg.data = new([PageSize]byte)
	}
	b := pg.data[addr%PageSize:]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// ReadUint reads an unsigned little-endian integer of the given width
// (1, 2, 4, or 8 bytes) with permission checks.
func (s *Space) ReadUint(addr uint64, size int64) (uint64, error) {
	if pg := s.word(addr, size); pg != nil && pg.perm&PermRead != 0 {
		s.Reads++
		return pg.load(addr, size), nil
	}
	var buf [8]byte
	if err := s.Read(addr, buf[:size]); err != nil {
		return 0, err
	}
	return decodeUint(buf[:size]), nil
}

// WriteUint writes an unsigned little-endian integer of the given width
// with permission checks.
func (s *Space) WriteUint(addr uint64, v uint64, size int64) error {
	if pg := s.word(addr, size); pg != nil && pg.perm&PermWrite != 0 {
		s.Writes++
		pg.store(addr, v, size)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Write(addr, buf[:size])
}

// PeekUint reads an integer without permission checks.
func (s *Space) PeekUint(addr uint64, size int64) (uint64, error) {
	if pg := s.word(addr, size); pg != nil {
		return pg.load(addr, size), nil
	}
	var buf [8]byte
	if err := s.Peek(addr, buf[:size]); err != nil {
		return 0, err
	}
	return decodeUint(buf[:size]), nil
}

// PokeUint writes an integer without permission checks.
func (s *Space) PokeUint(addr uint64, v uint64, size int64) error {
	if pg := s.word(addr, size); pg != nil {
		pg.store(addr, v, size)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return s.Poke(addr, buf[:size])
}

func decodeUint(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// ReadCString reads a NUL-terminated string of at most max bytes starting at
// addr, with permission checks.
func (s *Space) ReadCString(addr uint64, max int) (string, error) {
	out := make([]byte, 0, 64)
	var b [1]byte
	for i := 0; i < max; i++ {
		if err := s.Read(addr+uint64(i), b[:]); err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return "", &Fault{Addr: addr, Kind: AccessRead, Why: "unterminated string"}
}

// Region describes one contiguous run of pages with identical permissions.
type Region struct {
	Addr uint64
	Size uint64
	Perm Perm
}

// Regions returns the mapped regions in address order, coalescing adjacent
// pages with equal permissions. Useful for /proc/self/maps-style dumps and
// tests.
func (s *Space) Regions() []Region {
	keys := make([]uint64, 0, len(s.dir))
	for k := range s.dir {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []Region
	for _, k := range keys {
		for i, pg := range &s.dir[k].pages {
			if !pg.mapped {
				continue
			}
			a := k<<chunkShift | uint64(i)<<pageShift
			if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Size == a && out[n-1].Perm == pg.perm {
				out[n-1].Size += PageSize
				continue
			}
			out = append(out, Region{Addr: a, Size: PageSize, Perm: pg.perm})
		}
	}
	return out
}
