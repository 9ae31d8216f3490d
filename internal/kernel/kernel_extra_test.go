package kernel_test

import (
	"bytes"
	"testing"

	"bastion/internal/ir"
	"bastion/internal/kernel"
	"bastion/internal/kernel/fs"
	"bastion/internal/kernel/netstack"
	"bastion/internal/vm"
)

func TestSendfileFileToFile(t *testing.T) {
	m, _, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("src", 16)
		b.Local("dst", 16)
		b.Local("in", 8)
		src := storeString(b, "src", "/in.dat")
		in := b.Call("open", ir.R(src), ir.Imm(fs.ORdonly), ir.Imm(0))
		b.StoreLocal("in", ir.R(in))
		dst := storeString(b, "dst", "/out.dat")
		out := b.Call("open", ir.R(dst), ir.Imm(fs.OWronly|fs.OCreat), ir.Imm(6))
		in2 := b.LoadLocal("in")
		n := b.Call("sendfile", ir.R(out), ir.R(in2), ir.Imm(0), ir.Imm(1024))
		b.Ret(ir.R(n))
		p.AddFunc(b.Build())
	})
	k.FS.WriteFile("/in.dat", []byte("copy me"), fs.ModeRead)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 7 {
		t.Fatalf("sendfile moved %d", got)
	}
	data, err := k.FS.ReadFile("/out.dat")
	if err != nil || !bytes.Equal(data, []byte("copy me")) {
		t.Fatalf("out.dat = %q, %v", data, err)
	}
}

func TestLseekAndPartialRead(t *testing.T) {
	m, _, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("path", 16)
		b.Local("buf", 16)
		b.Local("fd", 8)
		path := storeString(b, "path", "/data")
		fd := b.Call("open", ir.R(path), ir.Imm(fs.ORdonly), ir.Imm(0))
		b.StoreLocal("fd", ir.R(fd))
		fd1 := b.LoadLocal("fd")
		b.Call("lseek", ir.R(fd1), ir.Imm(6), ir.Imm(0)) // SEEK_SET 6
		buf := b.Lea("buf", 0)
		fd2 := b.LoadLocal("fd")
		b.Call("read", ir.R(fd2), ir.R(buf), ir.Imm(5))
		v := b.Load(b.Lea("buf", 0), 0, 1)
		b.Ret(ir.R(v))
		p.AddFunc(b.Build())
	})
	k.FS.WriteFile("/data", []byte("hello world"), fs.ModeRead)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 'w' {
		t.Fatalf("read %q after seek", byte(got))
	}
}

func TestStatWritesSizeAndMode(t *testing.T) {
	m, _, k := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		b.Local("path", 16)
		b.Local("st", 64)
		path := storeString(b, "path", "/f")
		st := b.Lea("st", 0)
		b.Call("stat", ir.R(path), ir.R(st))
		sz := b.Load(b.Lea("st", 0), 48, 8) // st_size
		md := b.Load(b.Lea("st", 0), 24, 4) // st_mode
		sum := b.Bin(ir.OpAdd, ir.R(sz), ir.R(md))
		b.Ret(ir.R(sum))
		p.AddFunc(b.Build())
	})
	k.FS.WriteFile("/f", []byte("12345"), fs.ModeRead|fs.ModeExec)
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 5+uint64(fs.ModeRead|fs.ModeExec) {
		t.Fatalf("stat sum = %d", got)
	}
}

func TestMremapCopiesContents(t *testing.T) {
	m, proc, _ := newGuest(t, func(p *ir.Program) {
		b := ir.NewBuilder("main", 0)
		old := b.Call("mmap", ir.Imm(0), ir.Imm(4096), ir.Imm(3), ir.Imm(0x22), ir.Imm(-1), ir.Imm(0))
		b.Store(old, 0, ir.Imm(0x77), 8)
		nw := b.Call("mremap", ir.R(old), ir.Imm(4096), ir.Imm(8192))
		v := b.Load(nw, 0, 8)
		b.Ret(ir.R(v))
		p.AddFunc(b.Build())
	})
	got, err := m.CallFunction("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 0x77 {
		t.Fatalf("mremap lost contents: %#x", got)
	}
	if !proc.HasEvent(kernel.EventRemap, "mremap") {
		t.Fatalf("no remap event: %v", proc.Events)
	}
}

func TestGuestToGuestConnect(t *testing.T) {
	m, proc, k := newGuest(t, func(p *ir.Program) {
		// server_up(): socket/bind(9000)/listen.
		sb := ir.NewBuilder("server_up", 0)
		sb.Local("sa", 16)
		sb.Local("fd", 8)
		fd := sb.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
		sb.StoreLocal("fd", ir.R(fd))
		sa := buildSockaddr(sb, "sa", 9000)
		fd1 := sb.LoadLocal("fd")
		sb.Call("bind", ir.R(fd1), ir.R(sa), ir.Imm(16))
		fd2 := sb.LoadLocal("fd")
		sb.Call("listen", ir.R(fd2), ir.Imm(4))
		sb.Ret(ir.Imm(0))
		p.AddFunc(sb.Build())

		// dial_out(): connect to 9000 and send two bytes.
		db := ir.NewBuilder("dial_out", 0)
		db.Local("sa", 16)
		db.Local("fd", 8)
		db.Local("msg", 8)
		fd3 := db.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
		db.StoreLocal("fd", ir.R(fd3))
		sa2 := buildSockaddr(db, "sa", 9000)
		fd4 := db.LoadLocal("fd")
		r := db.Call("connect", ir.R(fd4), ir.R(sa2), ir.Imm(16))
		msg := db.Lea("msg", 0)
		db.Store(msg, 0, ir.Imm('h'), 1)
		db.Store(msg, 1, ir.Imm('i'), 1)
		fd5 := db.LoadLocal("fd")
		msg2 := db.Lea("msg", 0)
		db.Call("write", ir.R(fd5), ir.R(msg2), ir.Imm(2))
		db.Ret(ir.R(r))
		p.AddFunc(db.Build())

		b := ir.NewBuilder("main", 0)
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
	})
	if _, err := m.CallFunction("server_up"); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFunction("dial_out")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if int64(got) != 0 {
		t.Fatalf("connect = %d", int64(got))
	}
	if k.Net.Pending(9000) != 1 {
		t.Fatal("no pending connection at listener")
	}
	if !proc.HasEvent(kernel.EventSocket, "connected to port 9000") {
		t.Fatalf("events: %v", proc.Events)
	}
}

func TestErrnoCoverage(t *testing.T) {
	m, _, _ := newGuest(t, func(p *ir.Program) {
		// One probe function per errno condition; each returns the raw
		// syscall result.
		probes := []struct {
			name string
			emit func(b *ir.Builder) ir.Reg
		}{
			{"probe_close_badfd", func(b *ir.Builder) ir.Reg {
				return b.Call("close", ir.Imm(99))
			}},
			{"probe_read_badfd", func(b *ir.Builder) ir.Reg {
				buf := b.Lea("buf", 0)
				return b.Call("read", ir.Imm(77), ir.R(buf), ir.Imm(1))
			}},
			{"probe_listen_badfd", func(b *ir.Builder) ir.Reg {
				return b.Call("listen", ir.Imm(50), ir.Imm(1))
			}},
			{"probe_mprotect_unmapped", func(b *ir.Builder) ir.Reg {
				return b.Call("mprotect", ir.Imm(0x12345000), ir.Imm(4096), ir.Imm(1))
			}},
			{"probe_munmap_unaligned", func(b *ir.Builder) ir.Reg {
				return b.Call("munmap", ir.Imm(5), ir.Imm(4096))
			}},
			{"probe_connect_refused", func(b *ir.Builder) ir.Reg {
				fd := b.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
				b.Local("fd", 8)
				b.StoreLocal("fd", ir.R(fd))
				sa := buildSockaddr(b, "sa2", 9999)
				fd2 := b.LoadLocal("fd")
				return b.Call("connect", ir.R(fd2), ir.R(sa), ir.Imm(16))
			}},
			{"probe_write_efault", func(b *ir.Builder) ir.Reg {
				return b.Call("write", ir.Imm(1), ir.Imm(0xdead0000), ir.Imm(4))
			}},
		}
		for _, pr := range probes {
			b := ir.NewBuilder(pr.name, 0)
			b.Local("buf", 8)
			b.Local("sa2", 16)
			r := pr.emit(b)
			b.Ret(ir.R(r))
			p.AddFunc(b.Build())
		}
		b := ir.NewBuilder("main", 0)
		b.Ret(ir.Imm(0))
		p.AddFunc(b.Build())
	})
	want := map[string]int64{
		"probe_close_badfd":       -kernel.EBADF,
		"probe_read_badfd":        -kernel.EBADF,
		"probe_listen_badfd":      -kernel.EBADF,
		"probe_mprotect_unmapped": -kernel.ENOMEM,
		"probe_munmap_unaligned":  -kernel.EINVAL,
		"probe_connect_refused":   -kernel.ECONNREFUSED,
		"probe_write_efault":      -kernel.EFAULT,
	}
	for name, w := range want {
		got, err := m.CallFunction(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if int64(got) != w {
			t.Errorf("%s = %d, want %d", name, int64(got), w)
		}
	}
}

// TestSendfileAtEOFNoAllocs pins the sendfile buffer to the bytes
// left in the file: once the source is drained, each further call (the
// loop-ending call every transfer makes) allocates nothing.
func TestSendfileAtEOFNoAllocs(t *testing.T) {
	m, _, k := newGuest(t, func(p *ir.Program) {
		for _, f := range []struct {
			name, path string
			flags      int64
		}{{"open_in", "/in.dat", fs.ORdonly}, {"open_out", "/out.dat", fs.OWronly | fs.OCreat}} {
			b := ir.NewBuilder(f.name, 0)
			b.Local("path", 16)
			path := storeString(b, "path", f.path)
			b.Ret(ir.R(b.Call("open", ir.R(path), ir.Imm(f.flags), ir.Imm(6))))
			p.AddFunc(b.Build())
		}
		b := ir.NewBuilder("xfer", 2)
		out, in := b.LoadLocal("p0"), b.LoadLocal("p1")
		b.Ret(ir.R(b.Call("sendfile", ir.R(out), ir.R(in), ir.Imm(0), ir.Imm(65536))))
		p.AddFunc(b.Build())
		mb := ir.NewBuilder("main", 0)
		mb.Ret(ir.Imm(0))
		p.AddFunc(mb.Build())
	})
	k.FS.WriteFile("/in.dat", bytes.Repeat([]byte{7}, 5000), fs.ModeRead)
	in, err := m.CallFunction("open_in")
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.CallFunction("open_out")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint64{5000, 0} {
		if n, err := m.CallFunction("xfer", out, in); err != nil || n != want {
			t.Fatalf("sendfile = %d, %v; want %d", int64(n), err, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if n, err := m.CallFunction("xfer", out, in); err != nil || n != 0 {
			t.Fatalf("sendfile at EOF = %d, %v", int64(n), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sendfile at EOF allocates %.1f objects per call", allocs)
	}
	if got, _ := k.FS.ReadFile("/out.dat"); len(got) != 5000 {
		t.Fatalf("copied %d bytes, want 5000", len(got))
	}
}

// sendfileGuest is a guest with a listening socket on port 80 and one
// function per step the sendfile tests drive: accept, open, sendfile,
// write and lseek.
type sendfileGuest struct {
	t   *testing.T
	m   *vm.Machine
	k   *kernel.Kernel
	lfd uint64
}

func newSendfileGuest(t *testing.T, file string) *sendfileGuest {
	t.Helper()
	m, _, k := newGuest(t, func(p *ir.Program) {
		sb := ir.NewBuilder("server_setup", 0)
		sb.Local("sa", 16)
		sb.Local("sfd", 8)
		sfd := sb.Call("socket", ir.Imm(2), ir.Imm(1), ir.Imm(0))
		sb.StoreLocal("sfd", ir.R(sfd))
		sa := buildSockaddr(sb, "sa", 80)
		sb.Call("bind", ir.R(sb.LoadLocal("sfd")), ir.R(sa), ir.Imm(16))
		sb.Call("listen", ir.R(sb.LoadLocal("sfd")), ir.Imm(128))
		sb.Ret(ir.R(sb.LoadLocal("sfd")))
		p.AddFunc(sb.Build())

		ab := ir.NewBuilder("accept_conn", 1)
		ab.Local("peer", 16)
		ab.Ret(ir.R(ab.Call("accept", ir.R(ab.LoadLocal("p0")), ir.R(ab.Lea("peer", 0)), ir.Imm(0))))
		p.AddFunc(ab.Build())

		ob := ir.NewBuilder("open_file", 1)
		ob.Local("path", 16)
		path := storeString(ob, "path", "/pub/f")
		ob.Ret(ir.R(ob.Call("open", ir.R(path), ir.R(ob.LoadLocal("p0")), ir.Imm(6))))
		p.AddFunc(ob.Build())

		xb := ir.NewBuilder("xfer", 3)
		out, in, count := xb.LoadLocal("p0"), xb.LoadLocal("p1"), xb.LoadLocal("p2")
		xb.Ret(ir.R(xb.Call("sendfile", ir.R(out), ir.R(in), ir.Imm(0), ir.R(count))))
		p.AddFunc(xb.Build())

		wb := ir.NewBuilder("write_zzz", 1)
		wb.Local("buf", 8)
		buf := storeString(wb, "buf", "zzz")
		wb.Ret(ir.R(wb.Call("write", ir.R(wb.LoadLocal("p0")), ir.R(buf), ir.Imm(3))))
		p.AddFunc(wb.Build())

		lb := ir.NewBuilder("seek", 2)
		lb.Ret(ir.R(lb.Call("lseek", ir.R(lb.LoadLocal("p0")), ir.R(lb.LoadLocal("p1")), ir.Imm(fs.SeekSet))))
		p.AddFunc(lb.Build())

		mb := ir.NewBuilder("main", 0)
		mb.Ret(ir.Imm(0))
		p.AddFunc(mb.Build())
	})
	if err := k.FS.WriteFile("/pub/f", []byte(file), fs.ModeRead|fs.ModeWrite); err != nil {
		t.Fatal(err)
	}
	g := &sendfileGuest{t: t, m: m, k: k}
	g.lfd = g.call("server_setup")
	return g
}

func (g *sendfileGuest) call(fn string, args ...uint64) uint64 {
	g.t.Helper()
	r, err := g.m.CallFunction(fn, args...)
	if err != nil {
		g.t.Fatalf("%s: %v", fn, err)
	}
	if int64(r) < 0 {
		g.t.Fatalf("%s returned %d", fn, int64(r))
	}
	return r
}

// connect dials port 80 and returns the client end and the guest's fd.
func (g *sendfileGuest) connect() (*netstack.Conn, uint64) {
	g.t.Helper()
	client, err := g.k.Net.Dial(80)
	if err != nil {
		g.t.Fatal(err)
	}
	return client, g.call("accept_conn", g.lfd)
}

func (g *sendfileGuest) file() string {
	g.t.Helper()
	b, err := g.k.FS.ReadFile("/pub/f")
	if err != nil {
		g.t.Fatal(err)
	}
	return string(b)
}

// TestSendfileCOW: bytes sendfile has queued to a client never change,
// whatever later happens to the source file or the connection.
func TestSendfileCOW(t *testing.T) {
	const data = "0123456789abcdef"
	for _, tc := range []struct {
		name   string
		after  func(g *sendfileGuest, cfd, in uint64)
		client string // what the client reads
		file   string // the file afterwards
	}{
		{"overwrite", func(g *sendfileGuest, _, _ uint64) {
			w, _ := g.k.FS.Open("/pub/f", fs.OWronly, 0)
			w.Write([]byte("XXXXXXXXXXXX"))
		}, "01234567", "XXXXXXXXXXXXcdef"},
		{"truncate", func(g *sendfileGuest, _, _ uint64) {
			w, _ := g.k.FS.Open("/pub/f", fs.OWronly|fs.OTrunc, 0)
			w.Write([]byte("new"))
		}, "01234567", "new"},
		{"guest-write-to-conn", func(g *sendfileGuest, cfd, _ uint64) {
			g.call("write_zzz", cfd)
		}, "01234567zzz", data},
		{"into-itself", func(g *sendfileGuest, _, in uint64) {
			self := g.call("open_file", fs.ORdwr)
			g.call("seek", self, 4)
			g.call("seek", in, 0)
			if n := g.call("xfer", self, in, 8); n != 8 {
				t.Fatalf("sendfile into itself moved %d", n)
			}
		}, "01234567", "012301234567cdef"},
		{"no-later-write", func(*sendfileGuest, uint64, uint64) {}, "01234567", data},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newSendfileGuest(t, data)
			client, cfd := g.connect()
			in := g.call("open_file", fs.ORdonly)
			if n := g.call("xfer", cfd, in, 8); n != 8 {
				t.Fatalf("sendfile moved %d", n)
			}
			tc.after(g, cfd, in)
			got := client.ClientReadAll()
			if string(got) != tc.client {
				t.Fatalf("client read %q, want %q", got, tc.client)
			}
			for i := range got { // what the client read is its own
				got[i] = 'X'
			}
			if f := g.file(); f != tc.file {
				t.Fatalf("file = %q, want %q", f, tc.file)
			}
		})
	}
}

// TestSendfileToConnNoAllocs pins the zero-copy sendfile: a warmed
// mid-file sendfile into a connection, drained by the client, allocates
// nothing.
func TestSendfileToConnNoAllocs(t *testing.T) {
	g := newSendfileGuest(t, string(bytes.Repeat([]byte{0x5a}, 64<<10)))
	client, cfd := g.connect()
	in := g.call("open_file", fs.ORdonly)
	xfer := func() {
		if n, err := g.m.CallFunction("xfer", cfd, in, 16); err != nil || n != 16 {
			t.Fatalf("sendfile = %d, %v", int64(n), err)
		}
		if n := client.ClientDrain(); n != 16 {
			t.Fatalf("client drained %d bytes", n)
		}
	}
	xfer()
	if allocs := testing.AllocsPerRun(100, xfer); allocs != 0 {
		t.Fatalf("sendfile to a connection allocates %.1f objects per call", allocs)
	}
}
