package fs

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	f := New()
	data := []byte("GET / HTTP/1.1")
	if err := f.WriteFile("/srv/www/index.html", data, ModeRead|ModeWrite); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := f.ReadFile("/srv/www/index.html")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if _, err := f.ReadFile("/srv/www/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestOpenFlags(t *testing.T) {
	f := New()
	if err := f.WriteFile("/a", []byte("hello"), ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}

	// O_RDONLY can read, not write.
	ro, err := f.Open("/a", ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := ro.Read(buf); n != 5 {
		t.Fatalf("read %d", n)
	}
	if _, err := ro.Write([]byte("x")); err == nil {
		t.Fatal("write on O_RDONLY succeeded")
	}

	// O_TRUNC clears.
	w, err := f.Open("/a", OWronly|OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.ReadFile("/a"); string(got) != "xy" {
		t.Fatalf("after trunc+write: %q", got)
	}
	if _, err := w.Read(buf); err == nil {
		t.Fatal("read on O_WRONLY succeeded")
	}

	// O_APPEND starts at end.
	a, err := f.Open("/a", OWronly|OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.ReadFile("/a"); string(got) != "xyz" {
		t.Fatalf("after append: %q", got)
	}

	// O_CREAT creates.
	c, err := f.Open("/new", OWronly|OCreat, ModeRead|ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("n")); err != nil {
		t.Fatal(err)
	}
	if st, err := f.Stat("/new"); err != nil || st.Size != 1 {
		t.Fatalf("stat new: %+v %v", st, err)
	}
	// Without O_CREAT it fails.
	if _, err := f.Open("/new2", OWronly, 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
}

func TestPermissions(t *testing.T) {
	f := New()
	if err := f.WriteFile("/secret", []byte("k"), ModeWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/secret", ORdonly, 0); !errors.Is(err, ErrPerm) {
		t.Fatalf("read of non-readable: %v", err)
	}
	if err := f.Chmod("/secret", ModeRead); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/secret", ORdonly, 0); err != nil {
		t.Fatalf("read after chmod: %v", err)
	}
	if _, err := f.Open("/secret", OWronly, 0); !errors.Is(err, ErrPerm) {
		t.Fatalf("write of read-only: %v", err)
	}
	st, _ := f.Stat("/secret")
	if st.Mode != ModeRead {
		t.Fatalf("mode = %o", st.Mode)
	}
}

func TestSeek(t *testing.T) {
	f := New()
	if err := f.WriteFile("/a", []byte("0123456789"), ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}
	fl, err := f.Open("/a", ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if off, err := fl.Seek(4, SeekSet); err != nil || off != 4 {
		t.Fatalf("SeekSet: %d %v", off, err)
	}
	b := make([]byte, 2)
	fl.Read(b)
	if string(b) != "45" {
		t.Fatalf("after seek read %q", b)
	}
	if off, err := fl.Seek(-1, SeekCur); err != nil || off != 5 {
		t.Fatalf("SeekCur: %d %v", off, err)
	}
	if off, err := fl.Seek(-2, SeekEnd); err != nil || off != 8 {
		t.Fatalf("SeekEnd: %d %v", off, err)
	}
	if _, err := fl.Seek(-100, SeekSet); err == nil {
		t.Fatal("negative seek succeeded")
	}
	if _, err := fl.Seek(0, 9); err == nil {
		t.Fatal("bad whence succeeded")
	}
}

func TestWriteExtendsSparsely(t *testing.T) {
	f := New()
	if err := f.WriteFile("/a", nil, ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}
	fl, _ := f.Open("/a", ORdwr, 0)
	if _, err := fl.Seek(5, SeekSet); err != nil {
		t.Fatal(err)
	}
	fl.Write([]byte("xx"))
	got, _ := f.ReadFile("/a")
	want := []byte{0, 0, 0, 0, 0, 'x', 'x'}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if fl.Size() != 7 {
		t.Fatalf("size = %d", fl.Size())
	}
}

func TestDirOperations(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/etc/nginx", ModeRead|ModeWrite|ModeExec); err != nil {
		t.Fatal(err)
	}
	f.WriteFile("/etc/nginx/nginx.conf", []byte("worker 32"), ModeRead)
	f.WriteFile("/etc/nginx/mime.types", []byte("x"), ModeRead)
	ents, err := f.ReadDir("/etc/nginx")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "mime.types" || ents[1].Name != "nginx.conf" {
		t.Fatalf("ReadDir = %+v", ents)
	}
	if _, err := f.ReadDir("/etc/nginx/nginx.conf"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir on file: %v", err)
	}
	if _, err := f.Open("/etc/nginx", ORdonly, 0); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Open on dir: %v", err)
	}
	if err := f.Remove("/etc/nginx"); err == nil {
		t.Fatal("removed non-empty directory")
	}
	if err := f.Remove("/etc/nginx/mime.types"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/etc/nginx/mime.types"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat removed: %v", err)
	}
}

func TestIndependentOffsets(t *testing.T) {
	f := New()
	f.WriteFile("/a", []byte("abcdef"), ModeRead|ModeWrite)
	f1, _ := f.Open("/a", ORdonly, 0)
	f2, _ := f.Open("/a", ORdonly, 0)
	b := make([]byte, 3)
	f1.Read(b)
	if string(b) != "abc" {
		t.Fatalf("f1 read %q", b)
	}
	f2.Read(b)
	if string(b) != "abc" {
		t.Fatalf("f2 read %q (offset shared?)", b)
	}
}

// Property: WriteFile then ReadFile round-trips arbitrary contents at
// arbitrary (sanitized) paths.
func TestRoundTripProperty(t *testing.T) {
	f := New()
	fn := func(name string, data []byte) bool {
		p := "/prop/" + sanitize(name)
		if err := f.WriteFile(p, data, ModeRead|ModeWrite); err != nil {
			return false
		}
		got, err := f.ReadFile(p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := []byte("f")
	for _, c := range []byte(s) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	if len(out) > 32 {
		out = out[:32]
	}
	return string(out)
}

func TestReadView(t *testing.T) {
	f := New()
	if err := f.WriteFile("/f", []byte("0123456789"), ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}
	fl, err := f.Open("/f", ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		b, err := fl.ReadView(4)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if cap(b) != len(b) { // clipped: appending to a view copies it
			t.Fatalf("ReadView(4) view len %d cap %d", len(b), cap(b))
		}
		got = append(got, string(b))
	}
	if want := "0123|4567|89"; strings.Join(got, "|") != want {
		t.Fatalf("chunks = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { fl.Seek(2, SeekSet); fl.ReadView(4) }); allocs != 0 {
		t.Fatalf("ReadView allocates %.1f objects per call", allocs)
	}
	// The view is a snapshot: later writes to the file do not show.
	fl.Seek(0, SeekSet)
	b, _ := fl.ReadView(3)
	w, _ := f.Open("/f", OWronly, 0)
	w.Write([]byte("xyz"))
	if string(b) != "012" {
		t.Fatalf("view shows a later write: %q", b)
	}
	if got, _ := f.ReadFile("/f"); string(got) != "xyz3456789" {
		t.Fatalf("file = %q after write", got)
	}
	if _, err := w.ReadView(1); !errors.Is(err, ErrPerm) {
		t.Fatalf("ReadView on write-only file: %v, want ErrPerm", err)
	}
}

// TestViewCOW: a view of a file keeps its bytes whatever is later written
// to the file, and the file shows the writes.
func TestViewCOW(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, f *FS, view []byte)
		file  string
	}{
		{"overwrite", func(t *testing.T, f *FS, _ []byte) {
			w, _ := f.Open("/f", ORdwr, 0)
			w.Seek(3, SeekSet)
			w.Write([]byte("ABCDEFGHIJKL")) // over the view's span, and past the end
		}, "012ABCDEFGHIJKL"},
		{"truncate", func(t *testing.T, f *FS, _ []byte) {
			w, _ := f.Open("/f", OWronly|OTrunc, 0)
			if n := f.root.children["f"]; n.data != nil || n.shared {
				t.Fatal("truncated file still holds the viewed array")
			}
			w.Write([]byte("abcdefghij"))
		}, "abcdefghij"},
		{"self-copy", func(t *testing.T, f *FS, view []byte) { // sendfile into itself
			w, _ := f.Open("/f", ORdwr, 0)
			w.Seek(4, SeekSet)
			w.Write(view)
		}, "0123234567"},
		{"second-view", func(t *testing.T, f *FS, _ []byte) {
			w, _ := f.Open("/f", ORdwr, 0)
			w.Write([]byte("!"))
			r, _ := f.Open("/f", ORdonly, 0)
			v2, _ := r.ReadView(100)
			w.Write([]byte("?")) // the new view is shared too
			if string(v2) != "!123456789" {
				t.Fatalf("second view = %q", v2)
			}
		}, "!?23456789"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New()
			if err := f.WriteFile("/f", []byte("0123456789"), ModeRead|ModeWrite); err != nil {
				t.Fatal(err)
			}
			r, _ := f.Open("/f", ORdonly, 0)
			r.Seek(2, SeekSet)
			view, err := r.ReadView(6)
			if err != nil || string(view) != "234567" {
				t.Fatalf("ReadView = %q, %v", view, err)
			}
			tc.write(t, f, view)
			if string(view) != "234567" {
				t.Fatalf("view = %q after the write", view)
			}
			if got, _ := f.ReadFile("/f"); string(got) != tc.file {
				t.Fatalf("file = %q, want %q", got, tc.file)
			}
		})
	}
}

// TestViewCOWUnsharedWritesInPlace: a file no view points at keeps its
// array across writes and truncation, and truncation plus a write past
// the end leaves zeroes, not stale bytes, in the hole.
func TestViewCOWUnsharedWritesInPlace(t *testing.T) {
	f := New()
	w, _ := f.Open("/j", ORdwr|OCreat, ModeRead|ModeWrite)
	w.Write([]byte("abcdefgh"))
	before := &f.root.children["j"].data[0]
	w.Seek(0, SeekSet)
	w.Write([]byte("XY"))
	if &f.root.children["j"].data[0] != before {
		t.Fatal("in-place write of an unshared file reallocated its data")
	}
	w2, _ := f.Open("/j", OWronly|OTrunc, 0)
	w2.Seek(3, SeekSet)
	w2.Write([]byte("Z"))
	if got, _ := f.ReadFile("/j"); !bytes.Equal(got, []byte{0, 0, 0, 'Z'}) {
		t.Fatalf("file = %q after truncate and sparse write", got)
	}
}

// TestFileAppendAllocs: a file grown by small appending writes, as the
// sqlite journal is, reallocates O(log n) times, not once per write.
func TestFileAppendAllocs(t *testing.T) {
	const writes, size = 10000, 24
	f := New()
	w, err := f.Open("/journal", OWronly|OCreat|OAppend, ModeRead|ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'r'}, size)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range writes {
		if _, err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// append grows by at least 1.25x, so about log(240000/24)/log(1.25)
	// = 41 reallocations; one per write would be 10000.
	if n := after.Mallocs - before.Mallocs; n > 64 {
		t.Fatalf("%d appending writes allocated %d times", writes, n)
	}
	if st, _ := f.Stat("/journal"); st.Size != writes*size {
		t.Fatalf("size = %d, want %d", st.Size, writes*size)
	}
}

// TestViewCOWConcurrentWrites drains views of a file in one goroutine
// while another overwrites the file. Each write fills the file with one
// byte value, so every view must hold a single value, and keep holding it
// after the writer has moved on; under -race, a write into an array a
// view points at is also reported as a data race.
func TestViewCOWConcurrentWrites(t *testing.T) {
	const size = 4096
	f := New()
	if err := f.WriteFile("/f", make([]byte, size), ModeRead|ModeWrite); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, _ := f.Open("/f", OWronly, 0)
		buf := make([]byte, size)
		for i := range 500 {
			for j := range buf {
				buf[j] = byte(i)
			}
			w.Seek(0, SeekSet)
			w.Write(buf)
		}
	}()
	r, _ := f.Open("/f", ORdonly, 0)
	var held [][]byte
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		r.Seek(0, SeekSet)
		v, err := r.ReadView(size)
		if err != nil || len(v) != size {
			t.Fatalf("ReadView = %d bytes, %v", len(v), err)
		}
		held = append(held, v)
		runtime.Gosched()
	}
	for i, v := range held {
		if len(bytes.Trim(v, string(v[:1]))) != 0 {
			t.Fatalf("view %d mixes bytes of different writes", i)
		}
	}
}

// refFile is the reference model for FuzzFileViewsVsCopy: a file whose
// every read returns a fresh copy.
type refFile struct{ data []byte }

type refHandle struct {
	flags  int
	offset int64
}

// FuzzFileViewsVsCopy runs random Open/OTrunc/Write/Seek/ReadView/WriteFile
// sequences on one file against an eager-copy reference model, with views
// written back into the file as sendfile into itself does. Every view must
// hold, at the end of the sequence, the bytes the reference returned when
// the view was handed out; every error, offset and the final contents must
// agree.
func FuzzFileViewsVsCopy(f *testing.F) {
	f.Add([]byte{0, 2, 4, 0, 3, 5, 1, 0, 2, 8, 0, 4, 0, 2, 2, 1, 9})
	f.Add([]byte{0, 2, 0, 1, 2, 0, 4, 0, 6, 0, 1, 0x42, 2, 0, 0, 3, 4, 0, 1, 1, 4, 0, 0, 2, 5, 1, 1})
	f.Add([]byte{0, 1, 0, 3, 2, 1, 3, 0, 3, 1, 4, 1, 1, 0, 20, 5, 2, 1, 1, 0, 1, 0, 3, 0, 1, 0, 0, 2, 3})
	f.Add([]byte{0, 2, 0, 2, 0, 4, 0, 0, 0, 1, 1, 2, 1, 1, 0, 3, 0, 9, 5, 7, 1, 0, 2, 0, 1, 0, 0, 5, 2, 2})
	flagSet := []int{ORdonly, OWronly, ORdwr, OWronly | OTrunc, ORdwr | OTrunc, ORdwr | OAppend, ORdonly | OTrunc}
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := New()
		if err := fsys.WriteFile("/f", []byte("0123456789abcdef"), ModeRead|ModeWrite); err != nil {
			t.Fatal(err)
		}
		ref := &refFile{data: []byte("0123456789abcdef")}
		var files [3]*File
		var refs [3]*refHandle
		type held struct {
			view, want []byte
			step       int
		}
		var views []held
		r := &opReader{b: data}
		for step := 0; len(r.b) > 0 && step < 256; step++ {
			op, h := r.byte()%6, int(r.byte()%3)
			if op != 0 && files[h] == nil {
				continue
			}
			switch op {
			case 0: // Open, sometimes truncating
				flags := flagSet[int(r.byte())%len(flagSet)]
				fl, err := fsys.Open("/f", flags, 0)
				if err != nil {
					t.Fatalf("step %d: Open(%#x): %v", step, flags, err)
				}
				if flags&OTrunc != 0 && flags&0x3 != ORdonly {
					ref.data = nil
				}
				rh := &refHandle{flags: flags}
				if flags&OAppend != 0 {
					rh.offset = int64(len(ref.data))
				}
				files[h], refs[h] = fl, rh
			case 1, 2: // Write fresh bytes, or a held view (sendfile into itself)
				var buf []byte
				if n := int(r.byte()); op == 2 && len(views) > 0 {
					buf = views[n%len(views)].view
				} else {
					buf = make([]byte, n%40)
					for i := range buf {
						buf[i] = byte('A' + (step+i)%26)
					}
				}
				want := append([]byte(nil), buf...)
				n, err := files[h].Write(buf)
				rh := refs[h]
				if rh.flags&0x3 == ORdonly {
					if !errors.Is(err, ErrPerm) {
						t.Fatalf("step %d: Write on read-only file: %v", step, err)
					}
					continue
				}
				if err != nil || n != len(want) {
					t.Fatalf("step %d: Write = %d, %v", step, n, err)
				}
				end := rh.offset + int64(len(want))
				if int64(len(ref.data)) < end {
					grown := make([]byte, end)
					copy(grown, ref.data)
					ref.data = grown
				}
				copy(ref.data[rh.offset:end], want)
				rh.offset = end
			case 3: // Seek, sometimes past the end
				off, whence := int64(r.byte()%48)-8, int(r.byte()%3)
				got, err := files[h].Seek(off, whence)
				rh := refs[h]
				base := map[int]int64{SeekSet: 0, SeekCur: rh.offset, SeekEnd: int64(len(ref.data))}[whence]
				if base+off < 0 {
					if !errors.Is(err, ErrBadOffset) {
						t.Fatalf("step %d: Seek to %d: %v", step, base+off, err)
					}
					continue
				}
				rh.offset = base + off
				if err != nil || got != rh.offset {
					t.Fatalf("step %d: Seek = %d, %v; want %d", step, got, err, rh.offset)
				}
			case 4: // ReadView
				n := int(r.byte() % 24)
				v, err := files[h].ReadView(n)
				rh := refs[h]
				if rh.flags&0x3 == OWronly {
					if !errors.Is(err, ErrPerm) {
						t.Fatalf("step %d: ReadView on write-only file: %v", step, err)
					}
					continue
				}
				var want []byte
				eof := rh.offset >= int64(len(ref.data))
				if !eof {
					end := min(rh.offset+int64(n), int64(len(ref.data)))
					want = append([]byte(nil), ref.data[rh.offset:end]...)
					rh.offset = end
				}
				if err != nil || !bytes.Equal(v, want) || (v == nil) != eof {
					t.Fatalf("step %d: ReadView(%d) = %q, %v; want %q", step, n, v, err, want)
				}
				if v != nil {
					views = append(views, held{v, want, step})
				}
			case 5: // WriteFile replaces the contents
				content := bytes.Repeat([]byte{byte('a' + step%26)}, int(r.byte()%20))
				if err := fsys.WriteFile("/f", content, ModeRead|ModeWrite); err != nil {
					t.Fatal(err)
				}
				ref.data = append([]byte(nil), content...)
			}
		}
		for _, h := range views {
			if !bytes.Equal(h.view, h.want) {
				t.Fatalf("view from step %d = %q, want %q", h.step, h.view, h.want)
			}
		}
		if got, _ := fsys.ReadFile("/f"); !bytes.Equal(got, ref.data) {
			t.Fatalf("final contents = %q, want %q", got, ref.data)
		}
	})
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
