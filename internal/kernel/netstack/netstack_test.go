package netstack

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func listen(t *testing.T, s *Stack, port uint16) *Socket {
	t.Helper()
	sk := s.NewSocket()
	if err := s.Bind(sk, port); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := s.Listen(sk, 16); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return sk
}

func TestDialAcceptEcho(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)

	client, err := s.Dial(80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := client.ClientWrite([]byte("ping")); err != nil {
		t.Fatal(err)
	}

	conn, err := s.Accept(sk)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	buf := make([]byte, 16)
	n, err := ServerRead(conn, buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := ServerWrite(conn, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got := client.ClientReadAll(); !bytes.Equal(got, []byte("pong")) {
		t.Fatalf("client read %q", got)
	}
	if s.AcceptedTotal != 1 {
		t.Fatalf("AcceptedTotal = %d", s.AcceptedTotal)
	}
}

func TestAcceptEmptyBacklogWouldBlock(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	if _, err := s.Accept(sk); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("Accept on empty backlog: %v", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	s := NewStack()
	sk := s.NewSocket()
	if err := s.Listen(sk, 1); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Listen unbound: %v", err)
	}
	if _, err := s.Accept(sk); !errors.Is(err, ErrNotListen) {
		t.Fatalf("Accept non-listener: %v", err)
	}
	if _, err := s.Dial(9999); !errors.Is(err, ErrRefused) {
		t.Fatalf("Dial closed port: %v", err)
	}
	listen(t, s, 80)
	sk2 := s.NewSocket()
	if err := s.Bind(sk2, 80); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double bind: %v", err)
	}
}

func TestBacklogLimitAndOrder(t *testing.T) {
	s := NewStack()
	sk := s.NewSocket()
	if err := s.Bind(sk, 80); err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(sk, 2); err != nil {
		t.Fatal(err)
	}
	c1, err := s.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dial(80); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Dial(80); err == nil {
		t.Fatal("backlog overflow accepted")
	}
	if got := s.Pending(80); got != 2 {
		t.Fatalf("Pending = %d", got)
	}
	c1.ClientWrite([]byte("first"))
	got, err := s.Accept(sk)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 8)
	n, _ := ServerRead(got, b)
	if string(b[:n]) != "first" {
		t.Fatalf("accept order broken: %q", b[:n])
	}
}

func TestCloseSemantics(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	client, _ := s.Dial(80)
	conn, _ := s.Accept(sk)

	// Read with nothing queued and peer open: would block.
	b := make([]byte, 4)
	if _, err := ServerRead(conn, b); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read empty open conn: %v", err)
	}
	client.ClientWrite([]byte("xy"))
	client.Close()
	// Queued data still readable after close.
	n, err := ServerRead(conn, b)
	if err != nil || string(b[:n]) != "xy" {
		t.Fatalf("read after close: %q %v", b[:n], err)
	}
	// Then EOF.
	n, err = ServerRead(conn, b)
	if n != 0 || err != nil {
		t.Fatalf("EOF read: %d %v", n, err)
	}
	if _, err := ServerWrite(conn, []byte("z")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if !conn.Closed() {
		t.Fatal("Closed() = false")
	}
}

func TestGuestConnect(t *testing.T) {
	s := NewStack()
	listen(t, s, 5432)
	sk := s.NewSocket()
	conn, err := s.Connect(sk, 5432)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if sk.State != SockConnected || sk.Conn != conn {
		t.Fatalf("socket state %v", sk.State)
	}
	if s.Pending(5432) != 1 {
		t.Fatal("connection not queued at listener")
	}
}

func TestCloseListenerReleasesPort(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 30001)
	pending, err := s.Dial(30001)
	if err != nil {
		t.Fatal(err)
	}
	s.Close(sk)
	if n := s.Listeners(); n != 0 {
		t.Fatalf("Listeners = %d after close, want 0", n)
	}
	if !pending.Closed() {
		t.Fatal("pending connection left open by listener close")
	}
	if _, err := s.Dial(30001); !errors.Is(err, ErrRefused) {
		t.Fatalf("Dial closed port: %v, want ErrRefused", err)
	}
	// The port can be bound and listened on again.
	again := listen(t, s, 30001)
	if _, err := s.Dial(30001); err != nil {
		t.Fatalf("Dial rebound port: %v", err)
	}
	if _, err := s.Accept(again); err != nil {
		t.Fatalf("Accept on rebound port: %v", err)
	}
	// Closing a socket that is not listening leaves the stack alone.
	s.Close(s.NewSocket())
	if n := s.Listeners(); n != 1 {
		t.Fatalf("Listeners = %d, want 1", n)
	}
}

func TestAcceptReleasesBacklogSlot(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	if _, err := s.Dial(80); err != nil {
		t.Fatal(err)
	}
	backlog := sk.Lst.backlog
	if _, err := s.Accept(sk); err != nil {
		t.Fatal(err)
	}
	if backlog[0] != nil {
		t.Fatal("accepted conn still reachable through the backlog array")
	}
}

func TestViewAndCopiedWritesKeepOrder(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	client, _ := s.Dial(80)
	conn, _ := s.Accept(sk)
	src := []byte("ab")
	for _, w := range []struct {
		buf  []byte
		view bool
	}{
		{src, false}, {[]byte("cde"), true}, {[]byte("f"), false},
		{nil, true}, {[]byte("gh"), true}, {[]byte("ij"), false},
	} {
		write := ServerWrite
		if w.view {
			write = ServerWriteView
		}
		if n, err := write(conn, w.buf); err != nil || n != len(w.buf) {
			t.Fatalf("write %q: %d, %v", w.buf, n, err)
		}
	}
	src[0] = 'X' // a copied write must not alias its source
	if got := string(client.ClientReadAll()); got != "abcdefghij" {
		t.Fatalf("ClientReadAll = %q, want %q", got, "abcdefghij")
	}
	if got := client.ClientReadAll(); got != nil {
		t.Fatalf("second ClientReadAll = %q, want nil", got)
	}
}

func TestPartialClientReadDrainsAcrossBuffers(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	client, _ := s.Dial(80)
	conn, _ := s.Accept(sk)
	ServerWrite(conn, []byte("abc"))
	ServerWriteView(conn, []byte("defg"))
	ServerWriteView(conn, []byte("h"))
	var got []string
	for _, size := range []int{5, 2, 10, 4} {
		b := make([]byte, size)
		n, err := client.ClientRead(b)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(b[:n]))
	}
	if want := []string{"abcde", "fg", "h", ""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reads = %q, want %q", got, want)
	}
	ServerWriteView(conn, []byte("xyz"))
	ServerWrite(conn, []byte("w"))
	if n := client.ClientDrain(); n != 4 {
		t.Fatalf("ClientDrain = %d, want 4", n)
	}
	if n, _ := client.ClientRead(make([]byte, 4)); n != 0 {
		t.Fatalf("read after drain = %d bytes", n)
	}
	client.Close()
	if _, err := ServerWriteView(conn, []byte("z")); !errors.Is(err, ErrClosed) {
		t.Fatalf("view write after close: %v", err)
	}
}

// accepted returns a client conn and the guest's end of it.
func accepted(t *testing.T) (client, conn *Conn) {
	t.Helper()
	s := NewStack()
	sk := listen(t, s, 80)
	client, _ = s.Dial(80)
	conn, err := s.Accept(sk)
	if err != nil {
		t.Fatal(err)
	}
	return client, conn
}

// TestViewNotWrittenByLaterWrite: a copied write after a view starts a
// buffer of its own instead of appending into the view, even when the
// view has spare capacity.
func TestViewNotWrittenByLaterWrite(t *testing.T) {
	client, conn := accepted(t)
	file := []byte("abcd\x00\x00\x00\x00")
	ServerWriteView(conn, file[:4])
	ServerWrite(conn, []byte("xyz"))
	if string(file) != "abcd\x00\x00\x00\x00" {
		t.Fatalf("queued view's array = %q after a later write", file)
	}
	if got := string(client.ClientReadAll()); got != "abcdxyz" {
		t.Fatalf("ClientReadAll = %q", got)
	}
}

// TestViewClientReadAllCopies: a lone queued view reaches ClientReadAll
// as a copy, so a client that writes into what it read cannot change the
// viewed data; a lone owned buffer is returned without a copy.
func TestViewClientReadAllCopies(t *testing.T) {
	client, conn := accepted(t)
	file := []byte("file data")
	ServerWriteView(conn, file)
	got := client.ClientReadAll()
	for i := range got {
		got[i] = 'X'
	}
	if string(file) != "file data" {
		t.Fatalf("writing ClientReadAll's result changed the view to %q", file)
	}
	// Each write-and-read-all below makes exactly one buffer: the copy
	// serverWrite takes, or the copy ClientReadAll makes of the view.
	for _, write := range []func(*Conn, []byte) (int, error){ServerWrite, ServerWriteView} {
		if allocs := testing.AllocsPerRun(100, func() {
			write(conn, file)
			client.ClientReadAll()
		}); allocs != 1 {
			t.Fatalf("write + ClientReadAll allocates %.1f objects, want 1", allocs)
		}
	}
}

// TestViewPartialClientReads: reading a view in pieces copies it out and
// leaves the viewed array unchanged.
func TestViewPartialClientReads(t *testing.T) {
	client, conn := accepted(t)
	file := []byte("0123456789")
	ServerWriteView(conn, file[2:8:8])
	var got []byte
	for {
		b := make([]byte, 4)
		n, _ := client.ClientRead(b)
		if n == 0 {
			break
		}
		got = append(got, b[:n]...)
		b[0] = 'X' // the client's buffer is its own
	}
	if string(got) != "234567" || string(file) != "0123456789" {
		t.Fatalf("reads = %q, file = %q", got, file)
	}
}

// TestDrainRecycleAllocs: a drained response buffer becomes the stack's
// spare, so the next connection's first write that fits in it allocates
// nothing.
func TestDrainRecycleAllocs(t *testing.T) {
	s := NewStack()
	listen(t, s, 80)
	resp := bytes.Repeat([]byte("r"), 6745)
	first, _ := s.Dial(80)
	ServerWrite(first, resp)
	if n := first.ClientDrain(); n != len(resp) {
		t.Fatalf("ClientDrain = %d, want %d", n, len(resp))
	}
	var conns []*Conn
	for i := 0; i < 8; i++ {
		c, err := s.Dial(80)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if allocs := testing.AllocsPerRun(len(conns)-1, func() {
		c := conns[0]
		conns = conns[1:]
		ServerWrite(c, resp)
		c.ClientDrain()
	}); allocs != 0 {
		t.Fatalf("write into a recycled buffer allocates %.1f objects, want 0", allocs)
	}
}

// TestViewNeverRecycled: ClientDrain recycles only owned buffers, so a
// sendfile view it drains, even one with more capacity than the owned
// buffer beside it, is never written by a later connection.
func TestViewNeverRecycled(t *testing.T) {
	s := NewStack()
	listen(t, s, 80)
	file := bytes.Repeat([]byte("f"), 4096)
	c1, _ := s.Dial(80)
	ServerWrite(c1, []byte("hdr"))
	ServerWriteView(c1, file)
	c1.ClientDrain()
	c2, _ := s.Dial(80)
	ServerWriteView(c2, file[:16])
	c2.ClientDrain()
	c3, _ := s.Dial(80)
	ServerWrite(c3, bytes.Repeat([]byte("w"), 4096))
	if !bytes.Equal(file, bytes.Repeat([]byte("f"), 4096)) {
		t.Fatal("a drained view was written by a later connection")
	}
	if got := c3.ClientReadAll(); !bytes.Equal(got, bytes.Repeat([]byte("w"), 4096)) {
		t.Fatalf("ClientReadAll = %q", got)
	}
}

// TestClientReadAllBufferNeverRecycled: the buffer ClientReadAll hands
// out is the caller's; writing into it never shows up in a later
// connection's data, and later connections never write into it.
func TestClientReadAllBufferNeverRecycled(t *testing.T) {
	s := NewStack()
	listen(t, s, 80)
	c1, _ := s.Dial(80)
	ServerWrite(c1, bytes.Repeat([]byte("a"), 4096))
	mine := c1.ClientReadAll()
	for i := range mine {
		mine[i] = 'X'
	}
	for i := 0; i < 3; i++ {
		c, _ := s.Dial(80)
		want := bytes.Repeat([]byte{byte('b' + i)}, 100)
		ServerWrite(c, want)
		if got := c.ClientReadAll(); !bytes.Equal(got, want) {
			t.Fatalf("conn %d read %q, want %q", i, got, want)
		}
		c2, _ := s.Dial(80)
		ServerWrite(c2, want)
		c2.ClientDrain()
	}
	if !bytes.Equal(mine, bytes.Repeat([]byte("X"), 4096)) {
		t.Fatal("a ClientReadAll result was written by a later connection")
	}
}

// TestDrainRecycleConcurrent: connections on one stack write, read and
// drain concurrently; the spare buffer passes between them without a
// race, and no connection ever sees another's bytes.
func TestDrainRecycleConcurrent(t *testing.T) {
	s := NewStack()
	sk := listen(t, s, 80)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(fill byte) {
			defer wg.Done()
			part := bytes.Repeat([]byte{fill}, 1000)
			for i := 0; i < 500; i++ {
				c, err := s.Dial(80)
				if err == nil {
					_, err = s.Accept(sk) // keeps the backlog short
				}
				if err != nil {
					t.Error(err)
					return
				}
				ServerWrite(c, part)
				ServerWrite(c, part)
				got := make([]byte, len(part))
				if n, _ := c.ClientRead(got); n != len(got) || !bytes.Equal(got, part) {
					t.Errorf("conn %d read %d bytes %q...", i, n, got[:8])
					return
				}
				if n := c.ClientDrain(); n != len(part) {
					t.Errorf("conn %d drained %d bytes, want %d", i, n, len(part))
					return
				}
			}
		}(byte('a' + g))
	}
	wg.Wait()
}
