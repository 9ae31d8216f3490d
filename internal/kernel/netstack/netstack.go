// Package netstack implements the loopback socket layer of the simulated
// kernel. Workload generators act as remote clients: they dial a listening
// port, enqueue request bytes, and read responses, while the guest
// application performs socket/bind/listen/accept/read/write through the
// kernel. Everything is synchronous and deterministic — Accept on an empty
// backlog reports "would block" rather than parking a goroutine — which
// keeps benchmark timelines reproducible.
package netstack

import (
	"errors"
	"fmt"
	"sync"
)

// Errors mirroring errno conditions.
var (
	ErrWouldBlock = errors.New("netstack: operation would block")
	ErrAddrInUse  = errors.New("netstack: address already in use")
	ErrNotBound   = errors.New("netstack: socket not bound")
	ErrNotListen  = errors.New("netstack: socket not listening")
	ErrRefused    = errors.New("netstack: connection refused")
	ErrClosed     = errors.New("netstack: connection closed")
)

// Conn is one direction-pair of byte queues between a client and the guest.
type Conn struct {
	mu sync.Mutex
	// toServer holds bytes written by the client, read by the guest.
	toServer []byte
	// toClient queues the buffers written by the guest, in order, for the
	// client to read.
	toClient []queued
	closed   bool

	// queue0 is toClient's first storage, allocated with the connection.
	queue0 [1]queued
	// stack recycles the connection's drained response buffers.
	stack *Stack

	// RemotePort is the simulated client ephemeral port, for diagnostics.
	RemotePort uint16
}

// queued is one buffer on a connection's queue to the client. A view is a
// read-only buffer the connection does not own, such as file data queued
// by sendfile: nothing writes into it, and it is copied before it reaches
// a client that could. Every other buffer belongs to the connection.
type queued struct {
	b    []byte
	view bool
}

// serverRead moves up to len(buf) request bytes to the guest.
func (c *Conn) serverRead(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.toServer) == 0 {
		if c.closed {
			return 0, nil // EOF
		}
		return 0, ErrWouldBlock
	}
	n := copy(buf, c.toServer)
	c.toServer = c.toServer[n:]
	return n, nil
}

// serverWrite queues a copy of buf for the client, appended to the last
// queued buffer when the connection owns it, or else to the stack's spare
// buffer.
func (c *Conn) serverWrite(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if n := len(c.toClient); n > 0 && !c.toClient[n-1].view {
		c.toClient[n-1].b = append(c.toClient[n-1].b, buf...)
	} else if len(buf) > 0 {
		c.toClient = append(c.toClient, queued{b: append(c.stack.takeSpare(), buf...)})
	}
	return len(buf), nil
}

// serverWriteView queues buf itself for the client, as a read-only view.
func (c *Conn) serverWriteView(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if len(buf) > 0 {
		c.toClient = append(c.toClient, queued{b: buf, view: true})
	}
	return len(buf), nil
}

// ClientWrite enqueues request bytes (workload-generator side).
func (c *Conn) ClientWrite(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	c.toServer = append(c.toServer, buf...)
	return len(buf), nil
}

// ClientRead drains response bytes (workload-generator side). It returns
// what is available immediately; 0 bytes with nil error means none yet.
func (c *Conn) ClientRead(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	for n < len(buf) && len(c.toClient) > 0 {
		m := copy(buf[n:], c.toClient[0].b)
		n += m
		if c.toClient[0].b = c.toClient[0].b[m:]; len(c.toClient[0].b) == 0 {
			c.toClient[0] = queued{}
			c.toClient = c.toClient[1:]
		}
	}
	return n, nil
}

// ClientReadAll drains and returns everything the guest has written. The
// result is the caller's: a lone owned buffer is returned as is, anything
// else is copied.
func (c *Conn) ClientReadAll() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []byte
	if len(c.toClient) == 1 && !c.toClient[0].view {
		out = c.toClient[0].b
	} else {
		for _, q := range c.toClient {
			out = append(out, q.b...)
		}
	}
	c.resetQueue()
	return out
}

// ClientDrain discards everything the guest has written and returns its
// length, for clients that only count the bytes. Its largest owned buffer
// becomes the stack's spare; no one else holds a drained buffer, while a
// view belongs to its owner and a ClientReadAll result to its caller, so
// neither is ever recycled.
func (c *Conn) ClientDrain() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	var largest []byte
	for _, q := range c.toClient {
		n += len(q.b)
		if !q.view && cap(q.b) > cap(largest) {
			largest = q.b
		}
	}
	c.resetQueue()
	c.stack.recycle(largest)
	return n
}

// resetQueue empties the queue to the client, keeping its storage for the
// next writes.
func (c *Conn) resetQueue() {
	clear(c.toClient)
	c.toClient = c.toClient[:0]
}

// Close marks the connection closed; subsequent guest reads see EOF.
func (c *Conn) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
}

// Closed reports whether Close has been called.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Listener is a bound, listening socket with a backlog of pending
// connections.
type Listener struct {
	Port    uint16
	backlog []*Conn
	maxlog  int
}

// SockState tracks a guest socket through the bind/listen lifecycle.
type SockState int

// Socket lifecycle states.
const (
	SockNew SockState = iota
	SockBound
	SockListening
	SockConnected
)

// Socket is a guest-side socket endpoint.
type Socket struct {
	State SockState
	Port  uint16
	// Conn is set once connected (accepted or connect()ed).
	Conn *Conn
	// Lst is set once listening.
	Lst *Listener
}

// Stack is a single-host loopback network namespace.
type Stack struct {
	mu        sync.Mutex
	listeners map[uint16]*Listener
	nextEphem uint16

	// AcceptedTotal counts accepted connections, for workload statistics.
	AcceptedTotal uint64

	spareMu sync.Mutex // taken under Conn.mu, never the other way round
	spare   []byte     // an empty response buffer, recycled by ClientDrain
}

// takeSpare hands out the spare buffer, emptied, or nil if there is none.
func (s *Stack) takeSpare() []byte {
	s.spareMu.Lock()
	defer s.spareMu.Unlock()
	b := s.spare[:0]
	s.spare = nil
	return b
}

// recycle keeps b as the spare buffer if it is larger than the current
// one. b must be owned by no one else.
func (s *Stack) recycle(b []byte) {
	s.spareMu.Lock()
	defer s.spareMu.Unlock()
	if cap(b) > cap(s.spare) {
		s.spare = b
	}
}

// NewStack returns an empty loopback stack.
func NewStack() *Stack {
	return &Stack{listeners: map[uint16]*Listener{}, nextEphem: 40000}
}

// NewSocket creates an unbound socket.
func (s *Stack) NewSocket() *Socket { return &Socket{} }

// Bind binds the socket to a port.
func (s *Stack) Bind(sk *Socket, port uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sk.State != SockNew {
		return ErrAddrInUse
	}
	if _, used := s.listeners[port]; used {
		return ErrAddrInUse
	}
	sk.State = SockBound
	sk.Port = port
	return nil
}

// Listen turns a bound socket into a listener with the given backlog.
func (s *Stack) Listen(sk *Socket, backlog int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sk.State != SockBound {
		return ErrNotBound
	}
	if backlog <= 0 {
		backlog = 128
	}
	l := &Listener{Port: sk.Port, maxlog: backlog}
	s.listeners[sk.Port] = l
	sk.State = SockListening
	sk.Lst = l
	return nil
}

// Accept pops a pending connection, or reports ErrWouldBlock.
func (s *Stack) Accept(sk *Socket) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sk.State != SockListening || sk.Lst == nil {
		return nil, ErrNotListen
	}
	if len(sk.Lst.backlog) == 0 {
		return nil, ErrWouldBlock
	}
	c := sk.Lst.backlog[0]
	sk.Lst.backlog[0] = nil // the accepted conn now belongs to the caller
	sk.Lst.backlog = sk.Lst.backlog[1:]
	s.AcceptedTotal++
	return c, nil
}

// Close releases a listening socket: its port becomes free to bind again
// and its pending connections are closed. Closing any other socket is a
// no-op here; a connected socket's Conn is closed by its owner.
func (s *Stack) Close(sk *Socket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sk.State != SockListening || sk.Lst == nil {
		return
	}
	if s.listeners[sk.Port] == sk.Lst {
		delete(s.listeners, sk.Port)
	}
	for _, c := range sk.Lst.backlog {
		c.Close()
	}
	sk.Lst.backlog = nil
}

// Listeners returns the number of ports with a listening socket.
func (s *Stack) Listeners() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.listeners)
}

// Dial simulates a remote client connecting to port: the new connection is
// placed on the listener's backlog and returned for the client to use.
func (s *Stack) Dial(port uint16) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.listeners[port]
	if !ok {
		return nil, ErrRefused
	}
	if len(l.backlog) >= l.maxlog {
		return nil, fmt.Errorf("netstack: backlog full on port %d", port)
	}
	c := &Conn{RemotePort: s.nextEphem, stack: s}
	c.toClient = c.queue0[:0]
	s.nextEphem++
	if s.nextEphem == 0 {
		s.nextEphem = 40000
	}
	l.backlog = append(l.backlog, c)
	return c, nil
}

// Connect performs a guest-side outbound connection to a listening port on
// the same stack (used by applications that dial out, e.g. a database
// worker connecting to a coordinator).
func (s *Stack) Connect(sk *Socket, port uint16) (*Conn, error) {
	c, err := s.Dial(port)
	if err != nil {
		return nil, err
	}
	sk.State = SockConnected
	sk.Conn = c
	return c, nil
}

// Pending returns the number of queued connections on a port's listener.
func (s *Stack) Pending(port uint16) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.listeners[port]
	if !ok {
		return 0
	}
	return len(l.backlog)
}

// ServerRead is the kernel-facing read on an accepted connection.
func ServerRead(c *Conn, buf []byte) (int, error) { return c.serverRead(buf) }

// ServerWrite is the kernel-facing write on an accepted connection. It
// copies buf.
func ServerWrite(c *Conn, buf []byte) (int, error) { return c.serverWrite(buf) }

// ServerWriteView is ServerWrite without the copy: buf itself is queued as
// a read-only view, such as file data from fs.File.ReadView. Neither the
// connection nor the caller may write into it afterwards; the connection
// copies it before handing it to a client.
func ServerWriteView(c *Conn, buf []byte) (int, error) { return c.serverWriteView(buf) }
