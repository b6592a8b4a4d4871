// Package cluster runs one PRESTO deployment as N cooperating OS
// processes. The paper's proxy tier is a distributed set of tethered
// nodes; until now the reproduction simulated every domain inside one
// process. This package is the missing network layer:
//
//   - Transport abstracts the coordinator ↔ site links: an in-process
//     Loopback for tests and benchmarks, and TCP with length-prefixed
//     frames (internal/wire's cluster codecs) for real processes.
//   - Site hosts a contiguous window of the deployment's simulation
//     domains — assigned at join time — and serves them over one
//     connection: bootstrap, advance leases, scatter rounds, and the
//     wired-replica bridge's cross-process traffic.
//   - Coordinator owns the global clock and the query fan-out: a
//     query.Spec scatters as ONE frame per remote site, each site folds
//     its domains' per-mote answers into query.RoundPartials locally
//     (push-down), and the coordinator finishes with the same
//     honest-bounds merge stage the in-process engine uses — a two-level
//     merge tree instead of a flat client-side fold.
//
// Determinism survives distribution: domains are built from global
// indexes (seeds, node ids, traces), advance leases are absolute virtual
// instants, and the merge folds partials in global domain order — so a
// multi-site AGG answers bit-identically to the same seed run in one
// process.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"presto/internal/wire"
)

// ErrClosed is returned by transport operations on closed endpoints.
var ErrClosed = errors.New("cluster: connection closed")

// ConnStats counts frames and bytes through a connection, by direction
// and kind. The scatter counters are what the one-frame-per-site
// property is asserted against: an N-mote aggregate must cost exactly
// one FrameScatter per site however many motes or domains it spans. The
// byte counters (wire.FrameSize per frame: length prefix + header +
// payload, computed identically for loopback and TCP) make the
// bytes-on-wire cost of the protocol visible in benchmarks.
type ConnStats struct {
	Sent, Recv           uint64
	SentBytes, RecvBytes uint64
	SentKind             [wire.FrameKindMax + 1]uint64
	RecvKind             [wire.FrameKindMax + 1]uint64
	SentKindBytes        [wire.FrameKindMax + 1]uint64
	RecvKindBytes        [wire.FrameKindMax + 1]uint64
}

// Conn is one reliable, ordered frame pipe between cluster peers. Send
// is safe for concurrent use (domain workers push bridge frames while
// the serve loop answers requests); Recv must be called from a single
// goroutine.
type Conn interface {
	Send(f wire.Frame) error
	Recv() (wire.Frame, error)
	Close() error
	Stats() ConnStats
}

// Listener accepts inbound site connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the bound address in the transport's own namespace —
	// "host:port" for TCP, the registered name for Loopback. Joiners
	// Dial it.
	Addr() string
}

// Transport abstracts how coordinator and sites reach each other.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// connCounter implements the shared frame accounting.
type connCounter struct {
	sent, recv           atomic.Uint64
	sentBytes, recvBytes atomic.Uint64
	sentKind             [wire.FrameKindMax + 1]atomic.Uint64
	recvKind             [wire.FrameKindMax + 1]atomic.Uint64
	sentKindBytes        [wire.FrameKindMax + 1]atomic.Uint64
	recvKindBytes        [wire.FrameKindMax + 1]atomic.Uint64
}

func (c *connCounter) countSend(k wire.FrameKind, n int) {
	c.sent.Add(1)
	c.sentBytes.Add(uint64(n))
	if int(k) < len(c.sentKind) {
		c.sentKind[k].Add(1)
		c.sentKindBytes[k].Add(uint64(n))
	}
}

func (c *connCounter) countRecv(k wire.FrameKind, n int) {
	c.recv.Add(1)
	c.recvBytes.Add(uint64(n))
	if int(k) < len(c.recvKind) {
		c.recvKind[k].Add(1)
		c.recvKindBytes[k].Add(uint64(n))
	}
}

func (c *connCounter) stats() ConnStats {
	var s ConnStats
	s.Sent, s.Recv = c.sent.Load(), c.recv.Load()
	s.SentBytes, s.RecvBytes = c.sentBytes.Load(), c.recvBytes.Load()
	for i := range c.sentKind {
		s.SentKind[i] = c.sentKind[i].Load()
		s.RecvKind[i] = c.recvKind[i].Load()
		s.SentKindBytes[i] = c.sentKindBytes[i].Load()
		s.RecvKindBytes[i] = c.recvKindBytes[i].Load()
	}
	return s
}

// ---------------------------------------------------------------------------
// Loopback transport

// Loopback is an in-process Transport: listeners register under plain
// string addresses, Dial pairs channel pipes. It exists so cluster tests
// and benchmarks exercise the real frame protocol — encode, counters,
// demux — without sockets, and so the scatter-gather benchmark can price
// the protocol itself against the in-process engine.
type Loopback struct {
	mu        sync.Mutex
	listeners map[string]*loopListener
	autoAddr  int
}

// NewLoopback returns an empty in-process transport.
func NewLoopback() *Loopback {
	return &Loopback{listeners: make(map[string]*loopListener)}
}

// Listen registers a listener under addr ("" allocates a fresh address).
func (lb *Loopback) Listen(addr string) (Listener, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if addr == "" {
		lb.autoAddr++
		addr = fmt.Sprintf("loop:%d", lb.autoAddr)
	}
	if _, ok := lb.listeners[addr]; ok {
		return nil, fmt.Errorf("cluster: loopback address %q in use", addr)
	}
	l := &loopListener{lb: lb, addr: addr, accept: make(chan Conn, 8), done: make(chan struct{})}
	lb.listeners[addr] = l
	return l, nil
}

// Dial connects to a registered listener.
func (lb *Loopback) Dial(addr string) (Conn, error) {
	lb.mu.Lock()
	l, ok := lb.listeners[addr]
	lb.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no loopback listener at %q", addr)
	}
	ab := make(chan wire.Frame, 256)
	ba := make(chan wire.Frame, 256)
	st := &loopState{done: make(chan struct{})}
	client := &loopConn{out: ab, in: ba, st: st}
	server := &loopConn{out: ba, in: ab, st: st}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

type loopListener struct {
	lb     *Loopback
	addr   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func (l *loopListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *loopListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.lb.mu.Lock()
		delete(l.lb.listeners, l.addr)
		l.lb.mu.Unlock()
	})
	return nil
}

func (l *loopListener) Addr() string { return l.addr }

// loopState is shared by both ends of a loopback pipe: either side's
// Close tears the pair down.
type loopState struct {
	once sync.Once
	done chan struct{}
}

type loopConn struct {
	out chan<- wire.Frame
	in  <-chan wire.Frame
	st  *loopState
	connCounter
}

func (c *loopConn) Send(f wire.Frame) error {
	select {
	case <-c.st.done:
		return ErrClosed
	default:
	}
	select {
	case c.out <- f:
		c.countSend(f.Kind, wire.FrameSize(f))
		return nil
	case <-c.st.done:
		return ErrClosed
	}
}

func (c *loopConn) Recv() (wire.Frame, error) {
	// Drain buffered frames even after Close: a real socket delivers
	// what was written before the FIN.
	select {
	case f := <-c.in:
		c.countRecv(f.Kind, wire.FrameSize(f))
		return f, nil
	default:
	}
	select {
	case f := <-c.in:
		c.countRecv(f.Kind, wire.FrameSize(f))
		return f, nil
	case <-c.st.done:
		return wire.Frame{}, io.EOF
	}
}

func (c *loopConn) Close() error {
	c.st.once.Do(func() { close(c.st.done) })
	return nil
}

func (c *loopConn) Stats() ConnStats { return c.stats() }

// SendIsCopy reports false: a loopback frame passes by reference, so
// the payload is retained for the life of the frame — senders must not
// recycle payload buffers.
func (c *loopConn) SendIsCopy() bool { return false }

// ---------------------------------------------------------------------------
// TCP transport

// TCP frames cluster messages over TCP connections: 4-byte length
// prefix, then the wire package's frame encoding. The zero value is
// ready to use.
type TCP struct{}

// Listen binds a TCP listener ("host:port"; ":0" picks a free port —
// read it back from Addr).
func (TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{nl: nl}, nil
}

// Dial connects to a coordinator.
func (TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

type tcpListener struct{ nl net.Listener }

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// SendCopier is implemented by conns that declare whether Send copies
// the frame's payload out before returning. When it does (TCP writes the
// bytes to the socket), the sender may recycle a pooled payload buffer
// as soon as Send returns; when it does not (loopback passes the frame
// by reference), the buffer must never be recycled. Conns that don't
// implement the interface must be treated as not copying.
type SendCopier interface {
	SendIsCopy() bool
}

// RecvBufReuser is implemented by conns that can read frames into one
// reused buffer instead of allocating per frame. Only a single-goroutine
// consumer that fully decodes each frame before the next Recv may enable
// it (a site's serve loop does; the coordinator's demux hands frames to
// other goroutines and must not).
type RecvBufReuser interface {
	ReuseRecvBuffer()
}

// tcpReadBuffer sizes a TCP connection's read buffer: a scatter, a
// lease or a round's partials arrive whole in one read, often with the
// frames behind them; a larger frame reads through.
const tcpReadBuffer = 16 << 10

type tcpConn struct {
	c      net.Conn
	sendMu sync.Mutex
	// r, readBuf and reuseBuf belong to the Recv goroutine (Conn.Recv is
	// single-goroutine by contract; call ReuseRecvBuffer from it, before
	// the first Recv).
	r        *bufio.Reader
	readBuf  []byte
	reuseBuf bool
	connCounter
}

func newTCPConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Frames are latency-sensitive RPCs and WriteFrame puts each on
		// the socket in one write, so Nagle only adds delay.
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, tcpReadBuffer)}
}

func (c *tcpConn) Send(f wire.Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := wire.WriteFrame(c.c, f); err != nil {
		return err
	}
	c.countSend(f.Kind, wire.FrameSize(f))
	return nil
}

func (c *tcpConn) Recv() (wire.Frame, error) {
	var f wire.Frame
	var err error
	if c.reuseBuf {
		f, c.readBuf, err = wire.ReadFrameBuf(c.r, c.readBuf)
	} else {
		f, err = wire.ReadFrame(c.r)
	}
	if err != nil {
		return wire.Frame{}, err
	}
	c.countRecv(f.Kind, wire.FrameSize(f))
	return f, nil
}

func (c *tcpConn) Close() error     { return c.c.Close() }
func (c *tcpConn) Stats() ConnStats { return c.stats() }

// SendIsCopy reports true: WriteFrame copies the payload into the
// socket before Send returns, so pooled payload buffers may be recycled
// immediately after.
func (c *tcpConn) SendIsCopy() bool { return true }

// ReuseRecvBuffer switches Recv to a persistent read buffer. See
// RecvBufReuser for the aliasing contract.
func (c *tcpConn) ReuseRecvBuffer() { c.reuseBuf = true }
