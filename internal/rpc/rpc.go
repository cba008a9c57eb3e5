// Package rpc is the control-plane RPC layer over the transport
// abstraction: the coordinator, the distributed lock manager, the shared
// log, the replication groups and the controlet control port all speak it.
// The data path uses internal/wire instead.
//
// Every frame is a 4-byte little-endian body length, then a binary body
// that starts with a version byte:
//
//	request:  version | id | trace id | deadline budget (ns) | method | payload
//	response: version | id | error | payload
//
// id, trace id and budget are uvarints, method and error are
// uvarint-length-prefixed, and the payload runs to the end of the frame. A
// payload whose type implements the standard library pair
// encoding.BinaryAppender / encoding.BinaryUnmarshaler is encoded with
// those methods; any other payload is JSON. Both ends share the Go type, so
// they agree on the encoding without saying so on the wire. A body with any
// other first byte, an older peer's JSON '{' included, closes the
// connection. Many calls may be in flight on one connection; responses
// match by id.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/trace"
	"bespokv/internal/transport"
)

// DefaultCallTimeout bounds Client.Call when Client.CallTimeout is unset.
// A response that never comes (server wedged, frame lost to a half-open
// connection) must fail the call, not hang it forever. The longest
// legitimate waits in-tree are the ~2s watch long-polls and DLM lock waits,
// so 10s is comfortably above any honest response time.
const DefaultCallTimeout = 10 * time.Second

// ErrCallTimeout is returned when a call's response did not arrive in time.
var ErrCallTimeout = errors.New("rpc: call timed out")

// errDeadlineExpired is the server-side reply for a call whose budget was
// spent before its handler ran.
const errDeadlineExpired = "rpc: deadline expired"

// Handler processes one call. args is the raw request payload; the
// returned value is encoded as the result.
type Handler func(args []byte) (any, error)

// Server dispatches calls to registered handlers.
type Server struct {
	// Name identifies this server in trace spans (e.g. "coordinator",
	// "dlm"); set it before Serve. Empty renders as "rpc".
	Name string

	mu       sync.RWMutex
	handlers map[string]Handler
	listener transport.Listener
	conns    sync.WaitGroup
	active   map[transport.Conn]struct{}
	closed   bool
}

func (s *Server) traceName() string {
	if s.Name != "" {
		return s.Name
	}
	return "rpc"
}

// NewServer returns a server with no handlers bound.
func NewServer() *Server {
	return &Server{
		handlers: map[string]Handler{},
		active:   map[transport.Conn]struct{}{},
	}
}

// Handle registers fn under method; it panics on duplicates (init-time bug).
func (s *Server) Handle(method string, fn Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic("rpc: duplicate method " + method)
	}
	s.handlers[method] = fn
}

// HandleFunc registers a typed handler: fn's argument is decoded from the
// request payload, in binary when A implements the encoding pair (see the
// package comment), in JSON otherwise.
func HandleFunc[A any, R any](s *Server, method string, fn func(A) (R, error)) {
	s.Handle(method, func(raw []byte) (any, error) {
		var args A
		if err := decodePayload(raw, &args); err != nil {
			return nil, fmt.Errorf("rpc: bad args for %s: %w", method, err)
		}
		return fn(args)
	})
}

// Serve starts listening on network/addr and returns immediately.
func (s *Server) Serve(network transport.Network, addr string) (string, error) {
	l, err := network.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	go s.acceptLoop(l)
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.active[conn] = struct{}{}
		// Register with the WaitGroup while still holding mu: once Close
		// sets closed (under mu) it may already be in conns.Wait, and an
		// Add racing that Wait is a WaitGroup misuse.
		s.conns.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.conns.Done()
			defer func() {
				s.mu.Lock()
				delete(s.active, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// serverConn is one accepted connection; handler goroutines share its
// write lock.
type serverConn struct {
	conn    transport.Conn
	writeMu sync.Mutex
}

func (s *Server) serveConn(conn transport.Conn) {
	sc := &serverConn{conn: conn}
	fr := frameReader{r: conn}
	for {
		body, err := fr.next()
		if err != nil {
			return
		}
		req, err := decodeRequest(body)
		if err != nil {
			return // not our envelope: close the connection
		}
		recv := time.Now()
		s.mu.RLock()
		h := s.handlers[string(req.method)]
		s.mu.RUnlock()
		// Dispatch concurrently so slow handlers (watch long-polls)
		// don't block the connection. Each dispatched handler holds a
		// WaitGroup slot so Close waits for it instead of racing its
		// teardown. (serveConn itself holds a slot, so this Add can
		// never race conns.Wait observing zero.)
		s.conns.Add(1)
		go s.dispatch(sc, req, h, recv)
	}
}

// dispatch runs one call (h is nil for an unknown method) and writes its
// response.
func (s *Server) dispatch(sc *serverConn, req request, h Handler, recv time.Time) {
	defer s.conns.Done()
	if req.trace != 0 {
		start := time.Now()
		defer func() {
			trace.Record(req.trace, s.traceName(), "rpc."+string(req.method), start, time.Since(start), "")
		}()
	}
	var errMsg string
	var result any
	switch {
	case h == nil:
		errMsg = "rpc: unknown method " + string(req.method)
	case req.budget != 0 && time.Since(recv) > time.Duration(req.budget):
		// The caller's budget ran out between receive and dispatch
		// (handler goroutines starved under load); the caller has
		// already timed out, so the work is doomed.
		rpcDeadlineExpired.Inc()
		errMsg = errDeadlineExpired
	default:
		var err error
		if result, err = h(req.payload); err != nil {
			errMsg = err.Error()
		}
	}
	bp := getBuf()
	frame, err := appendResponse(*bp, req.id, errMsg, result)
	if err != nil {
		frame, _ = appendResponse(*bp, req.id, "rpc: encode result: "+err.Error(), nil)
	}
	// A failed write means the connection is gone; serveConn's next read
	// fails too and closes it.
	sc.writeMu.Lock()
	_, _ = sc.conn.Write(frame)
	sc.writeMu.Unlock()
	putBuf(bp, frame)
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.active {
		_ = c.Close()
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	s.conns.Wait()
	return nil
}

// Client is a concurrent-safe RPC client over one connection.
type Client struct {
	conn    transport.Conn
	writeMu sync.Mutex
	nextID  atomic.Uint64

	// CallTimeout bounds each Call's wait for its response; zero or
	// negative disables the bound. Set before the first Call.
	CallTimeout time.Duration

	mu      sync.Mutex
	pending map[uint64]chan response
	err     error
}

// DialClient connects to an rpc.Server with the default call timeout.
func DialClient(network transport.Network, addr string) (*Client, error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:        conn,
		CallTimeout: DefaultCallTimeout,
		pending:     map[uint64]chan response{},
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	fr := frameReader{r: c.conn}
	for {
		body, err := fr.next()
		var resp response
		if err == nil {
			resp, err = decodeResponse(body)
		}
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.id]
		delete(c.pending, resp.id)
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- response{err: "rpc: connection failed: " + err.Error()}
	}
}

// A call's response channel is recycled only after the call received on
// it: the read loop and failAll send at most once per registration, so a
// drained channel can never see a late send. The channel of a call that
// timed out or failed to write is left to the collector.
var chanPool = sync.Pool{New: func() any { return make(chan response, 1) }}

var (
	rpcCallSeconds = metrics.Default.Histogram("bespokv_rpc_call_seconds")
	rpcTimeouts    = metrics.Default.Counter("bespokv_rpc_call_timeouts_total")

	// Calls whose propagated budget was spent before dispatch.
	rpcDeadlineExpired = metrics.Default.Counter("bespokv_deadline_expired_total", "layer", "rpc")
)

// methodCounters holds one method's labeled call and error counters.
type methodCounters struct {
	calls, errors *metrics.Counter
}

// byMethod caches each method's counters, so a call pays a map read, not
// a registry lookup, for its labeled series.
var byMethod sync.Map // method string → *methodCounters

func countersFor(method string) *methodCounters {
	if m, ok := byMethod.Load(method); ok {
		return m.(*methodCounters)
	}
	m, _ := byMethod.LoadOrStore(method, &methodCounters{
		calls:  metrics.Default.Counter("bespokv_rpc_calls_total", "method", method),
		errors: metrics.Default.Counter("bespokv_rpc_call_errors_total", "method", method),
	})
	return m.(*methodCounters)
}

// Call invokes method with args, decoding the result into reply (which
// may be nil to discard it). It waits at most c.CallTimeout.
func (c *Client) Call(method string, args any, reply any) error {
	return c.call(0, method, args, reply, c.CallTimeout)
}

// CallTraced is Call carrying the trace ID of a sampled request; the
// server records an "rpc.<method>" span for it.
func (c *Client) CallTraced(tid uint64, method string, args, reply any) error {
	return c.call(tid, method, args, reply, c.CallTimeout)
}

// CallTimeoutEx is Call with an explicit response deadline, for the few
// long-poll-style methods (e.g. DLM lock waits) whose honest response time
// a caller knows can exceed the connection's default. timeout <= 0 waits
// forever.
func (c *Client) CallTimeoutEx(method string, args, reply any, timeout time.Duration) error {
	return c.call(0, method, args, reply, timeout)
}

// CallTimeoutTraced is CallTimeoutEx carrying a trace ID.
func (c *Client) CallTimeoutTraced(tid uint64, method string, args, reply any, timeout time.Duration) error {
	return c.call(tid, method, args, reply, timeout)
}

func (c *Client) call(tid uint64, method string, args, reply any, timeout time.Duration) (err error) {
	start := time.Now()
	mc := countersFor(method)
	defer func() {
		rpcCallSeconds.Observe(time.Since(start))
		mc.calls.Inc()
		if err != nil {
			mc.errors.Inc()
			if errors.Is(err, ErrCallTimeout) {
				rpcTimeouts.Inc()
			}
		}
	}()
	// The call timeout doubles as the propagated deadline budget: a server
	// too backlogged to dispatch before it lapses answers cheaply instead
	// of running a handler nobody is waiting for.
	var budget uint64
	if timeout > 0 {
		budget = uint64(timeout)
	}
	// The whole frame is encoded before the call is registered, so a
	// payload that fails to encode leaves nothing pending.
	id := c.nextID.Add(1)
	bp := getBuf()
	frame, err := appendRequest(*bp, id, tid, budget, method, args)
	if err != nil {
		putBuf(bp, frame)
		return err
	}
	c.mu.Lock()
	if c.err != nil {
		// Same phrasing as failAll's, so a caller can tell a dead
		// connection from an application error however it learns of it.
		err := fmt.Errorf("rpc: connection failed: %w", c.err)
		c.mu.Unlock()
		putBuf(bp, frame)
		return err
	}
	ch := chanPool.Get().(chan response)
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	_, err = c.conn.Write(frame)
	c.writeMu.Unlock()
	putBuf(bp, frame)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("rpc: connection failed: %w", err)
	}
	var resp response
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case resp = <-ch:
		case <-timer.C:
			// Forget the call so a late response is discarded; the
			// pending channel is buffered, so even a response racing
			// this delete cannot block the read loop.
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			return fmt.Errorf("%w: %s after %v", ErrCallTimeout, method, timeout)
		}
	} else {
		resp = <-ch
	}
	chanPool.Put(ch)
	if resp.err != "" {
		return errors.New(resp.err)
	}
	return decodePayload(resp.payload, reply)
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}
