// Package rpc is a minimal JSON-RPC layer over the transport abstraction,
// used on the control path (coordinator, distributed lock manager, shared
// log). The hot data path uses internal/wire instead; control traffic is
// low-rate, so readability and evolvability win over compactness here.
//
// Framing: 4-byte little-endian length followed by a JSON object.
// Requests: {"id":n,"m":"Method","a":<args>}; responses:
// {"id":n,"r":<result>} or {"id":n,"e":"message"}. Multiple calls may be in
// flight concurrently on one connection; responses match by id.
package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/trace"
	"bespokv/internal/transport"
)

const maxFrame = 16 << 20

// DefaultCallTimeout bounds Client.Call when Client.CallTimeout is unset.
// A response that never comes (server wedged, frame lost to a half-open
// connection) must fail the call, not hang it forever. The longest
// legitimate waits in-tree are the ~2s watch long-polls and DLM lock waits,
// so 10s is comfortably above any honest response time.
const DefaultCallTimeout = 10 * time.Second

// ErrCallTimeout is returned when a call's response did not arrive in time.
var ErrCallTimeout = errors.New("rpc: call timed out")

type reqMsg struct {
	ID     uint64          `json:"id"`
	Method string          `json:"m"`
	Args   json.RawMessage `json:"a,omitempty"`
	// T is the trace ID of a sampled request, 0 when untraced. Old peers
	// ignore the unknown field; its absence unmarshals as 0 — compatible
	// in both directions.
	T uint64 `json:"t,omitempty"`
	// D is the caller's remaining deadline budget in nanoseconds, 0 when
	// unbounded. A server that dispatches the call only after the budget
	// is spent answers "rpc: deadline expired" instead of burning a
	// handler on work the caller has already timed out — which matters
	// exactly when the control plane is overloaded and dispatch delays
	// grow. Same old/new compatibility story as T.
	D uint64 `json:"d,omitempty"`
}

// ErrDeadlineExpired is the server-side reply for a call whose budget was
// spent before its handler ran.
const errDeadlineExpired = "rpc: deadline expired"

type respMsg struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"r,omitempty"`
	Err    string          `json:"e,omitempty"`
}

func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return errors.New("rpc: frame too large")
	}
	// Header and payload go down in ONE Write: transports that treat each
	// Write as a message quantum (the faultnet fault plane drops/duplicates
	// whole Writes) must see frames, never torn header/payload halves.
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, errors.New("rpc: frame too large")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Handler processes one call. args is the raw JSON argument; the returned
// value is marshaled as the result.
type Handler func(args json.RawMessage) (any, error)

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

// HandleFunc registers a typed handler: fn's argument is unmarshaled from
// the request JSON.
func HandleFunc[A any, R any](s *Server, method string, fn func(A) (R, error)) {
	s.Handle(method, func(raw json.RawMessage) (any, error) {
		var args A
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &args); err != nil {
				return nil, fmt.Errorf("rpc: bad args for %s: %w", method, err)
			}
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

func (s *Server) serveConn(conn transport.Conn) {
	var writeMu sync.Mutex
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		var req reqMsg
		if err := json.Unmarshal(frame, &req); err != nil {
			return
		}
		recv := time.Now()
		s.mu.RLock()
		h, ok := s.handlers[req.Method]
		s.mu.RUnlock()
		// Dispatch concurrently so slow handlers (watch long-polls)
		// don't block the connection. Each dispatched handler holds a
		// WaitGroup slot so Close waits for it instead of racing its
		// teardown. (serveConn itself holds a slot, so this Add can
		// never race conns.Wait observing zero.)
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			var start time.Time
			if req.T != 0 {
				start = time.Now()
				defer func() {
					trace.Record(req.T, s.traceName(), "rpc."+req.Method, start, time.Since(start), "")
				}()
			}
			var resp respMsg
			resp.ID = req.ID
			if !ok {
				resp.Err = "rpc: unknown method " + req.Method
			} else if req.D != 0 && time.Since(recv) > time.Duration(req.D) {
				// The caller's budget ran out between receive and
				// dispatch (handler goroutines starved under load); the
				// caller has already timed out, so the work is doomed.
				rpcDeadlineExpired.Inc()
				resp.Err = errDeadlineExpired
			} else if result, err := h(req.Args); err != nil {
				resp.Err = err.Error()
			} else if result != nil {
				raw, err := json.Marshal(result)
				if err != nil {
					resp.Err = "rpc: marshal result: " + err.Error()
				} else {
					resp.Result = raw
				}
			}
			payload, err := json.Marshal(resp)
			if err != nil {
				return
			}
			writeMu.Lock()
			defer writeMu.Unlock()
			_ = writeFrame(conn, payload)
		}()
	}
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

	// CallTimeout bounds each Call's wait for its response; zero or
	// negative disables the bound. Set before the first Call.
	CallTimeout time.Duration

	mu      sync.Mutex
	pending map[uint64]chan respMsg
	nextID  uint64
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
		pending:     map[uint64]chan respMsg{},
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	for {
		frame, err := readFrame(c.conn)
		if err != nil {
			c.failAll(err)
			return
		}
		var resp respMsg
		if err := json.Unmarshal(frame, &resp); err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
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
		ch <- respMsg{Err: "rpc: connection failed: " + err.Error()}
	}
}

// Call metrics: control-path RPCs are low-rate, so the per-call labeled
// registry lookup (one small allocation) is acceptable here, unlike on the
// wire data path.
var (
	rpcCallSeconds = metrics.Default.Histogram("bespokv_rpc_call_seconds")
	rpcTimeouts    = metrics.Default.Counter("bespokv_rpc_call_timeouts_total")

	// Calls whose propagated budget was spent before dispatch (see reqMsg.D).
	rpcDeadlineExpired = metrics.Default.Counter("bespokv_deadline_expired_total", "layer", "rpc")
)

// Call invokes method with args, unmarshaling the result into reply
// (which may be nil to discard it). It waits at most c.CallTimeout.
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
	defer func() {
		rpcCallSeconds.Observe(time.Since(start))
		metrics.Default.Counter("bespokv_rpc_calls_total", "method", method).Inc()
		if err != nil {
			metrics.Default.Counter("bespokv_rpc_call_errors_total", "method", method).Inc()
			if errors.Is(err, ErrCallTimeout) {
				rpcTimeouts.Inc()
			}
		}
	}()
	var rawArgs json.RawMessage
	if args != nil {
		b, err := json.Marshal(args)
		if err != nil {
			return err
		}
		rawArgs = b
	}
	c.mu.Lock()
	if c.err != nil {
		// Same phrasing as failAll's, so a caller can tell a dead
		// connection from an application error however it learns of it.
		err := fmt.Errorf("rpc: connection failed: %w", c.err)
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan respMsg, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	// The call timeout doubles as the propagated deadline budget: a server
	// too backlogged to dispatch before it lapses answers cheaply instead
	// of running a handler nobody is waiting for.
	var budget uint64
	if timeout > 0 {
		budget = uint64(timeout)
	}
	payload, err := json.Marshal(reqMsg{ID: id, Method: method, Args: rawArgs, T: tid, D: budget})
	if err != nil {
		return err
	}
	c.writeMu.Lock()
	err = writeFrame(c.conn, payload)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("rpc: connection failed: %w", err)
	}
	var resp respMsg
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
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	if reply != nil && len(resp.Result) > 0 {
		return json.Unmarshal(resp.Result, reply)
	}
	return nil
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}
