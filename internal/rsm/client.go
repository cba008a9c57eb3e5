package rsm

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/transport"
)

// Client is the one way a caller finds and follows the leader of a
// control-plane group (the coordinator, the DLM and the shared log all use
// it). It holds one connection to one member at a time. Call rotates to the
// next member on a dial or connection failure, follows the NotLeaderError
// hint when a follower rejects a mutation, and sleeps a capped, jittered
// backoff between attempts. A one-address Client is the degenerate group:
// the same loop re-dials its only member after the connection dies, so
// callers never drop and re-dial a Client themselves.
type Client struct {
	network transport.Network
	done    chan struct{} // closed by Close; cuts a backoff sleep short

	mu       sync.Mutex
	addrs    []string
	cur      int    // index of the member the connection targets
	redirect string // leader hint outside addrs, kept until the next rotation
	conn     *rpc.Client
	closed   bool
}

// ErrClientClosed fails calls on a closed Client. Without it, Close racing
// an in-flight call is useless as an abort: the call sees its connection
// die, treats that as a member failure, and re-dials — turning every
// teardown of a long poll into a full fresh poll window.
var ErrClientClosed = errors.New("rsm: client closed")

// Backoff between failed attempts: exponential from clientBackoffBase,
// capped at clientBackoffMax, jittered to [d/2, d] so a cluster of clients
// re-dialing a failed member doesn't stampede.
const (
	clientBackoffBase = 10 * time.Millisecond
	clientBackoffMax  = 500 * time.Millisecond
)

// clientBackoff returns the delay before retry attempt n (0-based).
func clientBackoff(n int) time.Duration {
	d := clientBackoffBase
	for i := 0; i < n && d < clientBackoffMax; i++ {
		d *= 2
	}
	if d > clientBackoffMax {
		d = clientBackoffMax
	}
	half := d / 2
	return half + rand.N(half+1)
}

// SplitAddrs splits a comma-separated address list, so every single-string
// config surface (flags, Config fields) can carry a replicated group
// without changing shape.
func SplitAddrs(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Dial connects to the first reachable member of addrs; later calls keep
// rotating as members fail.
func Dial(network transport.Network, addrs []string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rsm: no addresses to dial")
	}
	c := &Client{
		network: network,
		done:    make(chan struct{}),
		addrs:   append([]string(nil), addrs...),
	}
	var err error
	for range addrs {
		if _, err = c.connect(); err == nil {
			return c, nil
		}
		c.rotate("")
	}
	return nil, fmt.Errorf("rsm: no reachable member in %v: %w", addrs, err)
}

// Addr reports the member the client currently targets (tests, logs).
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.redirect != "" {
		return c.redirect
	}
	return c.addrs[c.cur]
}

// connect returns the live connection, dialing the current target if
// needed. The dial happens outside the lock; a racing winner is reused.
func (c *Client) connect() (*rpc.Client, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if conn := c.conn; conn != nil {
		c.mu.Unlock()
		return conn, nil
	}
	addr := c.addrs[c.cur]
	if c.redirect != "" {
		addr = c.redirect
	}
	c.mu.Unlock()
	nc, err := rpc.DialClient(c.network, addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		nc.Close()
		return nil, ErrClientClosed
	}
	if c.conn != nil {
		nc.Close()
		return c.conn, nil
	}
	c.conn = nc
	return nc, nil
}

// drop forgets conn (if still current) so the next call re-dials.
func (c *Client) drop(conn *rpc.Client) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
	conn.Close()
}

// rotate moves to the next member, or straight to the redirect hint when a
// follower named the leader.
func (c *Client) rotate(hint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.redirect = ""
	if hint != "" {
		for i, a := range c.addrs {
			if a == hint {
				c.cur = i
				return
			}
		}
		// A leader outside the configured list (e.g. a member added after
		// this client was built): trust the hint for the next dial.
		c.redirect = hint
		return
	}
	c.cur = (c.cur + 1) % len(c.addrs)
}

// isConnErr reports errors that mean this member is unreachable (vs.
// application errors, which every member would answer identically).
func isConnErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
		return true
	}
	return strings.Contains(err.Error(), "rpc: connection failed")
}

// Call runs one RPC against the group, waiting at most timeout per attempt
// (<= 0 waits forever); tid is the trace ID of a sampled request, or 0. An
// unreachable member or a NotLeader redirect moves the client on, with
// capped jittered backoff, for at most max(4, 3×members) attempts. A call
// timeout moves it off the silent member and returns the timeout: the call
// may have executed, so retrying is the caller's decision. Application
// errors return unchanged.
func (c *Client) Call(tid uint64, method string, args, reply any, timeout time.Duration) error {
	attempts := max(4, 3*len(c.addrs))
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-c.done:
				return ErrClientClosed
			case <-time.After(clientBackoff(i - 1)):
			}
		}
		var conn *rpc.Client
		if conn, err = c.connect(); err != nil {
			if errors.Is(err, ErrClientClosed) {
				return err
			}
			c.rotate("")
			continue
		}
		if err = conn.CallTimeoutTraced(tid, method, args, reply, timeout); err == nil {
			return nil
		}
		select {
		case <-c.done:
			return ErrClientClosed // Close killed the connection under the call
		default:
		}
		switch {
		case IsNotLeader(err):
			c.drop(conn)
			c.rotate(LeaderHint(err))
		case isConnErr(err):
			c.drop(conn)
			c.rotate("")
		case errors.Is(err, rpc.ErrCallTimeout):
			// The member is silent (blackholed, or wedged). Move off it
			// before surfacing the ambiguity, or a stale redirect hint
			// pointing into a partition would pin every later call there.
			c.drop(conn)
			c.rotate("")
			return err
		default:
			return err
		}
	}
	return err
}

// Close tears down the connection and fails in-flight and later calls with
// ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
