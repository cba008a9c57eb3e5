package rsm

import (
	"errors"
	"testing"
	"time"

	"bespokv/internal/faultnet"
	"bespokv/internal/rpc"
	"bespokv/internal/transport"
)

// serveMember starts a fake group member on network whose "Who" method
// answers name, or fails with who's error when who is non-nil.
func serveMember(t *testing.T, network transport.Network, name string, who error) (string, *rpc.Server) {
	t.Helper()
	s := rpc.NewServer()
	rpc.HandleFunc(s, "Who", func(struct{}) (string, error) { return name, who })
	addr, err := s.Serve(network, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, s
}

func dialGroup(t *testing.T, network transport.Network, addrs ...string) *Client {
	t.Helper()
	c, err := Dial(network, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func who(t *testing.T, c *Client) string {
	t.Helper()
	var got string
	if err := c.Call(0, "Who", struct{}{}, &got, time.Second); err != nil {
		t.Fatalf("Who: %v", err)
	}
	return got
}

// TestClientBackoff pins the rotation backoff: exponential growth from the
// base, jittered into [d/2, d], hard-capped at clientBackoffMax.
func TestClientBackoff(t *testing.T) {
	for n := 0; n < 12; n++ {
		want := clientBackoffBase
		for i := 0; i < n && want < clientBackoffMax; i++ {
			want *= 2
		}
		if want > clientBackoffMax {
			want = clientBackoffMax
		}
		for trial := 0; trial < 32; trial++ {
			d := clientBackoff(n)
			if d < want/2 || d > want {
				t.Fatalf("clientBackoff(%d) = %v outside [%v, %v]", n, d, want/2, want)
			}
		}
	}
	if clientBackoff(40) > clientBackoffMax {
		t.Fatal("backoff exceeds cap at high attempt counts")
	}
}

// TestSplitAddrs pins the comma-list parsing every config surface uses.
func TestSplitAddrs(t *testing.T) {
	got := SplitAddrs(" a:1, b:2,,c:3 ")
	if len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Fatalf("SplitAddrs = %q", got)
	}
	if got := SplitAddrs(""); got != nil {
		t.Fatalf("SplitAddrs(empty) = %q", got)
	}
}

// TestClientFollowsHintOutsideMembers: a NotLeader redirect naming an
// address outside the configured list is dialed next, and the client stays
// on it for later calls.
func TestClientFollowsHintOutsideMembers(t *testing.T) {
	net := transport.Inproc{}
	leader, _ := serveMember(t, net, "leader", nil)
	follower, _ := serveMember(t, net, "follower", &NotLeaderError{LeaderAddr: leader})
	c := dialGroup(t, net, follower)
	if got := who(t, c); got != "leader" {
		t.Fatalf("call landed on %q, want the hinted leader", got)
	}
	if c.Addr() != leader {
		t.Fatalf("client targets %s, want the hint %s", c.Addr(), leader)
	}
	if got := who(t, c); got != "leader" {
		t.Fatalf("second call landed on %q, want the hint kept", got)
	}
}

// TestClientRotatesOnConnError: a member whose connection dies is left for
// the next member within the same call, with no re-dial by the caller.
func TestClientRotatesOnConnError(t *testing.T) {
	net := transport.Inproc{}
	a, sa := serveMember(t, net, "a", nil)
	b, _ := serveMember(t, net, "b", nil)
	c := dialGroup(t, net, a, b)
	if got := who(t, c); got != "a" {
		t.Fatalf("first call landed on %q, want a", got)
	}
	sa.Close()
	if got := who(t, c); got != "b" {
		t.Fatalf("call after a died landed on %q, want b", got)
	}
}

// TestClientTimeoutRotates: a blackholed member times the call out, the
// call returns rpc.ErrCallTimeout (it may have executed), and the next
// call lands on another member.
func TestClientTimeoutRotates(t *testing.T) {
	fab := faultnet.New(transport.Inproc{}, 1)
	a, _ := serveMember(t, fab.Host("a"), "a", nil)
	b, _ := serveMember(t, fab.Host("b"), "b", nil)
	c := dialGroup(t, fab.Host("cli"), a, b)
	if got := who(t, c); got != "a" {
		t.Fatalf("first call landed on %q, want a", got)
	}
	fab.Partition([]string{"cli"}, []string{"a"})
	defer fab.Heal()
	var got string
	err := c.Call(0, "Who", struct{}{}, &got, 100*time.Millisecond)
	if !errors.Is(err, rpc.ErrCallTimeout) {
		t.Fatalf("call to blackholed member: %v, want rpc.ErrCallTimeout", err)
	}
	if got := who(t, c); got != "b" {
		t.Fatalf("call after the timeout landed on %q, want b", got)
	}
}

// TestClientCloseAbortsLongPoll: Close fails an in-flight long poll with
// ErrClientClosed within 1 s instead of the rotation loop re-dialing into
// a fresh poll, and later calls fail the same way.
func TestClientCloseAbortsLongPoll(t *testing.T) {
	net := transport.Inproc{}
	release := make(chan struct{})
	s := rpc.NewServer()
	rpc.HandleFunc(s, "Poll", func(struct{}) (struct{}, error) {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return struct{}{}, nil
	})
	addr, err := s.Serve(net, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(release) // before s.Close, which waits for the handler
	c := dialGroup(t, net, addr)
	done := make(chan error, 1)
	go func() { done <- c.Call(0, "Poll", struct{}{}, nil, 0) }()
	time.Sleep(50 * time.Millisecond) // let the poll reach the server
	start := time.Now()
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("aborted poll returned %v, want ErrClientClosed", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("close took %v to abort the poll", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("poll still blocked after close")
	}
	if err := c.Call(0, "Poll", struct{}{}, nil, time.Second); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after close returned %v, want ErrClientClosed", err)
	}
}
