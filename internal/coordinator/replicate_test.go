package coordinator

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/dlm"
	"bespokv/internal/rsm"
	"bespokv/internal/sharedlog"
	"bespokv/internal/store/wal"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
)

var coordAddrSeq atomic.Uint64

// coordGroup is a replicated control-plane test harness: n coordinator
// members over inproc, each with its own MemFS-backed replicated log.
type coordGroup struct {
	t     *testing.T
	net   transport.Network
	ids   []string
	peers map[string]string
	fss   map[string]*wal.MemFS
	srvs  map[string]*Server
}

func newCoordGroup(t *testing.T, n int) *coordGroup {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	seq := coordAddrSeq.Add(1)
	g := &coordGroup{
		t:     t,
		net:   net,
		peers: map[string]string{},
		fss:   map[string]*wal.MemFS{},
		srvs:  map[string]*Server{},
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("coord-%d", i)
		g.ids = append(g.ids, id)
		g.peers[id] = fmt.Sprintf("coordrep-%d-%d", seq, i)
		g.fss[id] = wal.NewMemFS()
	}
	for _, id := range g.ids {
		g.start(id)
	}
	t.Cleanup(func() {
		for _, s := range g.srvs {
			s.Close()
		}
	})
	return g
}

func (g *coordGroup) start(id string) {
	g.t.Helper()
	s, err := Serve(Config{
		Network:          g.net,
		Addr:             g.peers[id],
		HeartbeatTimeout: 500 * time.Millisecond,
		DisableFailover:  true,
		Replication: &ReplicationConfig{
			ID:              id,
			Peers:           g.peers,
			Dir:             "coord",
			FS:              g.fss[id],
			ElectionTimeout: 60 * time.Millisecond,
		},
		Logf: g.t.Logf,
	})
	if err != nil {
		g.t.Fatalf("start %s: %v", id, err)
	}
	g.srvs[id] = s
}

func (g *coordGroup) stop(id string) {
	g.t.Helper()
	if s := g.srvs[id]; s != nil {
		s.Close()
		delete(g.srvs, id)
	}
}

// waitLeader blocks until exactly one live member leads, returning its ID.
func (g *coordGroup) waitLeader() string {
	g.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for id, s := range g.srvs {
			if s.IsLeader() {
				return id
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	g.t.Fatal("no coordinator leader elected")
	return ""
}

func (g *coordGroup) addrs() []string {
	var out []string
	for _, id := range g.ids {
		out = append(out, g.peers[id])
	}
	return out
}

func (g *coordGroup) client() *Client {
	g.t.Helper()
	c, err := DialCoordinators(g.net, g.addrs())
	if err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(func() { c.Close() })
	return c
}

// TestReplicatedSetMap proves a map installed through any member lands on
// every member: followers redirect the mutation to the leader, then serve
// the committed map from their own applied state.
func TestReplicatedSetMap(t *testing.T) {
	g := newCoordGroup(t, 3)
	g.waitLeader()
	c := g.client()
	epoch, err := c.SetMap(sampleMap(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", epoch)
	}
	// Every member — including followers — serves the replicated map.
	for _, id := range g.ids {
		mc, err := DialCoordinator(g.net, g.peers[id])
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		m, err := mc.WatchMap(0, 2*time.Second)
		mc.Close()
		if err != nil {
			t.Fatalf("watch on %s: %v", id, err)
		}
		if m.Epoch != 1 || len(m.Shards) != 2 {
			t.Fatalf("%s serves epoch %d with %d shards", id, m.Epoch, len(m.Shards))
		}
	}
}

// TestReplicatedLeaderKill kills the control-plane leader mid-flight: the
// survivors elect a replacement, the multi-address client rotates onto it,
// and the map history (epochs, standby pool) continues without loss.
func TestReplicatedLeaderKill(t *testing.T) {
	g := newCoordGroup(t, 3)
	lead := g.waitLeader()
	c := g.client()
	if _, err := c.SetMap(sampleMap(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterStandby(topology.Node{
		ID: "spare-0", ControletAddr: "sp-c", DataletAddr: "sp-d",
	}); err != nil {
		t.Fatal(err)
	}

	g.stop(lead)
	next := g.waitLeader()
	if next == lead {
		t.Fatalf("dead member %s still leads", lead)
	}

	// The client rotates to the new leader; the map and the replicated
	// standby pool both survived the kill.
	deadline := time.Now().Add(5 * time.Second)
	var epoch uint64
	var err error
	for time.Now().Before(deadline) {
		if epoch, err = c.SetMap(sampleMap(1, 3)); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("SetMap after leader kill: %v", err)
	}
	if epoch < 2 {
		t.Fatalf("epoch regressed to %d after failover", epoch)
	}
	g.srvs[next].mu.Lock()
	nStandbys := len(g.srvs[next].standbys)
	g.srvs[next].mu.Unlock()
	if nStandbys != 1 {
		t.Fatalf("standby pool lost over failover: %d entries", nStandbys)
	}
}

// TestReplicatedFailoverClaimsStandby runs the data-plane failover path on
// a replicated control plane: FailNode removes the dead node and claims
// the standby in one replicated step, on whichever member currently leads.
func TestReplicatedFailoverClaimsStandby(t *testing.T) {
	g := newCoordGroup(t, 3)
	g.waitLeader()
	c := g.client()
	if _, err := c.SetMap(sampleMap(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterStandby(topology.Node{
		ID: "spare-0", ControletAddr: "sp-c", DataletAddr: "sp-d",
	}); err != nil {
		t.Fatal(err)
	}
	lead := g.waitLeader()
	if err := g.srvs[lead].FailNode("s0-r1"); err != nil {
		t.Fatal(err)
	}
	m, err := c.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Shards[0].Replicas {
		if n.ID == "s0-r1" {
			t.Fatal("failed node still in replicated map")
		}
	}
	// The claim is replicated: no member still holds the standby.
	for id, s := range g.srvs {
		s.mu.Lock()
		free := len(s.standbys)
		s.mu.Unlock()
		if free != 0 {
			// Recovery may return it on error (no real controlets here);
			// either way the claim itself must have emptied the pool at
			// install time on the leader. Followers lag only by apply.
			t.Logf("member %s still sees %d standbys (recovery returned it)", id, free)
		}
	}
}

// TestReplicatedRestartRecovers restarts every member from its durable
// log: the map must come back without any SetMap.
func TestReplicatedRestartRecovers(t *testing.T) {
	g := newCoordGroup(t, 3)
	g.waitLeader()
	c := g.client()
	epoch, err := c.SetMap(sampleMap(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.ids {
		g.stop(id)
	}
	for _, id := range g.ids {
		g.start(id)
	}
	g.waitLeader()
	deadline := time.Now().Add(5 * time.Second)
	var m *topology.Map
	for time.Now().Before(deadline) {
		if m, err = c.GetMap(); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("GetMap after full restart: %v", err)
	}
	if m.Epoch < epoch || len(m.Shards) != 2 {
		t.Fatalf("map regressed after restart: epoch %d (was %d), %d shards", m.Epoch, epoch, len(m.Shards))
	}
}

// TestFollowerRejectsMutations pins the redirect contract: a follower
// answers reads but bounces mutations with the leader's address.
func TestFollowerRejectsMutations(t *testing.T) {
	g := newCoordGroup(t, 3)
	lead := g.waitLeader()
	c := g.client()
	if _, err := c.SetMap(sampleMap(1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, id := range g.ids {
		if id == lead {
			continue
		}
		if g.srvs[id] == nil {
			continue
		}
		if err := g.srvs[id].leaderCheck(); err == nil {
			t.Fatalf("follower %s accepts mutations", id)
		}
		// Reads still answer locally.
		fc, err := DialCoordinator(g.net, g.peers[id])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fc.WatchMap(0, 2*time.Second); err != nil {
			t.Fatalf("follower %s refuses reads: %v", id, err)
		}
		fc.Close()
	}
}

// TestCloseAbortsWatch pins the Close semantics every long-poll teardown
// depends on, for each typed client over rsm.Client: closing a client
// mid-call must fail the in-flight call promptly with rsm.ErrClientClosed
// instead of the rotation loop re-dialing and sitting out a fresh wait.
// The coordinator's map watch, a blocked DLM lock wait and a shared-log
// read long poll each hold for seconds unless the abort works.
func TestCloseAbortsWatch(t *testing.T) {
	t.Run("coordinator-watch", func(t *testing.T) {
		g := newCoordGroup(t, 1)
		g.waitLeader()
		c := g.client()
		if _, err := c.SetMap(sampleMap(1, 1)); err != nil {
			t.Fatal(err)
		}
		// No epoch-2 map is ever installed, so absent the abort this poll
		// holds for its full window.
		assertCloseAborts(t, c.Close, func() error {
			_, err := c.WatchMap(1, 8*time.Second)
			return err
		})
	})
	t.Run("dlm-lock", func(t *testing.T) {
		net, _ := transport.Lookup("inproc")
		s, err := dlm.Serve(dlm.Config{Network: net, DefaultTTL: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		holder, err := dlm.DialClient(net, s.Addr(), "holder")
		if err != nil {
			t.Fatal(err)
		}
		defer holder.Close()
		if _, err := holder.Lock("k", dlm.Write, 30*time.Second, 0); err != nil {
			t.Fatal(err)
		}
		waiter, err := dlm.DialClient(net, s.Addr(), "waiter")
		if err != nil {
			t.Fatal(err)
		}
		// The lease outlives the wait, so absent the abort this lock call
		// queues for its full 8 s budget.
		assertCloseAborts(t, waiter.Close, func() error {
			_, err := waiter.Lock("k", dlm.Write, time.Second, 8*time.Second)
			return err
		})
	})
	t.Run("sharedlog-read", func(t *testing.T) {
		net, _ := transport.Lookup("inproc")
		s, err := sharedlog.Serve(sharedlog.Config{Network: net})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, err := sharedlog.DialClient(net, s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Nothing is ever appended, so absent the abort this read
		// long-polls for its full window.
		assertCloseAborts(t, c.Close, func() error {
			_, _, err := c.Read(0, 1, 8*time.Second)
			return err
		})
	})
}

// assertCloseAborts starts call, lets it reach the server, closes the
// client and requires the call to fail with rsm.ErrClientClosed within 1 s.
func assertCloseAborts(t *testing.T, closeFn func() error, call func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	time.Sleep(50 * time.Millisecond) // let the call reach the server
	start := time.Now()
	closeFn()
	select {
	case err := <-done:
		if !errors.Is(err, rsm.ErrClientClosed) {
			t.Fatalf("call after close returned %v, want rsm.ErrClientClosed", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("close took %v to abort the call", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("call still blocked after close")
	}
}
