package sharedlog

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/rsm"
	"bespokv/internal/store/wal"
	"bespokv/internal/transport"
)

var logAddrSeq atomic.Uint64

// logGroup is a replicated shared-log test harness: n members over
// inproc, each with its own MemFS-backed replicated log.
type logGroup struct {
	t     *testing.T
	net   transport.Network
	ids   []string
	peers map[string]string
	fss   map[string]*wal.MemFS
	srvs  map[string]*Server
	seg   int // SegmentEntries for every member (0 = default)
}

func newLogGroup(t *testing.T, n int) *logGroup {
	t.Helper()
	return newSegLogGroup(t, n, 0)
}

// newSegLogGroup is newLogGroup with seg-entry segments.
func newSegLogGroup(t *testing.T, n, seg int) *logGroup {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	seq := logAddrSeq.Add(1)
	g := &logGroup{
		t:     t,
		net:   net,
		peers: map[string]string{},
		fss:   map[string]*wal.MemFS{},
		srvs:  map[string]*Server{},
		seg:   seg,
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("seq-%d", i)
		g.ids = append(g.ids, id)
		g.peers[id] = fmt.Sprintf("logrep-%d-%d", seq, i)
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

func (g *logGroup) start(id string) {
	g.t.Helper()
	s, err := Serve(Config{
		Network:        g.net,
		Addr:           g.peers[id],
		SegmentEntries: g.seg,
		Replication: &rsm.GroupConfig{
			ID:              id,
			Peers:           g.peers,
			Dir:             "seq",
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

func (g *logGroup) stop(id string) {
	g.t.Helper()
	if s := g.srvs[id]; s != nil {
		s.Close()
		delete(g.srvs, id)
	}
}

func (g *logGroup) waitLeader() string {
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
	g.t.Fatal("no sequencer leader elected")
	return ""
}

func (g *logGroup) client() *Client {
	g.t.Helper()
	var addrs []string
	for _, id := range g.ids {
		addrs = append(addrs, g.peers[id])
	}
	c, err := DialClient(g.net, strings.Join(addrs, ","))
	if err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(func() { c.Close() })
	return c
}

// appendRetry keeps appending through leadership churn until a leader
// sequences the batch.
func appendRetry(t *testing.T, c *Client, entries ...[]byte) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		first, err := c.Append(entries...)
		if err == nil {
			return first
		}
		if time.Now().After(deadline) {
			t.Fatalf("append never sequenced: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicatedSequencer proves offsets are assigned by the replicated
// counter and the ordered entries land on every member.
func TestReplicatedSequencer(t *testing.T) {
	g := newLogGroup(t, 3)
	g.waitLeader()
	c := g.client()
	if first := appendRetry(t, c, []byte("a"), []byte("b")); first != 0 {
		t.Fatalf("first offset = %d, want 0", first)
	}
	if first := appendRetry(t, c, []byte("c")); first != 2 {
		t.Fatalf("second batch offset = %d, want 2", first)
	}
	// Every member — including followers — serves the replicated entries
	// (followers lag only by apply, so poll briefly).
	for _, id := range g.ids {
		mc, err := DialClient(g.net, g.peers[id])
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		var entries []Entry
		var next uint64
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if entries, next, err = mc.Read(0, 16, 200*time.Millisecond); err != nil {
				break
			}
			if next == 3 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		mc.Close()
		if err != nil {
			t.Fatalf("read on %s: %v", id, err)
		}
		if next != 3 || len(entries) != 3 || string(entries[2].Data) != "c" {
			t.Fatalf("%s serves %d entries next=%d", id, len(entries), next)
		}
	}
}

// TestSequencerLeaderKill kills the sequencer leader mid-stream: the
// counter continues exactly where it left off (no reused or skipped acked
// offsets) and every acked entry survives — zero acked-write loss.
func TestSequencerLeaderKill(t *testing.T) {
	g := newLogGroup(t, 3)
	lead := g.waitLeader()
	c := g.client()
	var acked []string
	for i := 0; i < 5; i++ {
		payload := fmt.Sprintf("pre-%d", i)
		if first := appendRetry(t, c, []byte(payload)); first != uint64(i) {
			t.Fatalf("offset %d assigned for append %d", first, i)
		}
		acked = append(acked, payload)
	}

	g.stop(lead)
	if next := g.waitLeader(); next == lead {
		t.Fatalf("dead member %s still leads", lead)
	}

	// The client rotates onto the new leader; the counter resumes at 5.
	first := appendRetry(t, c, []byte("post-0"))
	if first != 5 {
		t.Fatalf("post-failover offset = %d, want 5 (counter lost or double-assigned)", first)
	}
	acked = append(acked, "post-0")

	entries, next, err := c.Read(0, 64, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if int(next) != len(acked) || len(entries) != len(acked) {
		t.Fatalf("history has %d entries next=%d, want %d", len(entries), next, len(acked))
	}
	for i, e := range entries {
		if string(e.Data) != acked[i] || e.Offset != uint64(i) {
			t.Fatalf("entry %d = %q@%d, want %q@%d", i, e.Data, e.Offset, acked[i], i)
		}
	}
}

// TestSequencerFollowerRedirect pins the redirect contract: followers
// refuse appends with NotLeader, and a client dialed at a single follower
// still appends via the hint.
func TestSequencerFollowerRedirect(t *testing.T) {
	g := newLogGroup(t, 3)
	lead := g.waitLeader()
	for _, id := range g.ids {
		if id == lead {
			continue
		}
		if err := g.srvs[id].leaderCheck(); err == nil {
			t.Fatalf("follower %s would sequence appends", id)
		} else if !rsm.IsNotLeader(err) {
			t.Fatalf("follower %s returns %v, want NotLeader", id, err)
		}
		c, err := DialClient(g.net, g.peers[id])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append([]byte("via-" + id)); err != nil {
			t.Fatalf("append via follower %s: %v", id, err)
		}
		c.Close()
	}
}

// TestSequencerRestartRecovers restarts every member from its durable log:
// the counter and entries must come back without any re-append.
func TestSequencerRestartRecovers(t *testing.T) {
	g := newLogGroup(t, 3)
	g.waitLeader()
	c := g.client()
	st := c.Stream("shard-7")
	appendRetry(t, st, []byte("x"), []byte("y"))
	for _, id := range g.ids {
		g.stop(id)
	}
	for _, id := range g.ids {
		g.start(id)
	}
	g.waitLeader()
	if first := appendRetry(t, st, []byte("z")); first != 2 {
		t.Fatalf("post-restart offset = %d, want 2", first)
	}
	entries, next, err := st.Read(0, 16, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if next != 3 || len(entries) != 3 {
		t.Fatalf("restart lost entries: %d next=%d", len(entries), next)
	}
}
