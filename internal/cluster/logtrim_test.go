package cluster

// Shared-log trimming under AA+EC: the coordinator turns heartbeat
// reports of every replica's applied offset into a per-shard floor, and
// the shard's first replica trims the stream there. These tests check
// that the log stays bounded under sustained writes, and that a replica
// whose restart (or a standby whose promotion) replays a stream already
// trimmed past what it holds still converges with no acked write lost:
// the trimmed prefix comes from its recovery donor.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/datalet"
	"bespokv/internal/histcheck"
	"bespokv/internal/sharedlog"
	"bespokv/internal/wire"
)

// logWriters runs n writers of unique keys (value = key) against c until
// the returned stop function is called; stop waits for them and returns
// the number of acked writes.
func logWriters(t *testing.T, c *Cluster, rec *histcheck.Recorder, n int, newClient func() *client.Client) (stop func() uint64) {
	t.Helper()
	var seq, acked atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		cli := newClient()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				k := fmt.Sprintf("trim-%07d", seq.Add(1))
				var ref histcheck.OpRef
				if rec != nil {
					ref = rec.BeginWrite(w, k, k)
				}
				err := cli.Put("", []byte(k), []byte(k))
				if rec != nil {
					rec.EndWrite(ref, err)
				}
				if err != nil {
					time.Sleep(5 * time.Millisecond) // chain repair in progress
					continue
				}
				acked.Add(1)
			}
		}(w)
	}
	var once sync.Once
	return func() uint64 {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
		return acked.Load()
	}
}

// TestAAECLogStaysBounded drives sustained AA+EC writes with heartbeats
// flowing and samples the shard stream: its retained, unpinned entries
// must stay within two segments plus one heartbeat interval's worth of
// writes, and the stream must actually have been trimmed.
//
// The protocol itself keeps at most one segment (trims drop whole
// segments) plus the writes of two heartbeat intervals: the floor lags the
// tail by the oldest replica report, up to one interval, and the trimmer
// acts on it once per interval. That is within the checked bound while a
// heartbeat's worth of writes stays well under a segment, so the test
// runs a 25ms heartbeat: four inproc writers sequence ~60k entries/s on a
// 2-vCPU box, ~1.5k per interval against 4096-entry segments.
func TestAAECLogStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-write test in -short mode")
	}
	c := startCluster(t, Options{Mode: aaEC, Shards: 1, Replicas: 3, HeartbeatInterval: 25 * time.Millisecond})
	const seg = sharedlog.DefaultSegmentEntries
	const stream = "shard-0"
	hb := c.Opts.HeartbeatInterval
	stop := logWriters(t, c, nil, 4, func() *client.Client {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	})
	defer stop()

	type sample struct {
		at   time.Time
		next uint64
	}
	var history []sample
	var worst, worstHB uint64
	deadline := time.Now().Add(90 * time.Second)
	for {
		time.Sleep(hb / 4)
		trimmed, next := c.Log.Bounds(stream)
		now := time.Now()
		history = append(history, sample{now, next})
		// One heartbeat's worth: the writes sequenced during the last
		// heartbeat interval.
		var hbWorth uint64
		for i := len(history) - 1; i >= 0; i-- {
			if now.Sub(history[i].at) >= hb {
				hbWorth = next - history[i].next
				break
			}
		}
		retained := next - trimmed
		worst, worstHB = max(worst, retained), max(worstHB, hbWorth)
		if bound := 2*seg + hbWorth; retained > bound {
			t.Fatalf("stream holds %d entries [%d, %d), bound %d (2 segments + %d writes per heartbeat)",
				retained, trimmed, next, bound, hbWorth)
		}
		if next >= 5*seg {
			break
		}
		if now.After(deadline) {
			t.Fatalf("only %d entries appended before the deadline", next)
		}
	}
	acked := stop()
	trimmed, next := c.Log.Bounds(stream)
	t.Logf("%d acked writes; stream [%d, %d); worst retained %d; at most %d writes per heartbeat",
		acked, trimmed, next, worst, worstHB)
	if trimmed < 2*seg {
		t.Fatalf("stream trimmed only to %d after %d appends", trimmed, next)
	}
}

// TestCrashRestartAAECTrimmed crashes a durable AA+EC replica and brings
// a replacement in only after the stream was trimmed past what the
// replacement holds: once as the crashed node restarting from its disk
// image, once as a standby promoted into the shard. Either way the
// replacement replays the trimmed stream from offset 0, and the shard must
// converge with every acked write on every replica.
func TestCrashRestartAAECTrimmed(t *testing.T) {
	if testing.Short() {
		t.Skip("crash test in -short mode")
	}
	t.Run("restart", func(t *testing.T) { runTrimmedRejoin(t, false) })
	t.Run("standby", func(t *testing.T) { runTrimmedRejoin(t, true) })
}

func runTrimmedRejoin(t *testing.T, standby bool) {
	seed := nemesisSeed(t)
	logSeed(t, seed)
	opts := Options{
		Mode:             aaEC,
		Shards:           1,
		Replicas:         3,
		Durable:          true,
		Seed:             seed,
		HeartbeatTimeout: 400 * time.Millisecond,
	}
	if standby {
		opts.Standbys = 1
	}
	c := startCluster(t, opts)
	const stream = "shard-0"
	rec := histcheck.NewRecorder()
	stop := logWriters(t, c, rec, 6, func() *client.Client { return nemesisClient(t, c) })
	defer stop()

	// waitTrimmedPast waits until the stream's trim point passes off.
	waitTrimmedPast := func(off uint64) {
		t.Helper()
		deadline := time.Now().Add(90 * time.Second)
		for {
			trimmed, next := c.Log.Bounds(stream)
			if trimmed > off {
				t.Logf("stream trimmed to %d (tail %d), past %d", trimmed, next, off)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: stream never trimmed past %d (at %d, tail %d)", seed, off, trimmed, next)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	victim := rand.New(rand.NewSource(seed)).Intn(3)
	id := c.Shards[0][victim].Node.ID
	// Crash mid-stream, with the log already trimmed once: the victim's
	// disk image holds real history, and a standby promoted now joins a
	// trimmed stream.
	waitTrimmedPast(0)
	_, tail := c.Log.Bounds(stream)
	t.Logf("crashing %s at tail %d", id, tail)
	if err := c.Crash(0, victim); err != nil {
		t.Fatal(err)
	}
	waitEvicted(t, c, id)
	var joined string
	if standby {
		joined = c.Standbys[0].Node.ID
		waitRecovered(t, c, joined)
	} else {
		// Everything the crashed node had applied is now trimmed away.
		waitTrimmedPast(tail)
		res := restartEventually(t, c, 0, victim)
		joined = id
		t.Logf("%s rejoined (%d records, delta=%v)", id, res.Pairs, res.Delta)
	}
	// Keep writing until the stream trims past the joiner's start, so it
	// too holds the floor back and is counted by later trims.
	_, tail = c.Log.Bounds(stream)
	waitTrimmedPast(tail)
	acked := stop()
	t.Logf("%d acked writes; %s replayed a trimmed stream", acked, joined)

	verifyAllAcked(t, c, rec, seed)
}

// waitRecovered waits until nodeID is in the map and no longer recovering.
func waitRecovered(t *testing.T, c *Cluster, nodeID string) {
	t.Helper()
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m, err := admin.GetMap(); err == nil {
			for _, shard := range m.Shards {
				for _, n := range shard.Replicas {
					if n.ID == nodeID && !n.Recovering {
						return
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never finished joining", nodeID)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyAllAcked waits, without anti-entropy, for the in-map replicas to
// converge (histcheck.CheckConvergence), then requires every acked write
// on every replica: AA+EC sequences a write before acking it, so a lost
// acked write means a replica missed part of the log.
func verifyAllAcked(t *testing.T, c *Cluster, rec *histcheck.Recorder, seed int64) {
	t.Helper()
	ops := rec.Ops()
	deadline := time.Now().Add(15 * time.Second)
	for {
		problems := convergenceProblems(t, c, ops)
		if len(problems) == 0 {
			break
		}
		if time.Now().After(deadline) {
			if len(problems) > 10 {
				problems = problems[:10]
			}
			t.Fatalf("seed %d: replicas did not converge: %v", seed, problems)
		}
		time.Sleep(100 * time.Millisecond)
	}
	admin, err := c.Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	m, err := admin.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	acked := rec.AckedWrites()
	for _, n := range m.Shards[0].Replicas {
		dump := engineDump(pairByID(c, n.ID))
		lost := 0
		for k := range acked {
			if dump[k] != k {
				lost++
			}
		}
		if lost > 0 {
			t.Fatalf("seed %d: %s is missing %d of %d acked writes", seed, n.ID, lost, len(acked))
		}
	}
}

// TestAAECFloorRecordSurvivesTrim checks that the version-floor record a
// migration appends to the new shard's stream outlives the trim. Keys
// migrate with versions minted on long source streams; the new stream is
// then trimmed past the record, and a standby promoted into the new shard
// replays it from offset 0. Writes through that standby must carry
// post-floor versions: every replica ends on the written value, not on
// the migrated history. Were the record trimmed away, the standby would
// replay with no floor adjustment and lose its own writes to LWW.
func TestAAECFloorRecordSurvivesTrim(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-write test in -short mode")
	}
	const seg = sharedlog.DefaultSegmentEntries
	c := startCluster(t, Options{Mode: aaEC, Shards: 2, Replicas: 2, Standbys: 1,
		HeartbeatTimeout: 400 * time.Millisecond, HeartbeatInterval: 25 * time.Millisecond})
	newClient := func() *client.Client {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	// writeUntil runs filler writers until done reports true.
	writeUntil := func(what string, done func() bool) {
		t.Helper()
		stop := logWriters(t, c, nil, 4, newClient)
		defer stop()
		deadline := time.Now().Add(90 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("never reached: %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Lengthen both source streams well past what the new stream will
	// reach, then write the test keys: they migrate with versions above
	// every offset the new stream assigns in this test.
	const lead = 4 * seg // every migrated version is above this offset
	writeUntil("source streams at 4 segments", func() bool {
		_, a := c.Log.Bounds("shard-0")
		_, b := c.Log.Bounds("shard-1")
		return a >= lead && b >= lead
	})
	cli := newClient()
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if err := cli.Put("", keys[i], []byte("migrated")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.JoinNode(0); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	joined := c.Shards[len(c.Shards)-1]
	stream := joined[0].shardID

	// Trim the new stream past its floor record (offset 0 or close).
	writeUntil("new stream trimmed", func() bool {
		trimmed, _ := c.Log.Bounds(stream)
		return trimmed > 0
	})
	if _, next := c.Log.Bounds(stream); next+uint64(len(keys)) >= lead {
		t.Fatalf("new stream reached %d entries; the migrated versions may no longer lead it", next)
	}

	// Promote the standby into the new shard: its applier replays the
	// trimmed stream from offset 0.
	joined[1].Kill()
	waitEvicted(t, c, joined[1].Node.ID)
	sb := c.Standbys[0]
	waitRecovered(t, c, sb.Node.ID)
	_, tail := c.Log.Bounds(stream)
	eventually(t, 10*time.Second, func() string {
		st, _ := sb.Controlet.Status().(map[string]any)
		if off, _ := st["aaec_applied_offset"].(uint64); off < tail {
			return fmt.Sprintf("standby applied %d of %d", off, tail)
		}
		return ""
	})

	raw, err := datalet.Dial(c.Net, sb.Controlet.DataAddr(), c.Codec)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var written [][]byte
	for _, k := range keys {
		var resp wire.Response
		if err := raw.Do(&wire.Request{Op: wire.OpPut, Key: k, Value: []byte("final")}, &resp); err != nil {
			t.Fatalf("put %s after %d: %v", k, len(written), err)
		}
		switch resp.Status {
		case wire.StatusOK:
			written = append(written, k)
		case wire.StatusRedirect: // another shard's key
		default:
			t.Fatalf("put %s through the promoted standby: %+v", k, resp)
		}
	}
	if len(written) < len(keys)/10 {
		t.Fatalf("only %d of %d keys belong to the new shard", len(written), len(keys))
	}
	for _, p := range []*Pair{joined[0], sb} {
		eventually(t, 10*time.Second, func() string {
			dump := engineDump(p)
			for _, k := range written {
				if v := dump[string(k)]; v != "final" {
					return fmt.Sprintf("%s holds %s=%q after the write through the standby", p.Node.ID, k, v)
				}
			}
			return ""
		})
	}
}
