package coordinator

import (
	"testing"
	"time"

	"bespokv/internal/transport"
)

func TestFollowerMirrorsLeader(t *testing.T) {
	s, c := newCoord(t, Config{DisableFailover: true})
	if _, err := c.SetMap(sampleMap(2, 3)); err != nil {
		t.Fatal(err)
	}
	net, _ := transport.Lookup("inproc")
	f, err := ServeFollower(FollowerConfig{Network: net, LeaderAddr: s.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := f.Map(); m != nil && m.Epoch == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never synced")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Leader change propagates.
	if _, err := c.SetMap(sampleMap(2, 3)); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if m := f.Map(); m != nil && m.Epoch == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %d", f.Map().Epoch)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Read-only clients can query the follower directly.
	fc, err := DialCoordinator(net, f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	m, err := fc.GetMap()
	if err != nil || m.Epoch != 2 {
		t.Fatalf("follower GetMap: epoch=%v err=%v", m, err)
	}
}

func TestFollowerPromotionContinuesEpochs(t *testing.T) {
	s, c := newCoord(t, Config{DisableFailover: true})
	for i := 0; i < 5; i++ { // build up epoch history
		if _, err := c.SetMap(sampleMap(1, 3)); err != nil {
			t.Fatal(err)
		}
	}
	net, _ := transport.Lookup("inproc")
	f, err := ServeFollower(FollowerConfig{Network: net, LeaderAddr: s.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := f.Map(); m != nil && m.Epoch == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Leader dies; the follower is promoted.
	s.Close()
	promoted, err := f.Promote(Config{Network: net, DisableFailover: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	pc, err := DialCoordinator(net, promoted.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	m, err := pc.GetMap()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch <= 5 {
		t.Fatalf("promoted epoch %d did not continue past 5", m.Epoch)
	}
	if len(m.Shards) != 1 || len(m.Shards[0].Replicas) != 3 {
		t.Fatalf("promoted map lost state: %+v", m)
	}
	// The promoted coordinator is fully functional.
	if _, err := pc.Heartbeat(Heartbeat{NodeID: "s0-r0", DataletOK: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.LeaderElect("shard-0", "s0-r0"); err != nil {
		t.Fatal(err)
	}
}

func TestFollowerPromotionBeforeSyncFails(t *testing.T) {
	s, _ := newCoord(t, Config{DisableFailover: true}) // leader has no map
	net, _ := transport.Lookup("inproc")
	f, err := ServeFollower(FollowerConfig{Network: net, LeaderAddr: s.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Promote(Config{Network: net, DisableFailover: true}); err == nil {
		t.Fatal("promotion before first sync must fail")
	}
}
