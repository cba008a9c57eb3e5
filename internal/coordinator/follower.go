package coordinator

import (
	"errors"
	"log"
	"sync"
	"time"

	"bespokv/internal/rpc"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
)

// Follower is a warm standby for the coordinator — the reproduction's
// analogue of the paper's ZooKeeper-backed resilience ("a single process
// backed up using ZooKeeper with a standby process as follower"). It
// mirrors the leader's map through long-poll watches, answers read-only
// queries (GetMap/WatchMap) so clients can fail over their reads, and can
// be promoted to a full coordinator seeded with the last mirrored map —
// epochs continue, they never restart.
type Follower struct {
	cfg FollowerConfig
	rpc *rpc.Server

	mu      sync.Mutex
	cached  *topology.Map
	epochCh chan struct{}
	addr    string
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// FollowerConfig configures a follower.
type FollowerConfig struct {
	// Network and Addr select the follower's own RPC endpoint.
	Network transport.Network
	Addr    string
	// LeaderAddr is the coordinator to mirror.
	LeaderAddr string
	// Logf receives diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// ServeFollower starts mirroring the leader.
func ServeFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Network == nil || cfg.LeaderAddr == "" {
		return nil, errors.New("coordinator: follower needs Network and LeaderAddr")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	f := &Follower{
		cfg:     cfg,
		rpc:     rpc.NewServer(),
		epochCh: make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	rpc.HandleFunc(f.rpc, "GetMap", f.handleGetMap)
	rpc.HandleFunc(f.rpc, "WatchMap", f.handleWatchMap)
	addr, err := f.rpc.Serve(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, err
	}
	f.addr = addr
	f.wg.Add(1)
	go f.mirror()
	return f, nil
}

// Addr returns the follower's RPC address.
func (f *Follower) Addr() string { return f.addr }

// Map returns the last mirrored map (nil before the first sync).
func (f *Follower) Map() *topology.Map {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cached.Clone()
}

func (f *Follower) handleGetMap(struct{}) (*topology.Map, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cached == nil {
		return nil, errors.New("coordinator: follower has no map yet")
	}
	return f.cached.Clone(), nil
}

func (f *Follower) handleWatchMap(args WatchArgs) (*topology.Map, error) {
	timeout := time.Duration(args.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		f.mu.Lock()
		cur := f.cached
		ch := f.epochCh
		f.mu.Unlock()
		if cur != nil && cur.Epoch > args.Since {
			return cur.Clone(), nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			if cur == nil {
				return nil, errors.New("coordinator: follower has no map yet")
			}
			return cur.Clone(), nil
		case <-f.stopCh:
			return nil, errors.New("coordinator: follower shutting down")
		}
	}
}

// mirror long-polls the leader and installs newer maps. The leader client
// re-dials on its own, so only a failed first dial is retried here.
func (f *Follower) mirror() {
	defer f.wg.Done()
	leader, err := DialCoordinator(f.cfg.Network, f.cfg.LeaderAddr)
	for err != nil {
		if !f.pause() {
			return
		}
		leader, err = DialCoordinator(f.cfg.Network, f.cfg.LeaderAddr)
	}
	defer leader.Close()
	for {
		select {
		case <-f.stopCh:
			return
		default:
		}
		since := uint64(0)
		f.mu.Lock()
		if f.cached != nil {
			since = f.cached.Epoch
		}
		f.mu.Unlock()
		m, err := leader.WatchMap(since, time.Second)
		if err != nil {
			if !f.pause() {
				return
			}
			continue
		}
		if m != nil && (since == 0 || m.Epoch > since) {
			f.mu.Lock()
			f.cached = m.Clone()
			close(f.epochCh)
			f.epochCh = make(chan struct{})
			f.mu.Unlock()
		}
	}
}

// pause waits out a failed dial or poll, reporting false if the follower
// stopped meanwhile.
func (f *Follower) pause() bool {
	select {
	case <-f.stopCh:
		return false
	case <-time.After(100 * time.Millisecond):
		return true
	}
}

// Promote stops mirroring and starts a full coordinator on a fresh
// endpoint, seeded with the mirrored map so epochs continue. The follower
// keeps serving reads until Close.
func (f *Follower) Promote(cfg Config) (*Server, error) {
	f.mu.Lock()
	seed := f.cached.Clone()
	f.mu.Unlock()
	if seed == nil {
		return nil, errors.New("coordinator: cannot promote before first sync")
	}
	if cfg.Network == nil {
		cfg.Network = f.cfg.Network
	}
	if cfg.Logf == nil {
		cfg.Logf = f.cfg.Logf
	}
	s, err := Serve(cfg)
	if err != nil {
		return nil, err
	}
	// Install the mirrored map; SetMap bumps the epoch past the seed's,
	// so controlets and clients converge on the promoted history.
	if _, err := s.handleSetMap(seed); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the follower.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return nil
	}
	f.stopped = true
	f.mu.Unlock()
	close(f.stopCh)
	err := f.rpc.Close()
	f.wg.Wait()
	return err
}
