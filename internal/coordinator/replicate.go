package coordinator

import (
	"encoding/json"
	"errors"
	"time"

	"bespokv/internal/rsm"
	"bespokv/internal/topology"
)

// ReplicationConfig runs the coordinator's metadata — the cluster map and
// the standby pool — on a replicated state machine instead of a single
// process's memory. Every member serves the same RPC surface on its
// Peers[ID] address: reads (GetMap/WatchMap/LeaseMap) answer anywhere from
// the locally applied map, while mutations and heartbeats are accepted
// only on the leader; elsewhere they fail with the rsm.NotLeaderError
// redirect, which clients follow to the hinted leader (rsm.Client).
type ReplicationConfig = rsm.GroupConfig

// proposeTimeout bounds one replicated mutation; control-plane ops are
// rare and small, so anything slower means the group has no quorum.
const proposeTimeout = 5 * time.Second

// errMapChanged reports a lost install race: the map moved past the epoch
// this mutation was computed against. Callers simply retry against the
// fresh map; under proposeMu it can only happen across leadership changes.
var errMapChanged = errors.New("coordinator: map changed concurrently; retry")

const (
	opInstall = "install"
	opStandby = "standby"
)

// coordCmd is one replicated log entry: install a full map (optionally
// claiming the head of the standby pool in the same atomic step, the
// failover path) or append a standby pair.
type coordCmd struct {
	Op          string         `json:"op"`
	Map         *topology.Map  `json:"map,omitempty"`
	TakeStandby bool           `json:"take_standby,omitempty"`
	Standby     *topology.Node `json:"standby,omitempty"`
}

// installResult is handed back to the local proposer by coordSM.Apply.
type installResult struct {
	stale   bool
	standby *topology.Node
}

// coordSnapshot is the checkpoint image: the full replicated state.
type coordSnapshot struct {
	Map      *topology.Map   `json:"map,omitempty"`
	Standbys []topology.Node `json:"standbys,omitempty"`
}

// coordSM adapts the Server's replicated state (cur + standbys) to the
// rsm.StateMachine interface. Apply runs on every member with the RSM
// internals locked, so it only touches s.mu-guarded state and never calls
// back into the RSM node.
type coordSM struct{ s *Server }

func (c coordSM) Apply(index uint64, cmd []byte) any {
	var op coordCmd
	if err := json.Unmarshal(cmd, &op); err != nil {
		c.s.cfg.Logf("coordinator: rsm entry %d undecodable: %v", index, err)
		return installResult{stale: true}
	}
	switch op.Op {
	case opStandby:
		if op.Standby != nil {
			c.s.mu.Lock()
			c.s.standbys = append(c.s.standbys, *op.Standby)
			c.s.mu.Unlock()
		}
		return installResult{}
	case opInstall:
		sb, err := c.s.applyInstall(op.Map, op.TakeStandby)
		if err != nil {
			return installResult{stale: true}
		}
		return installResult{standby: sb}
	default:
		c.s.cfg.Logf("coordinator: rsm entry %d has unknown op %q", index, op.Op)
		return installResult{stale: true}
	}
}

func (c coordSM) Snapshot() []byte {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	b, err := json.Marshal(coordSnapshot{Map: c.s.cur, Standbys: c.s.standbys})
	if err != nil {
		c.s.cfg.Logf("coordinator: rsm snapshot: %v", err)
		return nil
	}
	return b
}

func (c coordSM) Restore(data []byte) {
	var snap coordSnapshot
	if len(data) > 0 {
		if err := json.Unmarshal(data, &snap); err != nil {
			c.s.cfg.Logf("coordinator: rsm restore: %v", err)
			return
		}
	}
	c.s.mu.Lock()
	c.s.cur = snap.Map
	c.s.standbys = snap.Standbys
	if c.s.cur != nil {
		c.s.bumpLocked()
	}
	c.s.mu.Unlock()
}

// leaderCheck gates mutations and heartbeats: in replicated mode only the
// leader accepts them, everyone else redirects. Callers must not hold
// s.mu (the RSM node has its own lock ordering).
func (s *Server) leaderCheck() error {
	if s.rsm == nil || s.rsm.IsLeader() {
		return nil
	}
	return s.rsm.NotLeaderErr()
}

// installMap makes m the current map — directly in standalone mode,
// through the replicated log otherwise — and, when takeStandby is set,
// claims the head of the standby pool in the same atomic step (so a
// concurrent failover on a different leader can never claim the same
// standby). Callers hold s.proposeMu (serializing mutators, which is what
// keeps the epoch computed against the old map valid) and not s.mu.
func (s *Server) installMap(m *topology.Map, takeStandby bool) (*topology.Node, error) {
	if s.rsm == nil {
		return s.applyInstall(m, takeStandby)
	}
	cmd, err := json.Marshal(coordCmd{Op: opInstall, Map: m, TakeStandby: takeStandby})
	if err != nil {
		return nil, err
	}
	res, err := s.rsm.Propose(cmd, proposeTimeout)
	if err != nil {
		return nil, err
	}
	r, ok := res.(installResult)
	if !ok || r.stale {
		return nil, errMapChanged
	}
	return r.standby, nil
}

// applyInstall is the deterministic core of an install: adopt m iff it is
// newer than the current map, optionally popping the standby pool. It is
// both the standalone install path and coordSM.Apply's body, so the two
// modes cannot drift.
func (s *Server) applyInstall(m *topology.Map, takeStandby bool) (*topology.Node, error) {
	if m == nil {
		return nil, errors.New("coordinator: install of nil map")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil && m.Epoch <= s.cur.Epoch {
		return nil, errMapChanged
	}
	s.cur = m
	var sb *topology.Node
	if takeStandby && len(s.standbys) > 0 {
		v := s.standbys[0]
		s.standbys = append([]topology.Node(nil), s.standbys[1:]...)
		sb = &v
	}
	s.bumpLocked()
	return sb, nil
}

// returnStandby puts an unused standby back into the pool, replicated in
// RSM mode so a later failover — on any leader — still finds it.
func (s *Server) returnStandby(n topology.Node) {
	if s.rsm == nil {
		s.mu.Lock()
		s.standbys = append(s.standbys, n)
		s.mu.Unlock()
		return
	}
	cmd, err := json.Marshal(coordCmd{Op: opStandby, Standby: &n})
	if err == nil {
		_, err = s.rsm.Propose(cmd, proposeTimeout)
	}
	if err != nil {
		s.cfg.Logf("coordinator: return standby %s to pool: %v", n.ID, err)
	}
}

// onLeaderChange runs (on its own goroutine) whenever this member gains
// or loses control-plane leadership. A new leader first barriers so its
// state machine reflects every committed install, then grants the whole
// cluster a heartbeat grace period — its lastSeen view starts empty, and
// without the grace every node would look dead at once — and finally
// resumes any mode transition the old leader left in flight.
func (s *Server) onLeaderChange(term uint64, isLeader bool) {
	if !isLeader {
		s.cfg.Logf("coordinator: %s lost control-plane leadership at term %d", s.cfg.Replication.ID, term)
		return
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	if err := s.rsm.Barrier(proposeTimeout); err != nil {
		s.cfg.Logf("coordinator: leadership barrier at term %d: %v", term, err)
	}
	s.mu.Lock()
	now := time.Now()
	s.suspended = map[string]bool{}
	s.lastSeen = map[string]time.Time{}
	var resume bool
	if s.cur != nil {
		for _, shard := range s.cur.Shards {
			for _, n := range shard.Replicas {
				s.lastSeen[n.ID] = now
			}
		}
		if s.cur.Transition != nil {
			for _, shard := range s.cur.Transition.NewShards {
				for _, n := range shard.Replicas {
					s.lastSeen[n.ID] = now
				}
			}
			resume = true
		}
	}
	s.mu.Unlock()
	s.cfg.Logf("coordinator: %s leading control plane at term %d", s.cfg.Replication.ID, term)
	s.pushMap()
	if resume {
		s.resumeTransition()
	}
}

// resumeTransition picks up a mode transition interrupted by a leader
// failover: the transition descriptor is replicated state, so the new
// leader re-drains the old controlets (Drain is idempotent on an
// already-draining controlet) and completes the switch.
func (s *Server) resumeTransition() {
	s.mu.Lock()
	if s.cur == nil || s.cur.Transition == nil {
		s.mu.Unlock()
		return
	}
	m := s.cur.Clone()
	s.mu.Unlock()
	drains := make([]topology.Node, 0, len(m.Shards))
	for _, shard := range m.Shards {
		drains = append(drains, shard.Replicas...)
	}
	s.cfg.Logf("coordinator: resuming interrupted transition to %s", m.Transition.To)
	s.drainTransition(m, drains)
}

// RSMStatus reports the replication group's state (nil in standalone
// mode); the bespokv-cli rsm verb and tests read it.
func (s *Server) RSMStatus() *rsm.Status {
	if s.rsm == nil {
		return nil
	}
	st := s.rsm.Status()
	return &st
}

// IsLeader reports whether this coordinator currently accepts mutations
// (always true in standalone mode).
func (s *Server) IsLeader() bool {
	return s.rsm == nil || s.rsm.IsLeader()
}
