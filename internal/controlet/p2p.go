package controlet

import (
	"bespokv/internal/topology"
	"bespokv/internal/wire"
)

// P2P-style topology (§IV-E): with Config.P2PRouting enabled, a client may
// send any request to any controlet; a controlet that does not own the key
// routes it to the owning shard's appropriate node — the one-hop
// equivalent of a Chord finger table, using the cluster map as the routing
// map — and relays the answer. Combined with per-shard MS chains this also
// yields the paper's AA-MS hybrid: active-active entry points over
// master-slave shards.
//
// Forwarded point requests carry a hop count in the (otherwise unused for
// point ops) Limit field so stale maps cannot loop a request forever;
// after maxP2PHops the request falls back to a redirect.
const maxP2PHops = 3

// routeForeign handles requests for keys this controlet's shard does not
// own: under P2PRouting it forwards to the owning shard and relays;
// otherwise it redirects the client (a misrouted write must never land in
// the wrong shard, where fresh clients would not find it). Reports whether
// it handled the request.
func (s *Server) routeForeign(req *wire.Request, resp *wire.Response) bool {
	switch req.Op {
	case wire.OpPut, wire.OpGet, wire.OpDel:
	default:
		return false // scans fan out client-side; internal ops are pre-routed
	}
	m, ring := s.mapAndRing()
	if m == nil || len(m.Shards) < 2 {
		return false
	}
	if m.Partitioner == topology.HashPartitioner && ring == nil {
		return false
	}
	owner := m.Shards[m.ShardFor(req.Key, ring)]
	mine, _ := s.myShard(m)
	if owner.ID == mine.ID || mine.ID == "" {
		return false
	}
	if !s.cfg.P2PRouting || req.Limit >= maxP2PHops {
		resp.Status = wire.StatusRedirect
		resp.Err = s.p2pTarget(m, owner, req).ControletAddr
		return true
	}
	target := s.p2pTarget(m, owner, req)
	pool, err := s.peerPool(target.ControletAddr)
	if err != nil {
		resp.Status = wire.StatusUnavailable
		resp.Err = "p2p: " + err.Error()
		return true
	}
	fwd := *req
	fwd.Limit++
	if err := pool.Do(&fwd, resp); err != nil {
		s.dropPeer(target.ControletAddr)
		resp.Reset()
		resp.ID = req.ID
		resp.Status = wire.StatusUnavailable
		resp.Err = "p2p: " + err.Error()
		return true
	}
	resp.ID = req.ID
	return true
}

// p2pTarget picks the node in the owning shard that should see req. The
// clock spreads picks; it is reduced as a uint64 because AA+EC versions,
// and so the clock, sit at or above 1<<63, where int() turns negative.
func (s *Server) p2pTarget(m *topology.Map, owner topology.Shard, req *wire.Request) topology.Node {
	if req.Op == wire.OpGet {
		if m.Mode.Topology == topology.MS && m.Mode.Consistency == topology.Strong {
			return owner.ReadTail()
		}
		readable := owner.ReadReplicas()
		return readable[s.clock.Load()%uint64(len(readable))]
	}
	if m.Mode.Topology == topology.AA {
		return owner.Replicas[s.clock.Load()%uint64(len(owner.Replicas))]
	}
	return owner.Head()
}

// relayTo forwards req verbatim to a peer controlet and copies back its
// answer — the in-shard hop P2P mode uses when this node is in the owning
// shard but not the role (head/tail) the request needs.
func (s *Server) relayTo(addr string, req *wire.Request, resp *wire.Response) {
	pool, err := s.peerPool(addr)
	if err != nil {
		resp.Status = wire.StatusUnavailable
		resp.Err = "p2p: " + err.Error()
		return
	}
	fwd := *req
	fwd.Limit++
	if err := pool.Do(&fwd, resp); err != nil {
		s.dropPeer(addr)
		resp.Reset()
		resp.ID = req.ID
		resp.Status = wire.StatusUnavailable
		resp.Err = "p2p: " + err.Error()
		return
	}
	resp.ID = req.ID
}

// mapAndRing returns the current map with its cached consistent-hash ring.
func (s *Server) mapAndRing() (*topology.Map, *topology.Ring) {
	s.mapMu.RLock()
	defer s.mapMu.RUnlock()
	return s.curMap, s.curRing
}
