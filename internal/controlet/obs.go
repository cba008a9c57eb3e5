package controlet

import (
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/metrics"
	"bespokv/internal/telemetry"
	"bespokv/internal/wire"
)

// Hot-path metrics are resolved once at init (see the registry contract in
// internal/metrics): counting an op is one atomic add; latency timing is
// sampled (metrics.SampleLatency) because the clock pair dominates the
// bookkeeping cost. Control-path metrics (heartbeats, failover,
// propagation give-ups) may use labeled lookups freely.
var (
	ctlOpCount [wire.OpMax + 1]*metrics.Counter
	ctlOpLat   [wire.OpMax + 1]*metrics.Histogram

	// Replication fan-out, by mechanism: chain forwards launched (MS+SC),
	// async records enqueued/dropped (MS+EC), write-all peer applies
	// (AA+SC), shared-log appends (AA+EC).
	ctlChainForwards = metrics.Default.Counter("bespokv_controlet_chain_forwards_total")
	ctlPropEnqueued  = metrics.Default.Counter("bespokv_controlet_prop_enqueued_total")
	ctlPropDropped   = metrics.Default.Counter("bespokv_controlet_prop_dropped_total")
	ctlPropPending   = metrics.Default.Gauge("bespokv_controlet_prop_pending")
	ctlReplicateAll  = metrics.Default.Counter("bespokv_controlet_replicate_all_total")
	ctlLogAppendLat  = metrics.Default.Histogram("bespokv_controlet_log_append_seconds")
	ctlAAECApplied   = metrics.Default.Gauge("bespokv_controlet_aaec_applied_offset")

	// AA+SC lease acquisition: the DLM wait is the paper's SC overhead.
	ctlLockWait = metrics.Default.Histogram("bespokv_controlet_lock_wait_seconds")

	// Coordinator liveness reporting.
	ctlHeartbeats    = metrics.Default.Counter("bespokv_controlet_heartbeats_total")
	ctlHeartbeatErrs = metrics.Default.Counter("bespokv_controlet_heartbeat_errors_total")

	// Requests rejected because the node self-fenced (lost coordinator
	// contact past FenceTimeout).
	ctlFencedRejects = metrics.Default.Counter("bespokv_controlet_fenced_rejects_total")

	// Overload control: requests shed by admission control (including
	// replication-backlog backpressure) and requests dropped because
	// their propagated deadline budget was already spent at this hop.
	// Both answer the retryable StatusOverloaded; neither is acked.
	ctlShedTotal       = metrics.Default.Counter("bespokv_overload_shed_total", "layer", "controlet")
	ctlDeadlineExpired = metrics.Default.Counter("bespokv_deadline_expired_total", "layer", "controlet")

	// Telemetry reports shipped to (or lost on the way to) the aggregator.
	ctlTelemetryReports = metrics.Default.Counter("bespokv_controlet_telemetry_reports_total")
	ctlTelemetryErrs    = metrics.Default.Counter("bespokv_controlet_telemetry_errors_total")
)

func init() {
	for op := wire.OpNop; op <= wire.OpMax; op++ {
		ctlOpCount[op] = metrics.Default.Counter("bespokv_controlet_ops_total", "op", op.String())
		ctlOpLat[op] = metrics.Default.Histogram("bespokv_controlet_op_seconds", "op", op.String())
	}
}

func clampCtlOp(op wire.Op) wire.Op {
	if op > wire.OpMax {
		return wire.OpNop
	}
	return op
}

// countCtlOp is the unsampled path: op accounting without the clock.
func countCtlOp(op wire.Op) { ctlOpCount[clampCtlOp(op)].Inc() }

func recordCtlOp(op wire.Op, d time.Duration) {
	op = clampCtlOp(op)
	ctlOpCount[op].Inc()
	ctlOpLat[op].Observe(d)
}

// recordTelemetry accounts one dispatched frame into the workload recorder:
// class counters always (internal replication ops collapse to ClassOther),
// per-key sizes and sketch touches for client-entry classes only, latency
// when the op was timed (d >= 0). All of it is atomics plus a sampled
// sketch touch — safe on the hot path.
func (s *Server) recordTelemetry(req *wire.Request, resp *wire.Response, d time.Duration) {
	class := telemetry.ClassOf(req.Op)
	// Overloaded sheds spend the availability budget too: the SLO burn
	// engine must see an overloaded shard as burning, not healthy.
	isErr := resp.Status == wire.StatusErr || resp.Status == wire.StatusUnavailable ||
		resp.Status == wire.StatusOverloaded
	switch class {
	case telemetry.ClassGet:
		s.tele.Record(class, len(req.Key), len(resp.Value), d, isErr)
		s.tele.Touch(req.Key)
	case telemetry.ClassPut:
		s.tele.Record(class, len(req.Key), len(req.Value), d, isErr)
		s.tele.Touch(req.Key)
	case telemetry.ClassDel:
		s.tele.Record(class, len(req.Key), -1, d, isErr)
		s.tele.Touch(req.Key)
	case telemetry.ClassScan:
		s.tele.Record(class, len(req.Key), -1, d, isErr)
	case telemetry.ClassMGet:
		s.tele.Record(class, -1, -1, d, isErr)
		for i := range req.Pairs {
			s.tele.RecordKV(len(req.Pairs[i].Key), -1)
			s.tele.Touch(req.Pairs[i].Key)
		}
	case telemetry.ClassMPut:
		s.tele.Record(class, -1, -1, d, isErr)
		for i := range req.Pairs {
			s.tele.RecordKV(len(req.Pairs[i].Key), len(req.Pairs[i].Value))
			s.tele.Touch(req.Pairs[i].Key)
		}
	default:
		s.tele.Record(class, -1, -1, d, isErr)
	}
}

// poolStats sums Stats over a pool map under its lock.
func poolStats(pools map[string]*datalet.Pool) (conns, load int) {
	for _, p := range pools {
		c, l := p.Stats()
		conns += c
		load += l
	}
	return
}

// Status reports this controlet's role, map epoch, replication lag and
// connection-pool stats for /statusz.
func (s *Server) Status() any {
	m := s.Map()
	st := map[string]any{
		"role":       "detached",
		"node":       s.cfg.NodeID,
		"shard":      s.shardID(),
		"mode":       s.cfg.Mode.String(),
		"epoch":      uint64(0),
		"clock":      s.clock.Load(),
		"draining":   s.draining.Load(),
		"transition": false,
		"uptime_sec": int64(metrics.ProcessUptime().Seconds()),
	}
	if m != nil {
		st["epoch"] = m.Epoch
		st["transition"] = m.Transition != nil
		_, pos := s.myShard(m)
		st["role"] = s.roleName(m, pos)
	}
	localConns, localLoad := s.local.Stats()
	s.peersMu.Lock()
	peerConns, peerLoad := poolStats(s.peers)
	peerCount := len(s.peers)
	s.peersMu.Unlock()
	s.dPeersMu.Lock()
	dConns, dLoad := poolStats(s.dPeers)
	dCount := len(s.dPeers)
	s.dPeersMu.Unlock()
	st["pools"] = map[string]any{
		"local_conns":        localConns,
		"local_load":         localLoad,
		"peers":              peerCount,
		"peer_conns":         peerConns,
		"peer_load":          peerLoad,
		"peer_datalets":      dCount,
		"peer_datalet_conns": dConns,
		"peer_datalet_load":  dLoad,
	}
	// The /overloadz section: admission-gate state plus the process-wide
	// shed/deadline counters for this layer.
	st["overloadz"] = map[string]any{
		"gate":             s.gate.Snapshot(),
		"shed_total":       ctlShedTotal.Value(),
		"deadline_expired": ctlDeadlineExpired.Value(),
	}
	if s.prop != nil {
		st["prop_pending"] = s.prop.pendingN.Load()
	}
	if ms := s.mig.Load(); ms != nil {
		st["migration"] = ms.mover.Status()
	}
	if s.aaec != nil {
		st["aaec_applied_offset"] = s.aaec.applied.Load()
		st["aaec_trim_floor"] = s.aaec.trimFloor()
	}
	return st
}
