package controlet

import (
	"errors"
	"fmt"

	"bespokv/internal/datalet"
	"bespokv/internal/wire"
)

// RecoverReply reports what a recovery transferred; the coordinator logs
// it and the rejoin tests assert on it.
type RecoverReply struct {
	// Pairs is the number of records (live pairs plus tombstones) pulled
	// from the source.
	Pairs int `json:"pairs"`
	// Delta is true when every table was recovered incrementally from the
	// local watermark rather than by a full export.
	Delta bool `json:"delta"`
}

// recoverFrom clones a surviving datalet's state into the local datalet —
// the standby-promotion path the coordinator drives after a node failure
// ("the new controlet then recovers the data from one of the datalets",
// §IV-A), and the rejoin path after a crash-restart. Tables are discovered
// via OpStats; versions ride along, so any replication that races with
// recovery resolves by LWW.
//
// A restarted node does not start empty: its engine recovered a durable
// prefix, and its recovered watermark (carried per table in the local
// datalet's OpStats) bounds what it can be missing. When the watermark is
// non-zero the source is asked for an incremental delta (OpExportDelta) —
// only records newer than the watermark, tombstones included — and only
// if the source cannot serve a complete delta does recovery fall back to
// the full OpExport stream.
func (s *Server) recoverFrom(args RecoverArgs) (RecoverReply, error) {
	var reply RecoverReply
	codec := s.cfg.DataletCodec
	if args.Codec != "" {
		c, err := wire.LookupCodec(args.Codec)
		if err != nil {
			return reply, err
		}
		codec = c
	}
	src, err := datalet.Dial(s.cfg.DataletNetwork, args.SourceDatalet, codec)
	if err != nil {
		return reply, fmt.Errorf("recover: dial source: %w", err)
	}
	defer src.Close()

	// Discover the source's tables.
	var stats wire.Response
	if err := src.Do(&wire.Request{Op: wire.OpStats}, &stats); err != nil {
		return reply, fmt.Errorf("recover: stats: %w", err)
	}
	if err := stats.ErrValue(); err != nil {
		return reply, fmt.Errorf("recover: stats: %w", err)
	}
	tables := make([]string, 0, len(stats.Pairs))
	for _, p := range stats.Pairs {
		tables = append(tables, string(p.Key))
	}
	if len(tables) == 0 {
		tables = []string{""}
	}

	local := s.local.Get()

	// The local datalet's per-table recovered watermarks decide between
	// incremental and full recovery. AA+EC always takes the full export:
	// a writer applies its own writes ahead of its log applier, so its
	// watermark is not a prefix of what it holds, and the writes it missed
	// below the shared log's trim point exist only at the source — a delta
	// above the watermark would skip them.
	watermarks := map[string]uint64{}
	var localStats wire.Response
	if s.aaec == nil && local.Do(&wire.Request{Op: wire.OpStats}, &localStats) == nil && localStats.ErrValue() == nil {
		for _, p := range localStats.Pairs {
			watermarks[string(p.Key)] = p.Version
		}
	}

	reply.Delta = true
	for _, table := range tables {
		if table != "" {
			var resp wire.Response
			if err := local.Do(&wire.Request{Op: wire.OpCreateTable, Table: table}, &resp); err != nil {
				return reply, fmt.Errorf("recover: create table %q: %w", table, err)
			}
		}
		apply := func(kv wire.KV, tombstone bool) error {
			s.observeVersion(kv.Version)
			var resp wire.Response
			req := wire.Request{
				Op:      wire.OpPut,
				Table:   table,
				Key:     kv.Key,
				Value:   kv.Value,
				Version: kv.Version,
			}
			if tombstone {
				req.Op = wire.OpDel
				req.Value = nil
			}
			if err := local.Do(&req, &resp); err != nil {
				return err
			}
			reply.Pairs++
			if resp.Status == wire.StatusErr {
				return resp.ErrValue()
			}
			return nil
		}

		usedDelta := false
		if since := watermarks[table]; since > 0 {
			err := src.ExportSince(table, since, apply)
			switch {
			case err == nil:
				usedDelta = true
				s.cfg.Logf("controlet %s: rejoined table %q from %s with an incremental delta since v%d",
					s.cfg.NodeID, table, args.SourceDatalet, since)
			case errors.Is(err, datalet.ErrDeltaUnavailable):
				s.cfg.Logf("controlet %s: table %q: delta since v%d unavailable at %s, falling back to full export",
					s.cfg.NodeID, table, since, args.SourceDatalet)
			default:
				return reply, fmt.Errorf("recover: delta export table %q: %w", table, err)
			}
		}
		if !usedDelta {
			reply.Delta = false
			err := src.Export(table, func(kv wire.KV) error {
				return apply(kv, false)
			})
			if err != nil {
				return reply, fmt.Errorf("recover: export table %q: %w", table, err)
			}
		}
		s.cfg.Logf("controlet %s: recovered %d records of table %q from %s (delta=%v)",
			s.cfg.NodeID, reply.Pairs, table, args.SourceDatalet, usedDelta)
	}
	return reply, nil
}
