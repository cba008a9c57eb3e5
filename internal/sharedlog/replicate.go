package sharedlog

import (
	"encoding/json"
	"errors"
	"time"
)

// proposeTimeout bounds one replicated append/trim; the shared log's data
// path is the AA+EC write path, so this is generous — anything slower
// means the sequencer group has no quorum.
const proposeTimeout = 5 * time.Second

// trimResult carries a trim's deterministic outcome back to the proposer.
type trimResult struct {
	Err string `json:"err,omitempty"`
}

// streamSnapshot is one stream's checkpoint image: the retained segment
// entries, every pinned entry, and the sequencer counter and trim floor.
type streamSnapshot struct {
	Next    uint64  `json:"next"`
	Trimmed uint64  `json:"trimmed"`
	Entries []Entry `json:"entries,omitempty"`
	Pinned  []Entry `json:"pinned,omitempty"`
}

// leaderCheck gates appends and trims: in replicated mode only the leader
// sequences, everyone else redirects. Callers must not hold s.mu.
func (s *Server) leaderCheck() error {
	if s.node == nil || s.node.IsLeader() {
		return nil
	}
	return s.node.NotLeaderErr()
}

func (s *Server) proposeAppend(args AppendArgs) (AppendReply, error) {
	cmd := logCmd{Op: opAppend, Stream: args.Stream, Pin: args.Pin, Entries: args.Entries}
	b, err := cmd.AppendBinary(make([]byte, 0, len(args.Stream)+encodedSize(args.Entries)))
	if err != nil {
		return AppendReply{}, err
	}
	res, err := s.node.Propose(b, proposeTimeout)
	if err != nil {
		return AppendReply{}, err
	}
	reply, ok := res.(AppendReply)
	if !ok {
		return AppendReply{}, errors.New("sharedlog: append not applied")
	}
	return reply, nil
}

func (s *Server) proposeTrim(args TrimArgs) error {
	b, err := logCmd{Op: opTrim, Stream: args.Stream, Before: args.Before}.AppendBinary(nil)
	if err != nil {
		return err
	}
	res, err := s.node.Propose(b, proposeTimeout)
	if err != nil {
		return err
	}
	if r, ok := res.(trimResult); ok && r.Err != "" {
		return errors.New(r.Err)
	}
	return nil
}

// logSM adapts the stream table to the rsm.StateMachine interface. Apply
// runs on every member with the RSM internals locked, so it only touches
// s.mu-guarded state and never calls back into the RSM node. Appended
// entries alias cmd, which the RSM keeps immutable. Each member
// wakes its own long-pollers on apply, which is how followers serve
// subscriptions at one-RPC propagation latency.
type logSM struct{ s *Server }

func (m logSM) Apply(index uint64, cmd []byte) any {
	var op logCmd
	if err := op.UnmarshalBinary(cmd); err != nil {
		m.s.cfg.Logf("sharedlog: rsm entry %d undecodable: %v", index, err)
		return trimResult{Err: "sharedlog: undecodable command"}
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	switch op.Op {
	case opAppend:
		return m.s.applyAppendLocked(op.Stream, op.Pin, op.Entries)
	case opTrim:
		if err := m.s.applyTrimLocked(op.Stream, op.Before); err != nil {
			return trimResult{Err: err.Error()}
		}
		return trimResult{}
	default:
		return trimResult{Err: "sharedlog: unknown command"}
	}
}

func (m logSM) Snapshot() []byte {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	snap := map[string]streamSnapshot{}
	for name, st := range m.s.streams {
		ss := streamSnapshot{Next: st.next, Trimmed: st.trimmed, Pinned: st.pinned}
		for _, seg := range st.segs {
			ss.Entries = append(ss.Entries, seg.entries...)
		}
		snap[name] = ss
	}
	b, err := json.Marshal(snap)
	if err != nil {
		m.s.cfg.Logf("sharedlog: rsm snapshot: %v", err)
		return nil
	}
	return b
}

func (m logSM) Restore(data []byte) {
	snap := map[string]streamSnapshot{}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &snap); err != nil {
			m.s.cfg.Logf("sharedlog: rsm restore: %v", err)
			return
		}
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	for name, st := range m.s.streams {
		// Wake stranded long-pollers; they re-read the restored state.
		close(st.tailCh)
		st.tailCh = make(chan struct{})
		if _, ok := snap[name]; !ok {
			delete(m.s.streams, name)
		}
	}
	m.s.retained = 0
	for name, ss := range snap {
		st := m.s.streamLocked(name)
		st.next, st.trimmed, st.pinned, st.segs = ss.Next, ss.Trimmed, ss.Pinned, nil
		// The snapshot's entries are contiguous from the trim floor, so
		// regrouping them into full segments keeps the offset arithmetic.
		for _, e := range ss.Entries {
			if len(st.segs) == 0 || len(st.segs[len(st.segs)-1].entries) >= m.s.cfg.SegmentEntries {
				st.segs = append(st.segs, &segment{base: e.Offset})
			}
			seg := st.segs[len(st.segs)-1]
			seg.entries = append(seg.entries, e)
		}
		m.s.retained += st.retained()
	}
	logRetained.Set(m.s.retained)
}
