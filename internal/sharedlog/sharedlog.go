// Package sharedlog is a totally ordered append-only log service — the
// reproduction's stand-in for the paper's ZLog/CORFU shared log. The AA+EC
// controlet appends every write here first, and all replicas apply entries
// in log order, which is how bespoKV resolves concurrent multi-master
// writes that Dynomite cannot (§C of the paper).
//
// The design keeps CORFU's split between a sequencer (offset assignment)
// and storage (segmented entry store), collapsed into one process; readers
// long-poll so propagation latency is one RPC, not a poll interval.
package sharedlog

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/rpc"
	"bespokv/internal/rsm"
	"bespokv/internal/transport"
)

// Append/read traffic counters; the tail gauge lets dashboards derive
// replication lag as tail minus each controlet's applied offset.
var (
	logAppends       = metrics.Default.Counter("bespokv_sharedlog_appends_total")
	logEntriesTotal  = metrics.Default.Counter("bespokv_sharedlog_entries_total")
	logReads         = metrics.Default.Counter("bespokv_sharedlog_reads_total")
	logEntriesServed = metrics.Default.Counter("bespokv_sharedlog_entries_served_total")
	logTail          = metrics.Default.Gauge("bespokv_sharedlog_tail")
)

// Entry is one ordered log record.
type Entry struct {
	// Offset is the global sequence number.
	Offset uint64 `json:"o"`
	// Data is the opaque payload ([]byte marshals as base64 in JSON).
	Data []byte `json:"d"`
}

// Config configures a log server.
type Config struct {
	Network transport.Network
	Addr    string
	// SegmentEntries is the per-segment capacity before a new segment
	// starts (default 4096); Trim drops whole segments.
	SegmentEntries int
	// Replication, when set, replicates the sequencer counters and the
	// entries they order on a replicated state machine: appends and trims
	// commit through the leader (followers redirect with NotLeader),
	// reads and long-polls serve anywhere from locally applied state.
	Replication *rsm.GroupConfig
	Logf        func(format string, args ...any)
}

type segment struct {
	base    uint64
	entries []Entry
}

// logState is one independent stream's segments and sequencer. Streams
// are CORFU-style: one server multiplexes many totally ordered logs (the
// controlets use one stream per shard), which is the paper's noted path
// for scaling the shared log with the cluster.
type logState struct {
	segs    []*segment
	next    uint64 // sequencer: next offset to assign
	trimmed uint64 // offsets below this are gone
	tailCh  chan struct{}
}

// Server is a running shared log.
type Server struct {
	cfg  Config
	rpc  *rpc.Server
	addr string
	node *rsm.Node // nil in standalone mode

	mu      sync.Mutex
	streams map[string]*logState
	stopCh  chan struct{}
	stopped bool
}

// AppendArgs appends a batch atomically (contiguous offsets).
type AppendArgs struct {
	// Stream selects an independent log ("" is the default stream).
	Stream  string   `json:"stream,omitempty"`
	Entries [][]byte `json:"entries"`
}

// AppendReply returns the offset of the first appended entry.
type AppendReply struct {
	First uint64 `json:"first"`
	Next  uint64 `json:"next"`
}

// ReadArgs fetches entries at offsets >= From, up to Max, long-polling up
// to WaitMs when the log has nothing newer.
type ReadArgs struct {
	Stream string `json:"stream,omitempty"`
	From   uint64 `json:"from"`
	Max    int    `json:"max,omitempty"`
	WaitMs int    `json:"wait_ms,omitempty"`
}

// ReadReply carries the entries and the next offset to read from.
type ReadReply struct {
	Entries []Entry `json:"entries,omitempty"`
	Next    uint64  `json:"next"`
}

// TrimArgs discards entries below Before.
type TrimArgs struct {
	Stream string `json:"stream,omitempty"`
	Before uint64 `json:"before"`
}

// TailArgs names the stream to inspect.
type TailArgs struct {
	Stream string `json:"stream,omitempty"`
}

// TailReply reports the next offset the sequencer will assign.
type TailReply struct {
	Next uint64 `json:"next"`
}

// Serve starts a shared log server.
func Serve(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("sharedlog: Network is required")
	}
	if cfg.SegmentEntries <= 0 {
		cfg.SegmentEntries = 4096
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		rpc:     rpc.NewServer(),
		streams: map[string]*logState{},
		stopCh:  make(chan struct{}),
	}
	s.rpc.Name = "sharedlog"
	rpc.HandleFunc(s.rpc, "Append", s.handleAppend)
	rpc.HandleFunc(s.rpc, "Read", s.handleRead)
	rpc.HandleFunc(s.rpc, "Trim", s.handleTrim)
	rpc.HandleFunc(s.rpc, "Tail", s.handleTail)
	addr, err := s.rpc.Serve(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = addr
	if rc := cfg.Replication; rc != nil {
		node, err := rsm.StartGroup(*rc, s.rpc, cfg.Network, logSM{s}, nil, cfg.Logf)
		if err != nil {
			s.rpc.Close()
			return nil, err
		}
		s.node = node
	}
	return s, nil
}

// Addr returns the server's RPC address.
func (s *Server) Addr() string { return s.addr }

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	close(s.stopCh)
	s.mu.Unlock()
	if s.node != nil {
		s.node.Close()
	}
	return s.rpc.Close()
}

// IsLeader reports whether this member currently accepts appends (always
// true in standalone mode).
func (s *Server) IsLeader() bool {
	return s.node == nil || s.node.IsLeader()
}

// RSMStatus reports the replication group's state (nil in standalone mode).
func (s *Server) RSMStatus() *rsm.Status {
	if s.node == nil {
		return nil
	}
	st := s.node.Status()
	return &st
}

// stream returns (creating if needed) the named stream. Caller holds mu.
func (s *Server) streamLocked(name string) *logState {
	st, ok := s.streams[name]
	if !ok {
		st = &logState{tailCh: make(chan struct{})}
		s.streams[name] = st
	}
	return st
}

func (s *Server) handleAppend(args AppendArgs) (AppendReply, error) {
	if len(args.Entries) == 0 {
		return AppendReply{}, errors.New("sharedlog: empty append")
	}
	if err := s.leaderCheck(); err != nil {
		return AppendReply{}, err
	}
	if s.node == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.applyAppendLocked(args.Stream, args.Entries), nil
	}
	return s.proposeAppend(args)
}

// applyAppendLocked assigns offsets from the stream's sequencer counter and
// stores the batch; it is both the standalone append path and the
// replicated apply body, so the two modes cannot drift. Caller holds mu.
func (s *Server) applyAppendLocked(stream string, entries [][]byte) AppendReply {
	st := s.streamLocked(stream)
	first := st.next
	for _, data := range entries {
		if len(st.segs) == 0 || len(st.segs[len(st.segs)-1].entries) >= s.cfg.SegmentEntries {
			st.segs = append(st.segs, &segment{base: st.next})
		}
		seg := st.segs[len(st.segs)-1]
		seg.entries = append(seg.entries, Entry{Offset: st.next, Data: data})
		st.next++
	}
	close(st.tailCh)
	st.tailCh = make(chan struct{})
	logAppends.Inc()
	logEntriesTotal.Add(int64(len(entries)))
	logTail.Set(int64(st.next))
	return AppendReply{First: first, Next: st.next}
}

func (s *Server) handleRead(args ReadArgs) (ReadReply, error) {
	max := args.Max
	if max <= 0 {
		max = 1024
	}
	var deadline <-chan time.Time
	if args.WaitMs > 0 {
		t := time.NewTimer(time.Duration(args.WaitMs) * time.Millisecond)
		defer t.Stop()
		deadline = t.C
	}
	for {
		s.mu.Lock()
		st := s.streamLocked(args.Stream)
		if args.From < st.trimmed {
			from := st.trimmed
			s.mu.Unlock()
			return ReadReply{}, fmt.Errorf("sharedlog: offset %d trimmed (oldest available %d)", args.From, from)
		}
		if args.From < st.next {
			reply := ReadReply{Next: args.From}
			for _, seg := range st.segs {
				if seg.base+uint64(len(seg.entries)) <= args.From {
					continue
				}
				start := 0
				if args.From > seg.base {
					start = int(args.From - seg.base)
				}
				for _, e := range seg.entries[start:] {
					if len(reply.Entries) >= max {
						break
					}
					reply.Entries = append(reply.Entries, e)
				}
				if len(reply.Entries) >= max {
					break
				}
			}
			reply.Next = args.From + uint64(len(reply.Entries))
			s.mu.Unlock()
			logReads.Inc()
			logEntriesServed.Add(int64(len(reply.Entries)))
			return reply, nil
		}
		ch := st.tailCh
		s.mu.Unlock()
		if deadline == nil {
			return ReadReply{Next: args.From}, nil
		}
		select {
		case <-ch:
		case <-deadline:
			return ReadReply{Next: args.From}, nil
		case <-s.stopCh:
			return ReadReply{}, errors.New("sharedlog: shutting down")
		}
	}
}

func (s *Server) handleTrim(args TrimArgs) (struct{}, error) {
	if err := s.leaderCheck(); err != nil {
		return struct{}{}, err
	}
	if s.node == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return struct{}{}, s.applyTrimLocked(args.Stream, args.Before)
	}
	return struct{}{}, s.proposeTrim(args)
}

// applyTrimLocked is the deterministic trim body. Caller holds mu.
func (s *Server) applyTrimLocked(stream string, before uint64) error {
	st := s.streamLocked(stream)
	if before > st.next {
		return fmt.Errorf("sharedlog: trim %d beyond tail %d", before, st.next)
	}
	kept := st.segs[:0]
	for _, seg := range st.segs {
		if seg.base+uint64(len(seg.entries)) <= before {
			continue // whole segment below the trim point
		}
		kept = append(kept, seg)
	}
	st.segs = append([]*segment(nil), kept...)
	// Trim drops whole segments only, so the true floor is the first
	// retained segment's base (or before itself when nothing remains).
	floor := before
	if len(st.segs) > 0 && st.segs[0].base < floor {
		floor = st.segs[0].base
	}
	if floor > st.trimmed {
		st.trimmed = floor
	}
	return nil
}

func (s *Server) handleTail(args TailArgs) (TailReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TailReply{Next: s.streamLocked(args.Stream).next}, nil
}

// Client is a typed connection to the shared log, bound to one stream
// (the zero-value default stream unless Stream is used): an rsm.Client,
// which follows the sequencer's leader across failovers, plus the log
// methods.
type Client struct {
	rc     *rsm.Client
	stream string
}

// DialClient connects to a shared log server (default stream). addr may be
// a single address or a comma-separated member list.
func DialClient(network transport.Network, addr string) (*Client, error) {
	rc, err := rsm.Dial(network, rsm.SplitAddrs(addr))
	if err != nil {
		return nil, err
	}
	return &Client{rc: rc}, nil
}

// Stream returns a view of this connection bound to the named stream.
// Views share the underlying connection; Close on any of them closes it.
func (c *Client) Stream(name string) *Client {
	return &Client{rc: c.rc, stream: name}
}

// Append writes the batch, returning the first assigned offset.
func (c *Client) Append(entries ...[]byte) (uint64, error) {
	var reply AppendReply
	if err := c.rc.Call(0, "Append", AppendArgs{Stream: c.stream, Entries: entries}, &reply, rpc.DefaultCallTimeout); err != nil {
		return 0, err
	}
	return reply.First, nil
}

// Read fetches entries from offset from, long-polling up to wait.
func (c *Client) Read(from uint64, max int, wait time.Duration) ([]Entry, uint64, error) {
	var reply ReadReply
	args := ReadArgs{Stream: c.stream, From: from, Max: max, WaitMs: int(wait / time.Millisecond)}
	if err := c.rc.Call(0, "Read", args, &reply, wait+rpc.DefaultCallTimeout); err != nil {
		return nil, 0, err
	}
	return reply.Entries, reply.Next, nil
}

// Trim discards entries below before.
func (c *Client) Trim(before uint64) error {
	return c.rc.Call(0, "Trim", TrimArgs{Stream: c.stream, Before: before}, nil, rpc.DefaultCallTimeout)
}

// Tail returns the next offset the sequencer will assign.
func (c *Client) Tail() (uint64, error) {
	var reply TailReply
	if err := c.rc.Call(0, "Tail", TailArgs{Stream: c.stream}, &reply, rpc.DefaultCallTimeout); err != nil {
		return 0, err
	}
	return reply.Next, nil
}

// Close tears down the connection; an in-flight read wait fails with
// rsm.ErrClientClosed.
func (c *Client) Close() error { return c.rc.Close() }

// Subscribe starts a background reader that calls fn for every entry from
// offset from onward, in order, until stop is closed or the log dies. It
// opens its own connection so long-polls never block other calls.
func Subscribe(network transport.Network, addr string, from uint64, stop <-chan struct{}, fn func(Entry)) error {
	c, err := DialClient(network, addr)
	if err != nil {
		return err
	}
	go func() {
		defer c.Close()
		next := from
		for {
			select {
			case <-stop:
				return
			default:
			}
			entries, n, err := c.Read(next, 1024, time.Second)
			if err != nil {
				return
			}
			for _, e := range entries {
				fn(e)
			}
			next = n
		}
	}()
	return nil
}
