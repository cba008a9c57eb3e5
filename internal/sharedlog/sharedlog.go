// Package sharedlog is a totally ordered append-only log service — the
// reproduction's stand-in for the paper's ZLog/CORFU shared log. The AA+EC
// controlet appends every write here first, and all replicas apply entries
// in log order, which is how bespoKV resolves concurrent multi-master
// writes that Dynomite cannot (§C of the paper).
//
// The design keeps CORFU's split between a sequencer (offset assignment)
// and storage (segmented entry store), collapsed into one process; readers
// long-poll so propagation latency is one RPC, not a poll interval.
//
// The log trims. Trim drops whole segments below a point the caller
// guarantees every reader has consumed; the AA+EC controlets derive that
// point from their replicas' applied offsets, which the coordinator
// gathers from heartbeats, and the shard's first replica trims once the
// floor crosses a segment boundary. Pinned entries (the version-floor
// records) survive trims: a Read from below the trim point returns them and
// then continues from the oldest retained segment, so a replayer rebuilds
// the same state from the pinned records that it would from the full log.
package sharedlog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bespokv/internal/metrics"
	"bespokv/internal/rpc"
	"bespokv/internal/rsm"
	"bespokv/internal/transport"
)

// Append/read traffic counters; the tail gauge lets dashboards derive
// replication lag as tail minus each controlet's applied offset, and the
// retained gauge shows what trimming leaves in memory (every stream's
// segments plus the pinned entries below each trim point).
var (
	logAppends       = metrics.Default.Counter("bespokv_sharedlog_appends_total")
	logEntriesTotal  = metrics.Default.Counter("bespokv_sharedlog_entries_total")
	logReads         = metrics.Default.Counter("bespokv_sharedlog_reads_total")
	logEntriesServed = metrics.Default.Counter("bespokv_sharedlog_entries_served_total")
	logTail          = metrics.Default.Gauge("bespokv_sharedlog_tail")
	logRetained      = metrics.Default.Gauge("bespokv_sharedlog_retained_entries")
)

// DefaultSegmentEntries is the segment capacity a server uses when
// Config.SegmentEntries is unset. Trimmers pace their Trim calls by it: a
// trim that does not cross a segment boundary drops nothing.
const DefaultSegmentEntries = 4096

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
	// starts (default DefaultSegmentEntries); Trim drops whole segments.
	SegmentEntries int
	// Replication, when set, replicates the sequencer counters and the
	// entries they order on a replicated state machine: appends and trims
	// commit through the leader (followers redirect with NotLeader),
	// reads and long-polls serve anywhere from locally applied state.
	Replication *rsm.GroupConfig
	Logf        func(format string, args ...any)
}

// segment holds SegmentEntries consecutive entries starting at base; only
// a stream's last segment may be partial, so an offset's segment and slot
// follow from arithmetic on the first segment's base.
type segment struct {
	base    uint64
	entries []Entry
}

// logState is one independent stream's segments and sequencer. Streams
// are CORFU-style: one server multiplexes many totally ordered logs (the
// controlets use one stream per shard), which is the paper's noted path
// for scaling the shared log with the cluster.
type logState struct {
	segs []*segment
	// pinned lists every pinned entry in offset order. Those at or above
	// trimmed are also in segs; those below it are all that is left of
	// the trimmed prefix.
	pinned  []Entry
	next    uint64 // sequencer: next offset to assign
	trimmed uint64 // unpinned offsets below this are gone; segs[0].base when segs is non-empty
	tailCh  chan struct{}
}

// pinnedBelow counts the pinned entries with offsets below off.
func (st *logState) pinnedBelow(off uint64) int {
	return sort.Search(len(st.pinned), func(i int) bool { return st.pinned[i].Offset >= off })
}

// retained counts the entries the stream holds in memory.
func (st *logState) retained() int64 {
	return int64(st.next-st.trimmed) + int64(st.pinnedBelow(st.trimmed))
}

// Server is a running shared log.
type Server struct {
	cfg  Config
	rpc  *rpc.Server
	addr string
	node *rsm.Node // nil in standalone mode

	mu       sync.Mutex
	streams  map[string]*logState
	retained int64 // sum of every stream's retained()
	stopCh   chan struct{}
	stopped  bool
}

// AppendArgs appends a batch atomically (contiguous offsets). Pinned
// entries survive every later Trim.
type AppendArgs struct {
	// Stream selects an independent log ("" is the default stream).
	Stream  string
	Pin     bool
	Entries [][]byte
}

// AppendReply returns the offset of the first appended entry.
type AppendReply struct {
	First uint64
	Next  uint64
}

// ReadArgs fetches entries at offsets >= From, up to Max, long-polling up
// to WaitMs when the log has nothing newer.
type ReadArgs struct {
	Stream string
	From   uint64
	Max    int
	WaitMs int
}

// ReadReply carries the entries and the next offset to read from.
type ReadReply struct {
	Entries []Entry
	Next    uint64
}

// TrimArgs discards unpinned entries below Before.
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
		cfg.SegmentEntries = DefaultSegmentEntries
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
		return s.applyAppendLocked(args.Stream, args.Pin, args.Entries), nil
	}
	return s.proposeAppend(args)
}

// applyAppendLocked assigns offsets from the stream's sequencer counter and
// stores the batch; it is both the standalone append path and the
// replicated apply body, so the two modes cannot drift. Caller holds mu.
func (s *Server) applyAppendLocked(stream string, pin bool, entries [][]byte) AppendReply {
	st := s.streamLocked(stream)
	first := st.next
	for _, data := range entries {
		if len(st.segs) == 0 || len(st.segs[len(st.segs)-1].entries) >= s.cfg.SegmentEntries {
			st.segs = append(st.segs, &segment{base: st.next, entries: make([]Entry, 0, s.cfg.SegmentEntries)})
		}
		seg := st.segs[len(st.segs)-1]
		e := Entry{Offset: st.next, Data: data}
		seg.entries = append(seg.entries, e)
		if pin {
			st.pinned = append(st.pinned, e)
		}
		st.next++
	}
	close(st.tailCh)
	st.tailCh = make(chan struct{})
	s.retained += int64(len(entries))
	logAppends.Inc()
	logEntriesTotal.Add(int64(len(entries)))
	logTail.Set(int64(st.next))
	logRetained.Set(s.retained)
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
		reply := s.readLocked(st, args.From, max)
		ch := st.tailCh
		s.mu.Unlock()
		if len(reply.Entries) > 0 {
			logReads.Inc()
			logEntriesServed.Add(int64(len(reply.Entries)))
			return reply, nil
		}
		if deadline == nil {
			return reply, nil
		}
		select {
		case <-ch:
		case <-deadline:
			return reply, nil
		case <-s.stopCh:
			return ReadReply{}, errors.New("sharedlog: shutting down")
		}
	}
}

// readLocked collects up to max entries at offsets >= from. Below the trim
// point only the pinned entries remain; the read returns those and then
// continues from the oldest retained segment. Caller holds mu.
func (s *Server) readLocked(st *logState, from uint64, max int) ReadReply {
	var reply ReadReply
	if from < st.trimmed {
		for _, e := range st.pinned[st.pinnedBelow(from):st.pinnedBelow(st.trimmed)] {
			if len(reply.Entries) == max {
				reply.Next = e.Offset
				return reply
			}
			reply.Entries = append(reply.Entries, e)
		}
		from = st.trimmed
	}
	reply.Next = from
	if from >= st.next {
		return reply
	}
	n := st.next - from
	if room := uint64(max - len(reply.Entries)); n > room {
		n = room
	}
	if reply.Entries == nil {
		reply.Entries = make([]Entry, 0, n)
	}
	rel := from - st.segs[0].base
	seg, off := int(rel/uint64(s.cfg.SegmentEntries)), int(rel%uint64(s.cfg.SegmentEntries))
	for want := int(n); want > 0; seg, off = seg+1, 0 {
		es := st.segs[seg].entries[off:]
		if len(es) > want {
			es = es[:want]
		}
		reply.Entries = append(reply.Entries, es...)
		want -= len(es)
	}
	reply.Next = from + n
	return reply
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

// applyTrimLocked is the deterministic trim body: it drops every full
// segment that lies wholly below before, keeping their pinned entries. A
// partial last segment stays, so segment bases remain multiples of
// SegmentEntries and a trimmer pacing itself by segment boundaries meets
// the real ones. A trim below the current floor is a no-op. Caller holds
// mu.
func (s *Server) applyTrimLocked(stream string, before uint64) error {
	st := s.streamLocked(stream)
	if before > st.next {
		return fmt.Errorf("sharedlog: trim %d beyond tail %d", before, st.next)
	}
	drop := 0
	for drop < len(st.segs) && len(st.segs[drop].entries) == s.cfg.SegmentEntries &&
		st.segs[drop].base+uint64(s.cfg.SegmentEntries) <= before {
		drop++
	}
	if drop == 0 {
		return nil
	}
	s.retained -= st.retained()
	// Copy the survivors so the dropped segments are not kept reachable
	// through the old backing array.
	st.segs = append([]*segment(nil), st.segs[drop:]...)
	if len(st.segs) > 0 {
		st.trimmed = st.segs[0].base
	} else {
		st.trimmed = st.next // every segment was full and below before
	}
	s.retained += st.retained()
	logRetained.Set(s.retained)
	return nil
}

func (s *Server) handleTail(args TailArgs) (TailReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TailReply{Next: s.streamLocked(args.Stream).next}, nil
}

// Bounds reports a stream's trim point and next offset: the stream holds
// every entry in [trimmed, next) plus its pinned entries below trimmed.
func (s *Server) Bounds(stream string) (trimmed, next uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streamLocked(stream)
	return st.trimmed, st.next
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
	return c.append(false, entries)
}

// AppendPinned is Append for entries that must survive every later Trim:
// a Read from below the trim point still returns them.
func (c *Client) AppendPinned(entries ...[]byte) (uint64, error) {
	return c.append(true, entries)
}

func (c *Client) append(pin bool, entries [][]byte) (uint64, error) {
	var reply AppendReply
	args := AppendArgs{Stream: c.stream, Pin: pin, Entries: entries}
	if err := c.rc.Call(0, "Append", args, &reply, rpc.DefaultCallTimeout); err != nil {
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

// Trim discards the unpinned entries below before, in whole segments. A
// point below an earlier trim is a no-op; one past the tail is an error.
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
