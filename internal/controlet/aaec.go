package controlet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bespokv/internal/sharedlog"
	"bespokv/internal/trace"
	"bespokv/internal/wire"
)

// errStopped is returned for appends racing a controlet shutdown.
var errStopped = errors.New("controlet: shutting down")

// aaecVersionBase lifts log-derived versions above every Lamport version
// the other modes can issue (wall-clock seconds << 32 stays below 1<<63
// for the next few centuries), so a transition into AA+EC can never lose
// writes to stale pre-transition versions.
const aaecVersionBase = uint64(1) << 63

// logApplier implements AA+EC (§C-C): every write is appended to the
// shared log first; the writer applies it locally and acks, and every
// replica's applier consumes the log in order. Because all replicas apply
// the same totally ordered sequence with offset-derived versions,
// concurrent multi-master writes to the same key converge on every node —
// the conflict case Dynomite gets wrong (§C-C).
//
// The log is trimmed behind every replica: each heartbeat reports the
// applier's (stream, applied) position, the coordinator answers with the
// shard's floor (the minimum over its replicas), and the shard's first
// replica trims there whenever the floor crosses a segment boundary.
type logApplier struct {
	s       *Server
	client  *sharedlog.Client
	reader  *sharedlog.Client
	applied atomic.Uint64 // next offset to apply
	adj     atomic.Uint64 // version-floor adjustment (see floor records)
	appends chan appendReq
	stopCh  chan struct{}

	// mu guards the position the heartbeat reports and the trim floor
	// it brings back.
	mu          sync.Mutex
	stream      string // the stream applied offsets refer to
	position    uint64 // every entry of stream below it is applied
	floorStream string
	floor       uint64
	// lastTrim is the floor of this node's last Trim (applyLoop only).
	lastTrim uint64
}

// appendReq is one write waiting for the group-commit batcher.
type appendReq struct {
	stream string
	data   []byte
	resp   chan appendResult
}

type appendResult struct {
	offset uint64
	err    error
}

func newLogApplier(s *Server) *logApplier {
	return &logApplier{
		s:       s,
		appends: make(chan appendReq, 256),
		stopCh:  make(chan struct{}),
	}
}

func (a *logApplier) start() error {
	c, err := sharedlog.DialClient(a.s.cfg.Network, a.s.cfg.SharedLogAddr)
	if err != nil {
		return err
	}
	a.client = c
	// The applier gets its own connection so long-polls never block
	// appends.
	reader, err := sharedlog.DialClient(a.s.cfg.Network, a.s.cfg.SharedLogAddr)
	if err != nil {
		c.Close()
		return err
	}
	a.reader = reader
	a.s.wg.Add(2)
	go a.applyLoop(reader)
	go a.batchLoop()
	return nil
}

// batchLoop group-commits concurrent appends (CORFU-style): writes that
// arrive within the batching window share one Append RPC, and the log's
// contiguous offset assignment hands each its own offset.
func (a *logApplier) batchLoop() {
	defer a.s.wg.Done()
	const maxBatch = 128
	for {
		var first appendReq
		select {
		case <-a.stopCh:
			return
		case first = <-a.appends:
		}
		batch := []appendReq{first}
	gather:
		for len(batch) < maxBatch {
			select {
			case r := <-a.appends:
				if r.stream != first.stream {
					// Stream changed mid-batch (promotion); flush what
					// we have and let the odd one lead the next batch.
					go func(r appendReq) {
						select {
						case a.appends <- r:
						case <-a.stopCh:
							r.resp <- appendResult{err: errStopped}
						}
					}(r)
					break gather
				}
				batch = append(batch, r)
			default:
				break gather
			}
		}
		datas := make([][]byte, len(batch))
		for i, r := range batch {
			datas[i] = r.data
		}
		firstOff, err := a.client.Stream(first.stream).Append(datas...)
		for i, r := range batch {
			if err != nil {
				r.resp <- appendResult{err: err}
				continue
			}
			r.resp <- appendResult{offset: firstOff + uint64(i)}
		}
	}
}

// append sequences one record through the batcher on the shard's stream.
func (a *logApplier) append(stream string, data []byte) (uint64, error) {
	req := appendReq{stream: stream, data: data, resp: make(chan appendResult, 1)}
	select {
	case a.appends <- req:
	case <-a.stopCh:
		return 0, errStopped
	}
	select {
	case res := <-req.resp:
		return res.offset, res.err
	case <-a.stopCh:
		return 0, errStopped
	}
}

func (a *logApplier) stop() {
	close(a.stopCh)
	if a.client != nil {
		_ = a.client.Close()
	}
	if a.reader != nil {
		_ = a.reader.Close() // abort any in-flight long-poll read
	}
}

func (a *logApplier) applyLoop(reader *sharedlog.Client) {
	defer a.s.wg.Done()
	defer reader.Close()
	next := uint64(0)
	stream := a.s.shardID()
	for {
		select {
		case <-a.stopCh:
			return
		default:
		}
		// A standby promoted into a shard starts following that shard's
		// stream from the beginning (idempotent under LWW versions). The
		// floor adjustment replays with it: floor records are part of the
		// stream, so adj follows the same trajectory on every replay.
		// Replays start at offset 0 even on a trimmed stream: the log
		// serves the pinned floor records below its trim point and then
		// continues from the oldest entry it kept, and the recovery donor
		// supplies the writes trimmed away (see DESIGN.md, Shared log).
		if cur := a.s.shardID(); cur != stream {
			stream = cur
			next = 0
			a.adj.Store(0)
			a.lastTrim = 0
		}
		entries, n, err := reader.Stream(stream).Read(next, 4096, 500*time.Millisecond)
		if err != nil {
			select {
			case <-a.stopCh:
				return
			case <-time.After(50 * time.Millisecond):
				continue
			}
		}
		for _, e := range entries {
			a.applyEntry(e)
		}
		next = n
		a.applied.Store(next)
		a.mu.Lock()
		a.stream, a.position = stream, next
		a.mu.Unlock()
		ctlAAECApplied.Set(int64(next))
		a.maybeTrim()
		if len(entries) > 0 {
			// Pace the long-poll so sustained appends coalesce into
			// batched reads instead of one wake per entry (the paper's
			// "scale the Shared Log setup" concern); costs ≤1ms of EC
			// propagation lag.
			select {
			case <-a.stopCh:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// progress reports the stream the applier follows and the offset below
// which it has applied every entry ("" before its first read).
func (a *logApplier) progress() (stream string, applied uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stream, a.position
}

// setTrimFloor records the trim floor the coordinator returned for stream.
func (a *logApplier) setTrimFloor(stream string, floor uint64) {
	a.mu.Lock()
	a.floorStream, a.floor = stream, floor
	a.mu.Unlock()
}

// trimFloor returns the latest trim floor the coordinator returned.
func (a *logApplier) trimFloor() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.floor
}

// maybeTrim trims the stream to the coordinator's floor when this node is
// the first replica of the floor's shard and the floor has crossed a
// segment boundary since its last trim; a trim that crosses none would
// drop nothing. Every replica has applied everything below the floor, and
// anyone joining later recovers that prefix from a donor, so the trimmed
// entries are never read again.
func (a *logApplier) maybeTrim() {
	a.mu.Lock()
	stream, floor := a.floorStream, a.floor
	a.mu.Unlock()
	const seg = sharedlog.DefaultSegmentEntries
	if floor/seg <= a.lastTrim/seg {
		return
	}
	if shard, pos := a.s.myShard(a.s.Map()); pos != 0 || shard.ID != stream {
		return
	}
	if err := a.client.Stream(stream).Trim(floor); err != nil {
		select {
		case <-a.stopCh:
		default:
			a.s.cfg.Logf("controlet %s: trim %s to %d: %v", a.s.cfg.NodeID, stream, floor, err)
		}
		return
	}
	a.lastTrim = floor
}

func (a *logApplier) applyEntry(e sharedlog.Entry) {
	if len(e.Data) > 0 && e.Data[0] == recFloor {
		a.applyFloor(e)
		return
	}
	rec, err := decodeLogRecord(e.Data)
	if err != nil {
		a.s.cfg.Logf("controlet %s: corrupt log entry at %d: %v", a.s.cfg.NodeID, e.Offset, err)
		return
	}
	adj := a.adj.Load()
	version := aaecVersionBase + adj + e.Offset + 1
	a.s.observeVersion(version)
	if rec.origin == a.s.cfg.NodeID && rec.adj == adj {
		// Already applied synchronously at append time with this exact
		// version. If the adjustments differ, the origin acked with a stale
		// floor and we fall through to reapply at the deterministic version
		// — idempotent under LWW (same value, version >= the stale one).
		return
	}
	if rec.shard != "" && rec.shard != a.s.shardID() {
		return // another shard's stream
	}
	op := wire.OpPut
	if rec.del {
		op = wire.OpDel
	}
	// Log records carry no trace ID: the sampled writer's own apply is
	// traced synchronously at append time; replica applies are untraced.
	if err := a.s.applyLocal(op, rec.table, rec.key, rec.value, version, 0, 0); err != nil {
		a.s.cfg.Logf("controlet %s: apply log entry %d: %v", a.s.cfg.NodeID, e.Offset, err)
	}
}

// applyFloor raises the stream's version-floor adjustment so that every
// subsequent offset-derived version lands strictly above the floor. A
// migration that moves keys into this shard carries versions minted on the
// SOURCE's stream, which can sit far above this stream's current offsets;
// without the floor, post-cutover writes here would silently lose the LWW
// race to migrated history. The record lives in the log itself, so every
// replica (and every future replay from offset 0) computes the identical
// adjustment at the identical point in the sequence.
func (a *logApplier) applyFloor(e sharedlog.Entry) {
	shard, floor, err := decodeFloorRecord(e.Data)
	if err != nil {
		a.s.cfg.Logf("controlet %s: corrupt floor record at %d: %v", a.s.cfg.NodeID, e.Offset, err)
		return
	}
	if shard != "" && shard != a.s.shardID() {
		return
	}
	base := aaecVersionBase + e.Offset + 1
	if floor <= base {
		return
	}
	if cand := floor - base; cand > a.adj.Load() {
		a.adj.Store(cand) // only the applyLoop goroutine writes adj
	}
	a.s.observeVersion(floor)
}

// appendFloor sequences a version-floor record through the shard's stream
// and waits until the local applier has consumed it, so writes acked by
// this node after appendFloor returns carry post-floor versions. The record
// is pinned: it outlives every trim, so a replay from offset 0 still
// rebuilds the same adj.
func (a *logApplier) appendFloor(floor uint64) error {
	shard := a.s.shardID()
	off, err := a.client.Stream(shard).AppendPinned(encodeFloorRecord(shard, floor))
	if err != nil {
		return err
	}
	for a.applied.Load() <= off {
		select {
		case <-a.stopCh:
			return errStopped
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// drain blocks until the applier has consumed everything appended before
// the drain began — the AA+EC side of the transition protocol (§V-B).
func (a *logApplier) drain() {
	target, err := a.client.Stream(a.s.shardID()).Tail()
	if err != nil {
		return
	}
	for a.applied.Load() < target {
		select {
		case <-a.stopCh:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// loggedWrite implements the AA+EC client write path: sequence through the
// shared log, apply locally with the offset-derived version, acknowledge.
func (s *Server) loggedWrite(req *wire.Request, resp *wire.Response) {
	adj := s.aaec.adj.Load()
	rec := logRecord{
		origin: s.cfg.NodeID,
		shard:  s.shardID(),
		adj:    adj,
		del:    req.Op == wire.OpDel,
		table:  req.Table,
		key:    req.Key,
		value:  req.Value,
	}
	start := time.Now()
	offset, err := s.aaec.append(rec.shard, encodeLogRecord(rec))
	dur := time.Since(start)
	ctlLogAppendLat.Observe(dur)
	if req.TraceID != 0 {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		trace.Record(req.TraceID, s.cfg.NodeID, "log.append", start, dur, errStr)
	}
	if err != nil {
		resp.Status = wire.StatusUnavailable
		resp.Err = "sharedlog: " + err.Error()
		return
	}
	version := aaecVersionBase + adj + offset + 1
	s.observeVersion(version)
	op := wire.OpPut
	if rec.del {
		op = wire.OpDel
	}
	if err := s.applyLocal(op, req.Table, req.Key, req.Value, version, req.TraceID, req.DeadlineAt); err != nil {
		// The record is already sequenced — every replica's applier will
		// land it regardless — so a failure here (including a spent
		// deadline) only means the client is not told "acked": the
		// outcome is indeterminate, like any unacknowledged write.
		failWrite(resp, err)
		return
	}
	s.mirrorWrite(rec.del, req.Table, req.Key, req.Value, version)
	resp.Status = wire.StatusOK
	resp.Version = version
}

// logRecord is the payload sequenced through the shared log. The shard tag
// makes one physical log carry every shard's stream, Tango-style: each
// applier consumes the total order but applies only its own shard's
// entries.
type logRecord struct {
	origin string
	shard  string
	adj    uint64 // floor adjustment the origin used for its synchronous apply
	del    bool
	table  string
	key    []byte
	value  []byte
}

// recFloor tags a version-floor record (see applyFloor); 0/1 tag ordinary
// put/del records.
const recFloor = 2

func encodeLogRecord(r logRecord) []byte {
	out := make([]byte, 0, 30+len(r.origin)+len(r.shard)+len(r.table)+len(r.key)+len(r.value))
	if r.del {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = appendBytes(out, []byte(r.origin))
	out = appendBytes(out, []byte(r.shard))
	out = binary.AppendUvarint(out, r.adj)
	out = appendBytes(out, []byte(r.table))
	out = appendBytes(out, r.key)
	out = appendBytes(out, r.value)
	return out
}

func decodeLogRecord(b []byte) (logRecord, error) {
	var r logRecord
	if len(b) < 1 {
		return r, fmt.Errorf("short record")
	}
	r.del = b[0] == 1
	b = b[1:]
	var f []byte
	var err error
	if f, b, err = takeBytes(b); err != nil {
		return r, err
	}
	r.origin = string(f)
	if f, b, err = takeBytes(b); err != nil {
		return r, err
	}
	r.shard = string(f)
	adj, w := binary.Uvarint(b)
	if w <= 0 {
		return r, fmt.Errorf("corrupt field")
	}
	r.adj = adj
	b = b[w:]
	if f, b, err = takeBytes(b); err != nil {
		return r, err
	}
	r.table = string(f)
	if r.key, b, err = takeBytes(b); err != nil {
		return r, err
	}
	if r.value, _, err = takeBytes(b); err != nil {
		return r, err
	}
	return r, nil
}

func encodeFloorRecord(shard string, floor uint64) []byte {
	out := make([]byte, 0, 12+len(shard))
	out = append(out, recFloor)
	out = appendBytes(out, []byte(shard))
	out = binary.AppendUvarint(out, floor)
	return out
}

func decodeFloorRecord(b []byte) (shard string, floor uint64, err error) {
	if len(b) < 1 || b[0] != recFloor {
		return "", 0, fmt.Errorf("not a floor record")
	}
	f, rest, err := takeBytes(b[1:])
	if err != nil {
		return "", 0, err
	}
	floor, w := binary.Uvarint(rest)
	if w <= 0 {
		return "", 0, fmt.Errorf("corrupt floor")
	}
	return string(f), floor, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func takeBytes(b []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("corrupt field")
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}
