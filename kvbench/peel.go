package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"time"

	"bespokv/internal/datalet"
	"bespokv/internal/dlm"
	"bespokv/internal/sharedlog"
	"bespokv/internal/store"
	"bespokv/internal/store/faultfs"
	"bespokv/internal/store/ht"
	"bespokv/internal/topology"
	"bespokv/internal/transport"
	"bespokv/internal/wire"
	"bespokv/internal/workload"
)

// Peel span layers beyond the ledger's: the datalet no-op round trip, and
// the two halves of a DLM lease and of the codec.
const (
	lNop       = "datalet.nop"
	lDLMLock   = "dlm.lock"
	lDLMUnlock = "dlm.unlock"
	lWireEnc   = "wire.encode"
	lWireDec   = "wire.decode"
)

// peelStats holds phase B's unloaded samples: layer -> op kind -> latency.
type peelStats map[string]*[2][]time.Duration

func (p peelStats) add(layer string, k workload.Kind, d time.Duration) {
	s := p[layer]
	if s == nil {
		s = new([2][]time.Duration)
		p[layer] = s
	}
	s[k] = append(s[k], d)
}

// p50 of one layer for one kind, or of both kinds merged when both is set.
func (p peelStats) p50(layer string, k workload.Kind, both bool) pct {
	s := p[layer]
	if s == nil {
		return pct{}
	}
	d := append([]time.Duration(nil), s[k]...)
	if both {
		d = append(d, s[1-k]...)
	}
	return percentile(sortDurations(d), 0.5)
}

// peeler replays one caller's generated op stream, unloaded, into the
// public entry point of every layer in turn: the client library, the
// target controlet's data port, that node's datalet (plus a no-op), and
// bench-owned DLM and shared-log clients, a transport echo, the binary
// codec and an engine of the workload's kind.
type peeler struct {
	w        spec
	d        *deployment
	chk      *checker
	shard    topology.Shard
	pools    map[string]*datalet.Pool
	lock     *dlm.Client
	log      *sharedlog.Client // a private stream
	echo     transport.Listener
	echoConn transport.Conn
	echoDone chan struct{} // closed when the echo server has returned
	engine   store.Engine
	// clock is the cost of the timing itself (one time.Now pair),
	// subtracted from every peel span so sub-microsecond layers read true.
	clock time.Duration
	stats peelStats
	spans []span
}

func newPeeler(w spec, d *deployment, chk *checker, seed int64) (*peeler, error) {
	p := &peeler{w: w, d: d, chk: chk, pools: map[string]*datalet.Pool{}, stats: peelStats{}}
	m := d.clients[0].Map()
	if m == nil || len(m.Shards) != 1 {
		return nil, fmt.Errorf("peel: want a one-shard map")
	}
	p.shard = m.Shards[0]
	for _, n := range p.shard.Replicas {
		for _, addr := range []string{n.ControletAddr, n.DataletAddr} {
			pool, err := datalet.DialPool(d.c.Net, addr, d.c.Codec, 1)
			if err != nil {
				p.close()
				return nil, fmt.Errorf("peel: dial %s: %w", addr, err)
			}
			p.pools[addr] = pool
		}
	}
	var err error
	if w.usesDLM() {
		if p.lock, err = dlm.DialClient(d.c.Net, d.c.DLM.Addr(), "kvbench-peel"); err != nil {
			p.close()
			return nil, fmt.Errorf("peel: dial dlm: %w", err)
		}
	}
	if w.usesLog() {
		lc, err := sharedlog.DialClient(d.c.Net, d.c.Log.Addr())
		if err != nil {
			p.close()
			return nil, fmt.Errorf("peel: dial shared log: %w", err)
		}
		p.log = lc.Stream("kvbench-peel")
	}
	if err := p.startEcho(); err != nil {
		p.close()
		return nil, err
	}
	if w.durable {
		p.engine, err = ht.Open(ht.Options{Dir: "peel", FS: faultfs.New(seed)})
	} else {
		p.engine = ht.New()
	}
	if err != nil {
		p.close()
		return nil, fmt.Errorf("peel: open engine: %w", err)
	}
	for i := 0; i < w.keys; i++ {
		if _, err := p.engine.Put(keyBytes(i), chk.expected(i), 0); err != nil {
			p.close()
			return nil, fmt.Errorf("peel: preload engine: %w", err)
		}
	}
	p.clock = clockCost()
	return p, nil
}

func (p *peeler) close() {
	for _, pool := range p.pools {
		_ = pool.Close()
	}
	if p.lock != nil {
		_ = p.lock.Close()
	}
	if p.log != nil {
		_ = p.log.Close()
	}
	if p.echoConn != nil {
		_ = p.echoConn.Close()
	}
	if p.echo != nil {
		_ = p.echo.Close()
		<-p.echoDone
	}
	if p.engine != nil {
		_ = p.engine.Close()
	}
}

// clockCost is the median cost of one time.Now pair.
func clockCost() time.Duration {
	d := make([]time.Duration, 2001)
	for i := range d {
		t0 := time.Now()
		d[i] = time.Since(t0)
	}
	return percentile(sortDurations(d), 0.5).Value
}

// startEcho serves a bench-owned echo on the cluster's transport. A frame
// is [request length][reply length][request bytes]; the reply is that many
// bytes back, so one round trip moves a request- and a response-sized
// frame exactly as a datalet call does, minus decoding and dispatch.
func (p *peeler) startEcho() error {
	l, err := p.d.c.Net.Listen("")
	if err != nil {
		return fmt.Errorf("peel: echo listen: %w", err)
	}
	p.echo = l
	p.echoDone = make(chan struct{})
	go func() {
		defer close(p.echoDone)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [8]byte
		buf := make([]byte, 64<<10)
		for {
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			n, m := binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:])
			if _, err := io.ReadFull(conn, buf[:n]); err != nil {
				return
			}
			if _, err := conn.Write(buf[:m]); err != nil {
				return
			}
		}
	}()
	p.echoConn, err = p.d.c.Net.Dial(l.Addr())
	if err != nil {
		return fmt.Errorf("peel: echo dial: %w", err)
	}
	return nil
}

// target picks the node the controlet path would use for an op: the chain
// tail for an MS+SC GET, the head for MS writes, any replica under AA.
func (p *peeler) target(k workload.Kind, i int) topology.Node {
	if p.w.mode.Topology == topology.AA {
		return p.shard.Replicas[i%len(p.shard.Replicas)]
	}
	if k == workload.Get && p.w.mode.Consistency == topology.Strong {
		return p.shard.ReadTail()
	}
	return p.shard.Head()
}

// timed runs fn and records its span under parent, net of the clock cost.
func (p *peeler) timed(layer string, k workload.Kind, id, parent uint64, fn func() error) error {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0) - p.clock
	p.stats.add(layer, k, d)
	p.spans = append(p.spans, span{ID: id, Parent: parent, Phase: 'B', Layer: layer, Kind: k, Start: t0, Dur: d})
	return err
}

// call sends req to addr and maps a non-OK status to an error.
func (p *peeler) call(addr string, req *wire.Request, resp *wire.Response) error {
	resp.Reset()
	if err := p.pools[addr].Do(req, resp); err != nil {
		return err
	}
	switch resp.Status {
	case wire.StatusOK, wire.StatusNotFound:
		return nil
	}
	return fmt.Errorf("%s: %s %s", addr, resp.Status, resp.Err)
}

// wireAllocs measures heap allocations per encode+decode of one request
// and one response in the binary codec.
func wireAllocs(req *wire.Request, resp *wire.Response) (float64, error) {
	const n = 2000
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	br := bufio.NewReader(nil)
	rd := bytes.NewReader(nil)
	var dreq wire.Request
	var dresp wire.Response
	codec := wire.BinaryCodec{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		buf.Reset()
		bw.Reset(&buf)
		if err := codec.WriteRequest(bw, req); err != nil {
			return 0, err
		}
		if err := codec.WriteResponse(bw, resp); err != nil {
			return 0, err
		}
		rd.Reset(buf.Bytes())
		br.Reset(rd)
		if err := codec.ReadRequest(br, &dreq); err != nil {
			return 0, err
		}
		if err := codec.ReadResponse(br, &dresp); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}

// peelResult is phase B's output.
type peelResult struct {
	Stats      peelStats
	Spans      []span
	WireAllocs float64
}

// run replays ops from gen until d passes. Every op is sent to each layer
// in call order. A failing call aborts the peel; every value read goes to
// the checker.
func (p *peeler) run(gen *workload.Generator, d time.Duration) (peelResult, error) {
	cl := p.d.clients[0]
	codec := wire.BinaryCodec{}
	var req, dreq wire.Request
	var resp, dresp wire.Response
	var wbuf bytes.Buffer
	bw := bufio.NewWriter(&wbuf)
	br := bufio.NewReader(nil)
	rd := bytes.NewReader(nil)
	echoBuf := make([]byte, 64<<10)
	var allocs float64
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		op := gen.Next()
		k := op.Kind
		// Span ids are unique within a phase; an op's layer spans take
		// the low four bits of its client span's id.
		id := uint64(i+1) << 4
		node := p.target(k, i)

		// client.Client
		err := p.timed(lClient, k, id, 0, func() error {
			if k == workload.Put {
				return cl.Put("", op.Key, op.Value)
			}
			v, found, err := cl.Get("", op.Key)
			if err == nil {
				p.chk.observe(op.Key, v, found)
			}
			return err
		})
		if err != nil {
			return peelResult{}, fmt.Errorf("peel client: %w", err)
		}

		// The controlet's data port, with the request the client sends.
		req.Reset()
		req.Table, req.Key = "", op.Key
		req.Op = wire.OpGet
		if k == workload.Put {
			req.Op, req.Value = wire.OpPut, op.Value
		}
		if err := p.timed(lControlet, k, id|1, id, func() error { return p.call(node.ControletAddr, &req, &resp) }); err != nil {
			return peelResult{}, fmt.Errorf("peel controlet: %w", err)
		}
		if k == workload.Get {
			p.chk.observe(op.Key, resp.Value, resp.Status == wire.StatusOK)
		}

		// The same request straight to that node's datalet. A write
		// carries the key's current version, so it lands without moving
		// the replica's version clock ahead of its peers.
		if k == workload.Put {
			req.Op = wire.OpGet
			if err := p.call(node.DataletAddr, &req, &resp); err != nil {
				return peelResult{}, fmt.Errorf("peel datalet version: %w", err)
			}
			req.Op, req.Version = wire.OpPut, resp.Version
		}
		if err := p.timed(lDatalet, k, id|2, id, func() error { return p.call(node.DataletAddr, &req, &resp) }); err != nil {
			return peelResult{}, fmt.Errorf("peel datalet: %w", err)
		}
		if k == workload.Get {
			p.chk.observe(op.Key, resp.Value, resp.Status == wire.StatusOK)
		}
		nop := wire.Request{Op: wire.OpNop}
		var nopResp wire.Response
		if err := p.timed(lNop, k, id|3, id, func() error { return p.call(node.DataletAddr, &nop, &nopResp) }); err != nil {
			return peelResult{}, fmt.Errorf("peel datalet nop: %w", err)
		}

		if p.lock != nil {
			mode := dlm.Read
			if k == workload.Put {
				mode = dlm.Write
			}
			lockKey := "kvbench-peel\x00" + string(op.Key)
			if err := p.timed(lDLMLock, k, id|4, id, func() error {
				_, err := p.lock.Lock(lockKey, mode, time.Second, time.Second)
				return err
			}); err != nil {
				return peelResult{}, fmt.Errorf("peel dlm lock: %w", err)
			}
			if err := p.timed(lDLMUnlock, k, id|5, id, func() error { return p.lock.Unlock(lockKey, mode) }); err != nil {
				return peelResult{}, fmt.Errorf("peel dlm unlock: %w", err)
			}
		}
		if p.log != nil && k == workload.Put {
			entry := append(append(make([]byte, 0, len(op.Key)+len(op.Value)), op.Key...), op.Value...)
			if err := p.timed(lLog, k, id|6, id, func() error {
				_, err := p.log.Append(entry)
				return err
			}); err != nil {
				return peelResult{}, fmt.Errorf("peel shared log: %w", err)
			}
		}

		// The codec: encode and decode the request and the response this
		// op exchanged with the datalet. Their sizes size the echo frames.
		wbuf.Reset()
		bw.Reset(&wbuf)
		var reqLen int
		if err := p.timed(lWireEnc, k, id|7, id, func() error {
			if err := codec.WriteRequest(bw, &req); err != nil {
				return err
			}
			reqLen = wbuf.Len()
			return codec.WriteResponse(bw, &resp)
		}); err != nil {
			return peelResult{}, fmt.Errorf("peel wire encode: %w", err)
		}
		respLen := wbuf.Len() - reqLen
		rd.Reset(wbuf.Bytes())
		br.Reset(rd)
		if err := p.timed(lWireDec, k, id|8, id, func() error {
			if err := codec.ReadRequest(br, &dreq); err != nil {
				return err
			}
			return codec.ReadResponse(br, &dresp)
		}); err != nil {
			return peelResult{}, fmt.Errorf("peel wire decode: %w", err)
		}
		if i == 0 {
			if allocs, err = wireAllocs(&req, &resp); err != nil {
				return peelResult{}, fmt.Errorf("peel wire allocs: %w", err)
			}
		}

		if err := p.timed(lTransport, k, id|9, id, func() error {
			binary.LittleEndian.PutUint32(echoBuf[:4], uint32(reqLen))
			binary.LittleEndian.PutUint32(echoBuf[4:8], uint32(respLen))
			if _, err := p.echoConn.Write(echoBuf[:8+reqLen]); err != nil {
				return err
			}
			_, err := io.ReadFull(p.echoConn, echoBuf[:respLen])
			return err
		}); err != nil {
			return peelResult{}, fmt.Errorf("peel transport: %w", err)
		}

		if err := p.timed(lStore, k, id|10, id, func() error {
			if k == workload.Put {
				_, err := p.engine.Put(op.Key, op.Value, 0)
				return err
			}
			_, _, _, err := p.engine.Get(op.Key)
			return err
		}); err != nil {
			return peelResult{}, fmt.Errorf("peel store: %w", err)
		}
	}
	return peelResult{Stats: p.stats, Spans: p.spans, WireAllocs: allocs}, nil
}

// ledgerInput gathers the p50s the ledger needs for one op kind.
func (r peelResult) ledgerInput(w spec, k workload.Kind) peelP50 {
	us := func(layer string) float64 { return float64(r.Stats.p50(layer, k, false).Value) / 1e3 }
	p := peelP50{
		Client:    us(lClient),
		Controlet: us(lControlet),
		Datalet:   us(lDatalet),
		Transport: us(lTransport),
		Wire:      us(lWireEnc) + us(lWireDec),
		Store:     us(lStore),
		UsesDLM:   w.usesDLM(),
		UsesLog:   w.usesLog() && k == workload.Put,
	}
	if p.UsesDLM {
		p.DLM = us(lDLMLock) + us(lDLMUnlock)
	}
	if p.UsesLog {
		p.Log = us(lLog)
	}
	return p
}
