package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bespokv/internal/client"
	"bespokv/internal/cluster"
	"bespokv/internal/datalet"
	"bespokv/internal/topology"
	"bespokv/internal/wire"
	"bespokv/internal/workload"
)

// spec is one named workload. Every workload runs 1 shard × 3 replicas on
// the in-process transport with the binary codec and failover disabled,
// over a keyspace that is fully preloaded and fixed in size, so stored
// bytes never grow with throughput. README.md gives the reason for each.
type spec struct {
	name      string
	mode      topology.Mode
	durable   bool
	keys      int
	valueSize int
	mix       workload.Mix
	zipfian   bool
}

const keySize = 16

var workloads = []spec{
	{
		name:      "read-mostly-mssc",
		mode:      topology.Mode{Topology: topology.MS, Consistency: topology.Strong},
		keys:      100_000,
		valueSize: 32,
		mix:       workload.ReadMostly,
		zipfian:   true,
	},
	{
		name:      "locked-update-aasc",
		mode:      topology.Mode{Topology: topology.AA, Consistency: topology.Strong},
		keys:      100_000,
		valueSize: 32,
		mix:       workload.UpdateIntensive,
	},
	{
		name:      "durable-ingest-aaec",
		mode:      topology.Mode{Topology: topology.AA, Consistency: topology.Eventual},
		durable:   true,
		keys:      100_000,
		valueSize: 256,
		mix:       workload.Monitoring,
	},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// usesDLM reports whether the mode takes DLM leases on the op path.
func (w spec) usesDLM() bool {
	return w.mode.Topology == topology.AA && w.mode.Consistency == topology.Strong
}

// usesLog reports whether writes are sequenced through the shared log.
func (w spec) usesLog() bool {
	return w.mode.Topology == topology.AA && w.mode.Consistency == topology.Eventual
}

// usesChain reports whether writes travel an MS+SC chain.
func (w spec) usesChain() bool {
	return w.mode.Topology == topology.MS && w.mode.Consistency == topology.Strong
}

// generator returns caller c's op stream for seed.
func (w spec) generator(seed int64, c int) (*workload.Generator, error) {
	var dist workload.KeyDist = workload.Uniform{Keys: w.keys}
	if w.zipfian {
		dist = workload.NewZipfian(w.keys)
	}
	return workload.NewGenerator(workload.Options{
		Dist:      dist,
		Mix:       w.mix,
		KeySize:   keySize,
		ValueSize: w.valueSize,
		Seed:      workload.SplitRand(seed, c),
	})
}

// callers is the closed loop's client count: one per core of the 2-vCPU
// machine the benchmark was built on, as in the paper's YCSB client.
const callers = 2

// deployment is one started cluster with the benchmark's clients.
type deployment struct {
	c       *cluster.Cluster
	clients []*client.Client
}

func (d *deployment) close() {
	for _, cl := range d.clients {
		_ = cl.Close()
	}
	d.c.Close()
}

// preloadBatch is the number of pairs per OpMPut frame while preloading.
const preloadBatch = 512

// deploy starts the workload's cluster, preloads it and opens one client
// per caller (PoolSize 1).
func deploy(w spec, seed int64, chk *checker) (*deployment, error) {
	c, err := cluster.Start(cluster.Options{
		NetworkName:     "inproc",
		Shards:          1,
		Replicas:        3,
		Mode:            w.mode,
		Engine:          "ht",
		CodecName:       "binary",
		Durable:         w.durable,
		Seed:            seed,
		DisableFailover: true,
	})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	d := &deployment{c: c}
	if err := preload(c, chk); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < callers; i++ {
		cl, err := c.ClientConfig(client.Config{PoolSize: 1})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("open client: %w", err)
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

// preload writes every key's well-formed value straight into each
// replica's datalet as batched OpMPut frames, all at LWW version 1. Every
// replica then holds the same data at the same version, exactly as if each
// key had been written once through the mode's protocol, but without
// paying AA+SC's per-key lease or AA+EC's per-key log append 100k times in
// every set-up. Protocol writes carry versions >= 1, so they supersede it.
func preload(c *cluster.Cluster, chk *checker) error {
	errc := make(chan error, len(c.Shards[0]))
	var wg sync.WaitGroup
	for _, p := range c.Shards[0] {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			errc <- preloadDatalet(c, addr, chk)
		}(p.Datalet.Addr())
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	return nil
}

func preloadDatalet(c *cluster.Cluster, addr string, chk *checker) error {
	pool, err := datalet.DialPool(c.Net, addr, c.Codec, 1)
	if err != nil {
		return fmt.Errorf("preload: dial %s: %w", addr, err)
	}
	defer pool.Close()
	req := wire.Request{Op: wire.OpMPut}
	var resp wire.Response
	for lo := 0; lo < chk.keys; lo += preloadBatch {
		req.Pairs = req.Pairs[:0]
		for i := lo; i < lo+preloadBatch && i < chk.keys; i++ {
			req.Pairs = append(req.Pairs, wire.KV{Key: keyBytes(i), Value: chk.expected(i), Version: 1})
		}
		resp.Reset()
		if err := pool.Do(&req, &resp); err != nil {
			return fmt.Errorf("preload %s: %w", addr, err)
		}
		if err := resp.ErrValue(); err != nil {
			return fmt.Errorf("preload %s: %w", addr, err)
		}
		for i, st := range resp.Statuses {
			if st != wire.StatusOK {
				return fmt.Errorf("preload %s: key %q: %s", addr, req.Pairs[i].Key, st)
			}
		}
	}
	return nil
}

// warmUp runs the closed loop unmeasured so connection pools, caches and
// the Go runtime settle before the timed window starts.
const warmUp = 500 * time.Millisecond

// keyBytes renders key index i as the generator does.
func keyBytes(i int) []byte { return workload.Key(keySize, i) }

// setUp deploys the workload and warms it up, returning the deployment
// with one generator per caller positioned after the warm-up ops.
func setUp(w spec, seed int64, chk *checker) (*deployment, []*workload.Generator, error) {
	d, err := deploy(w, seed, chk)
	if err != nil {
		return nil, nil, err
	}
	gens := make([]*workload.Generator, callers)
	for i := range gens {
		if gens[i], err = w.generator(seed, i); err != nil {
			d.close()
			return nil, nil, err
		}
	}
	if r := runLoop(d.clients, gens, chk, warmUp, 1, false); r.Failed > 0 {
		d.close()
		return nil, nil, fmt.Errorf("warm-up: %d of %d ops failed", r.Failed, r.Attempted)
	}
	return d, gens, nil
}
