package dlm

import (
	"testing"
	"time"
)

// lockUnlock takes and releases one shared lease: the round trip an AA+SC
// controlet makes around every GET.
func lockUnlock(tb testing.TB, c *Client) {
	if _, err := c.Lock("bench-key", Read, time.Second, 0); err != nil {
		tb.Fatal(err)
	}
	if err := c.Unlock("bench-key", Read); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkLockUnlock measures one Lock+Unlock pair over an inproc server,
// client and server in one process.
func BenchmarkLockUnlock(b *testing.B) {
	_, dial := newDLM(b, Config{})
	c := dial("bench")
	lockUnlock(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lockUnlock(b, c)
	}
}

// TestLockUnlockAllocs bounds the allocations of one lease round trip.
// AllocsPerRun counts every malloc in the process, so the bound covers the
// client, the RPC envelope both ways and the server's lease table.
func TestLockUnlockAllocs(t *testing.T) {
	_, dial := newDLM(t, Config{})
	c := dial("allocs")
	lockUnlock(t, c)
	const maxAllocs = 50
	if n := testing.AllocsPerRun(200, func() { lockUnlock(t, c) }); n > maxAllocs {
		t.Fatalf("Lock+Unlock pair: %.1f allocs, want <= %d", n, maxAllocs)
	}
}
