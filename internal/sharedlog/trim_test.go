package sharedlog

import (
	"fmt"
	"testing"
	"time"
)

// eachLog runs fn against a standalone log and against a three-member
// replicated log, both with seg-entry segments, so the trim protocol is
// checked on both the direct path and the RSM apply path.
func eachLog(t *testing.T, seg int, fn func(t *testing.T, c *Client)) {
	t.Run("standalone", func(t *testing.T) {
		_, c := newLog(t, Config{SegmentEntries: seg})
		fn(t, c)
	})
	t.Run("replicated", func(t *testing.T) {
		g := newSegLogGroup(t, 3, seg)
		g.waitLeader()
		fn(t, g.client())
	})
}

// appendOne appends one entry, pinned or not, retrying through leadership
// churn, and checks it landed at want.
func appendOne(t *testing.T, c *Client, pin bool, want uint64) {
	t.Helper()
	data := []byte(fmt.Sprintf("e%d", want))
	deadline := time.Now().Add(5 * time.Second)
	for {
		var off uint64
		var err error
		if pin {
			off, err = c.AppendPinned(data)
		} else {
			off, err = c.Append(data)
		}
		if err == nil {
			if off != want {
				t.Fatalf("appended at %d, want %d", off, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("append %d never sequenced: %v", want, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// readOffsets reads from `from` and returns the offsets served (checking
// each entry's payload) and the reply's next offset.
func readOffsets(t *testing.T, c *Client, from uint64, max int) ([]uint64, uint64) {
	t.Helper()
	entries, next, err := c.Read(from, max, 0)
	if err != nil {
		t.Fatalf("read from %d: %v", from, err)
	}
	offs := make([]uint64, len(entries))
	for i, e := range entries {
		if want := fmt.Sprintf("e%d", e.Offset); string(e.Data) != want {
			t.Fatalf("entry at %d holds %q, want %q", e.Offset, e.Data, want)
		}
		offs[i] = e.Offset
	}
	return offs, next
}

// wantRead checks what a read from `from` returns. A replicated member
// serves reads from its applied state, which may trail the last commit
// (after a leader change, say), so the read is retried briefly.
func wantRead(t *testing.T, c *Client, from uint64, max int, want []uint64, wantNext uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, next := readOffsets(t, c, from, max)
		if fmt.Sprint(got) == fmt.Sprint(want) && next == wantNext {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Read(%d, %d) = %v next %d, want %v next %d", from, max, got, next, want, wantNext)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTrimKeepsPinnedEntries pins the trim contract: pinned entries survive
// Trim, a read from below the floor returns them and then the entries from
// the floor on (paging through them with small Max), a lower, mid-segment
// or partial-segment trim drops nothing, and a trim past the tail errors.
func TestTrimKeepsPinnedEntries(t *testing.T) {
	eachLog(t, 4, func(t *testing.T, c *Client) {
		for off := uint64(0); off < 12; off++ {
			appendOne(t, c, off == 2 || off == 6, off)
		}
		if err := c.Trim(8); err != nil {
			t.Fatal(err)
		}
		wantRead(t, c, 0, 100, []uint64{2, 6, 8, 9, 10, 11}, 12)
		wantRead(t, c, 3, 100, []uint64{6, 8, 9, 10, 11}, 12)
		wantRead(t, c, 0, 1, []uint64{2}, 6)
		wantRead(t, c, 6, 1, []uint64{6}, 8)
		wantRead(t, c, 7, 2, []uint64{8, 9}, 10)

		// A lower trim is a no-op, and so is one inside the oldest
		// retained segment: only whole segments go.
		if err := c.Trim(4); err != nil {
			t.Fatalf("lower trim: %v", err)
		}
		if err := c.Trim(10); err != nil {
			t.Fatalf("mid-segment trim: %v", err)
		}
		wantRead(t, c, 0, 100, []uint64{2, 6, 8, 9, 10, 11}, 12)

		if err := c.Trim(100); err == nil {
			t.Fatal("trim beyond tail must error")
		}

		// Trimming everything leaves the pinned records and an empty
		// stream that keeps appending at the tail.
		if err := c.Trim(12); err != nil {
			t.Fatal(err)
		}
		wantRead(t, c, 0, 100, []uint64{2, 6}, 12)
		appendOne(t, c, true, 12)
		appendOne(t, c, false, 13)
		wantRead(t, c, 0, 100, []uint64{2, 6, 12, 13}, 14)
		wantRead(t, c, 9, 100, []uint64{12, 13}, 14)

		// A trim to the tail keeps the partial last segment: segments
		// stay aligned to multiples of SegmentEntries.
		if err := c.Trim(14); err != nil {
			t.Fatal(err)
		}
		wantRead(t, c, 0, 100, []uint64{2, 6, 12, 13}, 14)
	})
}

// TestSnapshotKeepsPinnedEntries checks the replicated log's checkpoint
// image: a member restored from it serves the same reads — pinned records
// below the floor included — and keeps appending on full segments.
func TestSnapshotKeepsPinnedEntries(t *testing.T) {
	src, c := newLog(t, Config{SegmentEntries: 4})
	for off := uint64(0); off < 11; off++ {
		appendOne(t, c, off == 1 || off == 9, off)
	}
	if err := c.Trim(8); err != nil {
		t.Fatal(err)
	}
	dst, dc := newLog(t, Config{SegmentEntries: 4})
	logSM{dst}.Restore(logSM{src}.Snapshot())
	for _, from := range []uint64{0, 2, 8, 9, 10} {
		want, wantNext := readOffsets(t, c, from, 100)
		wantRead(t, dc, from, 100, want, wantNext)
	}
	if lo, hi := dst.Bounds(""); lo != 8 || hi != 11 {
		t.Fatalf("restored bounds [%d, %d), want [8, 11)", lo, hi)
	}
	for off := uint64(11); off < 14; off++ {
		appendOne(t, dc, false, off)
	}
	wantRead(t, dc, 0, 100, []uint64{1, 8, 9, 10, 11, 12, 13}, 14)
	if err := dc.Trim(12); err != nil {
		t.Fatal(err)
	}
	wantRead(t, dc, 0, 100, []uint64{1, 9, 12, 13}, 14)
}

// TestRetainedGauge checks bespokv_sharedlog_retained_entries: it counts
// the segment entries plus the pinned entries below the trim point.
func TestRetainedGauge(t *testing.T) {
	_, c := newLog(t, Config{SegmentEntries: 4})
	for off := uint64(0); off < 10; off++ {
		appendOne(t, c, off == 5, off)
	}
	if got := logRetained.Value(); got != 10 {
		t.Fatalf("retained before trim = %d, want 10", got)
	}
	if err := c.Trim(8); err != nil {
		t.Fatal(err)
	}
	if got := logRetained.Value(); got != 3 {
		t.Fatalf("retained after trim = %d, want 3 (entries 8, 9 and pinned 5)", got)
	}
}

// TestReadBelowFloorLongPolls checks that a reader below a fully trimmed
// stream is moved to the floor and then waits there for new entries.
func TestReadBelowFloorLongPolls(t *testing.T) {
	_, c := newLog(t, Config{SegmentEntries: 2})
	for off := uint64(0); off < 4; off++ {
		appendOne(t, c, false, off)
	}
	if err := c.Trim(4); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	entries, next, err := c.Read(1, 10, 60*time.Millisecond)
	if err != nil || len(entries) != 0 || next != 4 {
		t.Fatalf("read below an empty floor: %d entries next=%d err=%v", len(entries), next, err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("returned before the poll window")
	}
}
