package sharedlog

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bespokv/internal/transport"
)

func newLog(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	net, err := transport.Lookup("inproc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = net
	s, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialClient(net, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestAppendAssignsContiguousOffsets(t *testing.T) {
	_, c := newLog(t, Config{})
	first, err := c.Append([]byte("a"), []byte("b"), []byte("c"))
	if err != nil || first != 0 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	second, err := c.Append([]byte("d"))
	if err != nil || second != 3 {
		t.Fatalf("second=%d err=%v", second, err)
	}
	next, err := c.Tail()
	if err != nil || next != 4 {
		t.Fatalf("tail=%d err=%v", next, err)
	}
}

func TestReadInOrder(t *testing.T) {
	_, c := newLog(t, Config{})
	for i := 0; i < 10; i++ {
		if _, err := c.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, next, err := c.Read(0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 || next != 10 {
		t.Fatalf("got %d entries, next=%d", len(entries), next)
	}
	for i, e := range entries {
		if e.Offset != uint64(i) || e.Data[0] != byte(i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestReadMax(t *testing.T) {
	_, c := newLog(t, Config{})
	for i := 0; i < 10; i++ {
		c.Append([]byte{byte(i)})
	}
	entries, next, err := c.Read(3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || next != 7 || entries[0].Offset != 3 {
		t.Fatalf("entries=%d next=%d first=%d", len(entries), next, entries[0].Offset)
	}
}

func TestReadSpansSegments(t *testing.T) {
	_, c := newLog(t, Config{SegmentEntries: 4})
	for i := 0; i < 20; i++ {
		c.Append([]byte{byte(i)})
	}
	entries, next, err := c.Read(2, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 18 || next != 20 {
		t.Fatalf("entries=%d next=%d", len(entries), next)
	}
	for i, e := range entries {
		if e.Offset != uint64(i+2) {
			t.Fatalf("entry %d offset=%d", i, e.Offset)
		}
	}
}

func TestLongPollWakesOnAppend(t *testing.T) {
	s, c := newLog(t, Config{})
	done := make(chan []Entry, 1)
	go func() {
		entries, _, err := c.Read(0, 10, 5*time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- entries
	}()
	time.Sleep(30 * time.Millisecond)
	net, _ := transport.Lookup("inproc")
	c2, err := DialClient(net, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Append([]byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case entries := <-done:
		if len(entries) != 1 || string(entries[0].Data) != "wake" {
			t.Fatalf("got %+v", entries)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}
}

func TestLongPollTimesOutEmpty(t *testing.T) {
	_, c := newLog(t, Config{})
	start := time.Now()
	entries, next, err := c.Read(0, 10, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || next != 0 {
		t.Fatalf("entries=%d next=%d", len(entries), next)
	}
	if time.Since(start) < 60*time.Millisecond {
		t.Fatal("returned before the poll window")
	}
}

func TestTrim(t *testing.T) {
	_, c := newLog(t, Config{SegmentEntries: 4})
	for i := 0; i < 12; i++ {
		c.Append([]byte{byte(i)})
	}
	if err := c.Trim(8); err != nil {
		t.Fatal(err)
	}
	// A read from inside the dropped segments continues at the trim
	// floor: nothing below it survives (no entry was pinned).
	entries, next, err := c.Read(0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || entries[0].Offset != 8 || next != 12 {
		t.Fatalf("read from 0 after trim: %+v, next=%d", entries, next)
	}
	// Offsets at/after the trim floor still work.
	entries, _, err = c.Read(8, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || entries[0].Offset != 8 {
		t.Fatalf("entries=%d first=%d", len(entries), entries[0].Offset)
	}
	// Trimming past the tail errors.
	if err := c.Trim(100); err == nil {
		t.Fatal("trim beyond tail must error")
	}
}

func TestEmptyAppendRejected(t *testing.T) {
	_, c := newLog(t, Config{})
	if _, err := c.Append(); err == nil {
		t.Fatal("empty append must error")
	}
}

func TestConcurrentAppendersGetDistinctOffsets(t *testing.T) {
	s, _ := newLog(t, Config{})
	net, _ := transport.Lookup("inproc")
	const workers = 8
	const perWorker = 100
	offsets := make(chan uint64, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialClient(net, s.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				off, err := c.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					return
				}
				offsets <- off
			}
		}(w)
	}
	wg.Wait()
	close(offsets)
	seen := map[uint64]bool{}
	n := 0
	for off := range offsets {
		if seen[off] {
			t.Fatalf("duplicate offset %d", off)
		}
		seen[off] = true
		n++
	}
	if n != workers*perWorker {
		t.Fatalf("lost appends: %d", n)
	}
}
