package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"bespokv/internal/client"
)

// checker knows the one well-formed value every key can hold. The
// workload generator writes key i's value as 'A'+i%26 followed by the
// fixed pattern 'a'+j%26, so preload and every generated PUT store the same
// bytes for a key, and any GET can be checked exactly. After the
// post-load sentinel write, a sampled key may instead hold its sentinel.
type checker struct {
	keys      int
	valueSize int
	seed      int64
	// sentinel marks keys whose sentinel has been written; nil before.
	sentinel map[int]bool
	// bad counts values that failed the check; it is never folded into
	// the error fraction, any bad value fails the run.
	bad     atomic.Int64
	example atomic.Value // first bad value, as a string
}

func newChecker(w spec, seed int64) *checker {
	return &checker{keys: w.keys, valueSize: w.valueSize, seed: seed}
}

// expected renders key i's well-formed value.
func (c *checker) expected(i int) []byte {
	v := make([]byte, c.valueSize)
	for j := range v {
		v[j] = byte('a' + j%26)
	}
	v[0] = byte('A' + i%26)
	return v
}

// sentinelValue renders key i's post-load sentinel: same size as a
// normal value but starting with '#', so it can never be mistaken for
// one, and distinct per seed and key.
func (c *checker) sentinelValue(i int) []byte {
	v := make([]byte, c.valueSize)
	x := uint64(c.seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	const hex = "0123456789abcdef"
	for j := range v {
		v[j] = hex[(x>>(4*(j%16)))&0xf]
	}
	v[0] = '#'
	return v
}

// keyIndex parses a generated key ("k" + zero-padded decimal).
func keyIndex(key []byte) (int, error) {
	if len(key) < 2 || key[0] != 'k' {
		return 0, fmt.Errorf("malformed key %q", key)
	}
	n := 0
	for _, b := range key[1:] {
		if b < '0' || b > '9' {
			return 0, fmt.Errorf("malformed key %q", key)
		}
		n = n*10 + int(b-'0')
	}
	return n, nil
}

// valid reports whether a GET of key that returned (v, found) is correct:
// the key exists (the keyspace is fully preloaded and never deleted from)
// and v is its well-formed value, or its sentinel once that was written.
func (c *checker) valid(key, v []byte, found bool) bool {
	i, err := keyIndex(key)
	if err != nil || !found || i >= c.keys {
		return false
	}
	if bytes.Equal(v, c.expected(i)) {
		return true
	}
	return c.sentinel[i] && bytes.Equal(v, c.sentinelValue(i))
}

// observe checks one GET result and counts a failure.
func (c *checker) observe(key, v []byte, found bool) {
	if c.valid(key, v, found) {
		return
	}
	if c.bad.Add(1) == 1 {
		c.example.Store(fmt.Sprintf("key %q found=%v value %q", key, found, v))
	}
}

// failure describes the check's outcome; nil means every value was valid.
func (c *checker) failure() error {
	n := c.bad.Load()
	if n == 0 {
		return nil
	}
	ex, _ := c.example.Load().(string)
	return fmt.Errorf("%d malformed or missing values (first: %s)", n, ex)
}

// sentinelKeys is how many keys the post-load gate rewrites and reads.
const sentinelKeys = 200

// converge bounds how long an eventually consistent workload may take to
// show a sentinel on every replica a read can land on.
const converge = 5 * time.Second

// sentinelGate writes a fresh sentinel to a seeded sample of keys after
// load has stopped, then reads every one back. Strongly consistent modes
// must return it on the first read; eventual ones are polled until
// converge passes. Any mismatch is returned as an error.
func (c *checker) sentinelGate(cl *client.Client, eventual bool) error {
	r := rand.New(rand.NewSource(c.seed ^ 0x5e17))
	keys := r.Perm(c.keys)[:sentinelKeys]
	c.sentinel = make(map[int]bool, len(keys))
	for _, i := range keys {
		c.sentinel[i] = true
	}
	for _, i := range keys {
		if err := cl.Put("", keyBytes(i), c.sentinelValue(i)); err != nil {
			return fmt.Errorf("sentinel put: %w", err)
		}
	}
	deadline := time.Now().Add(converge)
	for _, i := range keys {
		for {
			v, found, err := cl.Get("", keyBytes(i))
			if err != nil {
				return fmt.Errorf("sentinel get: %w", err)
			}
			if found && bytes.Equal(v, c.sentinelValue(i)) {
				break
			}
			if !eventual || time.Now().After(deadline) {
				return fmt.Errorf("sentinel: key %d read %q (found=%v), want its sentinel", i, v, found)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
