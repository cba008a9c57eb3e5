package sharedlog

import (
	"encoding/binary"
	"errors"
	"math"
)

// Append and Read carry every AA+EC write, so their payloads travel in
// binary: AppendArgs, AppendReply, ReadArgs and ReadReply implement the
// standard library's encoding.BinaryAppender / encoding.BinaryUnmarshaler
// pair, which the rpc layer uses instead of JSON. Strings and byte fields
// are uvarint-length prefixed, integers are uvarints, flags are one byte,
// and a payload must be consumed exactly.
//
// Decoded byte fields alias the input. The rpc layer reads every frame
// into a fresh buffer it never reuses, so a decoded batch costs one
// allocation for the frame, not one per entry.

// AppendBinary appends the binary form of a: stream | pin | count | entries.
func (a AppendArgs) AppendBinary(b []byte) ([]byte, error) {
	b = appendString(b, a.Stream)
	return appendEntries(appendFlag(b, a.Pin), a.Entries), nil
}

// UnmarshalBinary decodes the form AppendBinary writes.
func (a *AppendArgs) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	a.Stream, a.Pin = d.string(), d.flag()
	a.Entries = d.entries()
	return d.done()
}

// AppendBinary appends the binary form of r: first | next.
func (r AppendReply) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, r.First)
	return binary.AppendUvarint(b, r.Next), nil
}

// UnmarshalBinary decodes the form AppendBinary writes.
func (r *AppendReply) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	r.First, r.Next = d.uvarint(), d.uvarint()
	return d.done()
}

// AppendBinary appends the binary form of a: stream | from | max | wait.
// A negative Max or WaitMs means the same as zero and is sent as zero.
func (a ReadArgs) AppendBinary(b []byte) ([]byte, error) {
	b = appendString(b, a.Stream)
	b = binary.AppendUvarint(b, a.From)
	b = binary.AppendUvarint(b, uint64(max(a.Max, 0)))
	return binary.AppendUvarint(b, uint64(max(a.WaitMs, 0))), nil
}

// UnmarshalBinary decodes the form AppendBinary writes.
func (a *ReadArgs) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	a.Stream, a.From = d.string(), d.uvarint()
	a.Max, a.WaitMs = d.int(), d.int()
	return d.done()
}

// AppendBinary appends the binary form of r: next | count | (offset, data)...
func (r ReadReply) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, r.Next)
	b = binary.AppendUvarint(b, uint64(len(r.Entries)))
	for _, e := range r.Entries {
		b = binary.AppendUvarint(b, e.Offset)
		b = appendBytes(b, e.Data)
	}
	return b, nil
}

// UnmarshalBinary decodes the form AppendBinary writes.
func (r *ReadReply) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	r.Next = d.uvarint()
	r.Entries = nil
	if n := d.count(2); n > 0 {
		r.Entries = make([]Entry, n)
		for i := range r.Entries {
			r.Entries[i] = Entry{Offset: d.uvarint(), Data: d.bytes()}
		}
	}
	return d.done()
}

// logOp tags a replicated log command.
type logOp byte

const (
	opAppend logOp = 1
	opTrim   logOp = 2
)

// logCmd is one replicated log entry: an appended batch (the sequencer
// counter advances exactly by its length, in commit order, identically on
// every member) or a trim. Its binary form is op | stream, then
// pin | count | entries for an append or before for a trim.
type logCmd struct {
	Op      logOp
	Stream  string
	Pin     bool
	Entries [][]byte
	Before  uint64
}

// AppendBinary appends the binary form of c.
func (c logCmd) AppendBinary(b []byte) ([]byte, error) {
	b = appendString(append(b, byte(c.Op)), c.Stream)
	switch c.Op {
	case opAppend:
		return appendEntries(appendFlag(b, c.Pin), c.Entries), nil
	case opTrim:
		return binary.AppendUvarint(b, c.Before), nil
	}
	return b, errBadPayload
}

// UnmarshalBinary decodes the form AppendBinary writes.
func (c *logCmd) UnmarshalBinary(data []byte) error {
	*c = logCmd{}
	if len(data) == 0 {
		return errBadPayload
	}
	d := decoder{b: data[1:]}
	c.Op, c.Stream = logOp(data[0]), d.string()
	switch c.Op {
	case opAppend:
		c.Pin = d.flag()
		c.Entries = d.entries()
	case opTrim:
		c.Before = d.uvarint()
	default:
		return errBadPayload
	}
	return d.done()
}

// encodedSize bounds the binary size of a batch of entries.
func encodedSize(entries [][]byte) int {
	n := 2 * binary.MaxVarintLen64
	for _, e := range entries {
		n += binary.MaxVarintLen64 + len(e)
	}
	return n
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendFlag(b []byte, f bool) []byte {
	if f {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendEntries(b []byte, entries [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendBytes(b, e)
	}
	return b
}

var errBadPayload = errors.New("sharedlog: malformed payload")

// decoder reads a payload front to back; the first short or malformed
// field sets err and every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() { d.err, d.b = errBadPayload, nil }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a uvarint that must fit a non-negative int32, the range of
// the counts and millisecond waits it carries.
func (d *decoder) int() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail()
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed field. The result's capacity ends at its
// length, so appending to it can never overwrite the next field.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) string() string { return string(d.bytes()) }

func (d *decoder) flag() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail()
		return false
	}
	f := d.b[0] == 1
	d.b = d.b[1:]
	return f
}

// count reads an element count and rejects one that the remaining bytes
// cannot hold at minSize bytes per element, before anything is allocated.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/minSize) {
		d.fail()
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// entries reads a count-prefixed list of byte fields; an empty list
// decodes as nil.
func (d *decoder) entries() [][]byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = d.bytes()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = errBadPayload
	}
	return d.err
}
