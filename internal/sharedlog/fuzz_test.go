package sharedlog

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"reflect"
	"testing"
)

// logPayloads returns one real payload per shared-log method and per
// replicated command: the Append request (plain and pinned) and reply, the
// Read request and reply, and the logCmd forms of a pinned append and a
// trim.
func logPayloads(tb testing.TB) [][]byte {
	values := []interface{ AppendBinary([]byte) ([]byte, error) }{
		AppendArgs{Stream: "shard-0", Entries: [][]byte{[]byte("put k v"), {}, []byte("del k")}},
		AppendArgs{Stream: "shard-1", Pin: true, Entries: [][]byte{{2, 7, 's', 'h', 'a', 'r', 'd', '-', '1', 0x80, 0x01}}},
		AppendReply{First: 4095, Next: 4098},
		ReadArgs{Stream: "shard-0", From: 1 << 20, Max: 4096, WaitMs: 500},
		ReadReply{Next: 8195, Entries: []Entry{{Offset: 17, Data: []byte("floor")}, {Offset: 8192, Data: []byte("a")}, {Offset: 8194}}},
		logCmd{Op: opAppend, Stream: "shard-0", Pin: true, Entries: [][]byte{[]byte("floor")}},
		logCmd{Op: opTrim, Stream: "shard-0", Before: 8192},
	}
	out := make([][]byte, len(values))
	for i, v := range values {
		b, err := v.AppendBinary(nil)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// FuzzLogPayloads feeds arbitrary bytes to the four shared-log payload
// decoders and the replicated-command decoder. None may panic or read
// past its input; whatever decodes must re-encode and decode to the same
// fields; and every strict prefix of a valid payload, and the payload
// with its entry count raised past what the bytes hold, must be rejected.
func FuzzLogPayloads(f *testing.F) {
	for _, b := range logPayloads(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPayload(t, data, func() decodable { return &AppendArgs{} })
		checkPayload(t, data, func() decodable { return &AppendReply{} })
		checkPayload(t, data, func() decodable { return &ReadArgs{} })
		checkPayload(t, data, func() decodable { return &ReadReply{} })
		checkPayload(t, data, func() decodable { return &logCmd{} })
	})
}

type decodable interface {
	AppendBinary([]byte) ([]byte, error)
	encoding.BinaryUnmarshaler
}

// checkPayload runs the round-trip, truncation and count checks for one
// decoder (newV returns a fresh decode target).
func checkPayload(t *testing.T, data []byte, newV func() decodable) {
	// A copy whose capacity ends at its length: decoded fields alias it,
	// and nothing decoded may reach past it.
	in := append([]byte(nil), data...)[:len(data):len(data)]
	v := newV()
	if v.UnmarshalBinary(in) != nil {
		return
	}
	for _, b := range aliasedBytes(v) {
		if len(b) > 0 && !within(b, in) {
			t.Fatalf("%T: decoded field %q does not alias the input", v, b)
		}
	}
	enc, err := v.AppendBinary(nil)
	if err != nil {
		t.Fatalf("%T: re-encode: %v", v, err)
	}
	again := newV()
	if err := again.UnmarshalBinary(enc); err != nil {
		t.Fatalf("%T: re-encoding %x of %+v does not decode: %v", v, enc, v, err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("%T: %+v re-decoded as %+v", v, v, again)
	}
	for n := 0; n < len(enc); n++ {
		if newV().UnmarshalBinary(enc[:n:n]) == nil {
			t.Fatalf("%T: %d-byte prefix of %x decodes", v, n, enc)
		}
	}
	if inflated, ok := inflateCount(v); ok {
		if newV().UnmarshalBinary(inflated) == nil {
			t.Fatalf("%T: count past the payload %x decodes", v, inflated)
		}
	}
}

// aliasedBytes lists the byte fields a decode returns.
func aliasedBytes(v decodable) [][]byte {
	switch v := v.(type) {
	case *AppendArgs:
		return v.Entries
	case *logCmd:
		return v.Entries
	case *ReadReply:
		out := make([][]byte, len(v.Entries))
		for i, e := range v.Entries {
			out[i] = e.Data
		}
		return out
	}
	return nil
}

// within reports whether b's memory, capacity included, lies inside in.
func within(b, in []byte) bool {
	for i := range in {
		if &in[i] == &b[0] {
			return cap(b) <= len(in)-i
		}
	}
	return false
}

// inflateCount re-encodes v with its entry count one higher than the
// entries that follow — a payload whose declared count the bytes cannot
// hold.
func inflateCount(v decodable) ([]byte, bool) {
	var b []byte
	switch v := v.(type) {
	case *AppendArgs:
		b = appendFlag(appendString(nil, v.Stream), v.Pin)
		b = binary.AppendUvarint(b, uint64(len(v.Entries)+1))
		for _, e := range v.Entries {
			b = appendBytes(b, e)
		}
	case *ReadReply:
		b = binary.AppendUvarint(nil, v.Next)
		b = binary.AppendUvarint(b, uint64(len(v.Entries)+1))
		for _, e := range v.Entries {
			b = appendBytes(binary.AppendUvarint(b, e.Offset), e.Data)
		}
	case *logCmd:
		if v.Op != opAppend {
			return nil, false
		}
		b = appendFlag(appendString([]byte{byte(opAppend)}, v.Stream), v.Pin)
		b = binary.AppendUvarint(b, uint64(len(v.Entries)+1))
		for _, e := range v.Entries {
			b = appendBytes(b, e)
		}
	default:
		return nil, false
	}
	return b, true
}

// TestOversizedCountRejectedBeforeAllocation checks that a huge declared
// count fails on the size check, not by allocating room for it.
func TestOversizedCountRejectedBeforeAllocation(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, payload := range map[string][]byte{
		"append": append(appendFlag(appendString(nil, "s"), false), huge...),
		"read":   append(binary.AppendUvarint(nil, 7), huge...),
		"cmd":    append(appendFlag(appendString([]byte{byte(opAppend)}, "s"), true), huge...),
	} {
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			switch name {
			case "append":
				err = new(AppendArgs).UnmarshalBinary(payload)
			case "read":
				err = new(ReadReply).UnmarshalBinary(payload)
			case "cmd":
				err = new(logCmd).UnmarshalBinary(payload)
			}
		})
		if err == nil {
			t.Fatalf("%s: count 1<<40 in %d bytes decodes", name, len(payload))
		}
		if allocs > 1 {
			t.Fatalf("%s: rejecting the count cost %.0f allocations", name, allocs)
		}
	}
}

// TestLogPayloadsRoundTrip decodes every seed payload and checks the
// fields survive a re-encode exactly as sent.
func TestLogPayloadsRoundTrip(t *testing.T) {
	seeds := logPayloads(t)
	targets := []decodable{&AppendArgs{}, &AppendArgs{}, &AppendReply{}, &ReadArgs{}, &ReadReply{}, &logCmd{}, &logCmd{}}
	for i, b := range seeds {
		v := targets[i]
		if err := v.UnmarshalBinary(b); err != nil {
			t.Fatalf("seed %d (%T): %v", i, v, err)
		}
		enc, _ := v.AppendBinary(nil)
		if !bytes.Equal(enc, b) {
			t.Fatalf("seed %d (%T) re-encodes as %x, want %x", i, v, enc, b)
		}
	}
}
