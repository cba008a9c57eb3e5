package rpc

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"sync"
)

// frameVersion is the first byte of every frame body (see the package
// comment for the layout).
const frameVersion byte = 1

const maxFrame = 16 << 20

var (
	errBadFrame      = errors.New("rpc: malformed frame")
	errBadVersion    = errors.New("rpc: unknown frame version")
	errFrameTooLarge = errors.New("rpc: frame too large")
)

// binaryAppender has the method set of the standard library's
// encoding.BinaryAppender. A payload type that implements it together with
// encoding.BinaryUnmarshaler travels in its own binary form; every other
// payload is JSON.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// binaryPayload is the pair a decode target must implement to be decoded
// with UnmarshalBinary; the value form of the same type is what the sender
// encoded with AppendBinary.
type binaryPayload interface {
	binaryAppender
	encoding.BinaryUnmarshaler
}

// appendPayload appends v's encoding to b. A nil v and the empty struct
// encode as nothing.
func appendPayload(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil, struct{}:
		return b, nil
	case binaryAppender:
		return v.AppendBinary(b)
	}
	j, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, j...), nil
}

// decodePayload decodes p into v (a pointer). An empty payload or a nil v
// leaves v untouched.
func decodePayload(p []byte, v any) error {
	if len(p) == 0 || v == nil {
		return nil
	}
	if u, ok := v.(binaryPayload); ok {
		return u.UnmarshalBinary(p)
	}
	return json.Unmarshal(p, v)
}

// request is a decoded request body. method and payload alias the frame.
type request struct {
	id      uint64
	trace   uint64 // trace ID of a sampled request, 0 when untraced
	budget  uint64 // caller's remaining deadline in nanoseconds, 0 = unbounded
	method  []byte
	payload []byte
}

// response is a decoded response body. payload aliases the frame.
type response struct {
	id      uint64
	err     string
	payload []byte
}

// appendRequest appends one complete request frame (length prefix
// included) to b.
func appendRequest(b []byte, id, tid, budget uint64, method string, args any) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, frameVersion)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, tid)
	b = binary.AppendUvarint(b, budget)
	b = appendString(b, method)
	out, err := appendPayload(b, args)
	if err != nil {
		return b[:start], err
	}
	return finishFrame(out, start)
}

// appendResponse appends one complete response frame to b. result is
// encoded only when errMsg is empty.
func appendResponse(b []byte, id uint64, errMsg string, result any) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, frameVersion)
	b = binary.AppendUvarint(b, id)
	b = appendString(b, errMsg)
	if errMsg != "" {
		return finishFrame(b, start)
	}
	out, err := appendPayload(b, result)
	if err != nil {
		return b[:start], err
	}
	return finishFrame(out, start)
}

// finishFrame patches the length prefix of the frame that starts at start.
func finishFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 4
	if n > maxFrame {
		return b[:start], errFrameTooLarge
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodeRequest parses a request body (the frame without its length prefix).
func decodeRequest(body []byte) (request, error) {
	var req request
	b, err := version(body)
	if err == nil {
		req.id, b, err = uvarint(b)
	}
	if err == nil {
		req.trace, b, err = uvarint(b)
	}
	if err == nil {
		req.budget, b, err = uvarint(b)
	}
	if err == nil {
		req.method, b, err = lenPrefixed(b)
	}
	if err != nil {
		return request{}, err
	}
	req.payload = b
	return req, nil
}

// decodeResponse parses a response body.
func decodeResponse(body []byte) (response, error) {
	var resp response
	var msg []byte
	b, err := version(body)
	if err == nil {
		resp.id, b, err = uvarint(b)
	}
	if err == nil {
		msg, b, err = lenPrefixed(b)
	}
	if err != nil {
		return response{}, err
	}
	if len(msg) > 0 {
		if len(b) > 0 {
			return response{}, errBadFrame // an error carries no result
		}
		resp.err = string(msg)
	}
	resp.payload = b
	return resp, nil
}

func version(b []byte) ([]byte, error) {
	if len(b) == 0 || b[0] != frameVersion {
		return nil, errBadVersion
	}
	return b[1:], nil
}

func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errBadFrame
	}
	return v, b[n:], nil
}

func lenPrefixed(b []byte) ([]byte, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, errBadFrame
	}
	return b[:n:n], b[n:], nil
}

// frameReader reads length-prefixed frames from one connection. Each body
// is a fresh buffer: a handler may keep slices of it past the next read.
type frameReader struct {
	r   io.Reader
	hdr [4]byte
}

func (fr *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n > maxFrame {
		return nil, errFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// Outgoing frames are built in pooled buffers and sent with one Write:
// transports that treat each Write as a message quantum (the faultnet
// fault plane drops and duplicates whole Writes) must see whole frames.
// Buffers that grew past maxPooledBuf are left to the collector.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*bp = b[:0]
	bufPool.Put(bp)
}
