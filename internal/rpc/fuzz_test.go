package rpc_test

import (
	"bytes"
	"encoding"
	"testing"
	"time"

	"bespokv/internal/dlm"
	"bespokv/internal/rpc"
)

// dlmFrames returns real request and response bodies for every DLM method:
// untraced and traced, with and without a deadline budget.
func dlmFrames(tb testing.TB) [][]byte {
	lock, err := dlm.LockArgs{Key: "user:42", Owner: "ctl-s0-r1", Mode: dlm.Write, TTLMs: 2000, WaitMs: 50}.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	unlock, err := dlm.UnlockArgs{Key: "user:42", Owner: "ctl-s0-r1", Mode: dlm.Read}.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	token, err := dlm.LockReply{Token: 1 << 40}.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, tid := range []uint64{0, 0xdeadbeefcafe} {
		for _, budget := range []uint64{0, uint64(10 * time.Second)} {
			out = append(out,
				rpc.EncodeRequest(rpc.Request{ID: 7, Trace: tid, Budget: budget, Method: "Lock", Payload: lock}),
				rpc.EncodeRequest(rpc.Request{ID: 8, Trace: tid, Budget: budget, Method: "Unlock", Payload: unlock}))
		}
	}
	return append(out,
		rpc.EncodeResponse(rpc.Response{ID: 7, Payload: token}),
		rpc.EncodeResponse(rpc.Response{ID: 7, Err: dlm.ErrLockHeld}),
		rpc.EncodeResponse(rpc.Response{ID: 8}),
		lock, unlock, token)
}

// FuzzDecodeFrame feeds arbitrary bytes to the request and response
// envelope decoders and to the DLM payload decoders. None may panic or read
// past its input, and whatever decodes must re-encode to the same fields.
func FuzzDecodeFrame(f *testing.F) {
	for _, b := range dlmFrames(f) {
		f.Add(b)
	}
	f.Add([]byte(`{"id":1,"m":"Lock","a":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := rpc.DecodeRequest(data); err == nil {
			again, err := rpc.DecodeRequest(rpc.EncodeRequest(req))
			if err != nil || again.ID != req.ID || again.Trace != req.Trace || again.Budget != req.Budget ||
				again.Method != req.Method || !bytes.Equal(again.Payload, req.Payload) {
				t.Fatalf("request %+v re-decoded as %+v (%v)", req, again, err)
			}
		}
		if resp, err := rpc.DecodeResponse(data); err == nil {
			again, err := rpc.DecodeResponse(rpc.EncodeResponse(resp))
			if err != nil || again.ID != resp.ID || again.Err != resp.Err || !bytes.Equal(again.Payload, resp.Payload) {
				t.Fatalf("response %+v re-decoded as %+v (%v)", resp, again, err)
			}
		}
		roundTrip(t, data, &dlm.LockArgs{}, &dlm.LockArgs{})
		roundTrip(t, data, &dlm.LockReply{}, &dlm.LockReply{})
		roundTrip(t, data, &dlm.UnlockArgs{}, &dlm.UnlockArgs{})
	})
}

type payload[T any] interface {
	*T
	AppendBinary([]byte) ([]byte, error)
	encoding.BinaryUnmarshaler
}

// roundTrip decodes data into v; if that succeeds, v's encoding must
// decode into again with every field equal.
func roundTrip[T comparable, P payload[T]](t *testing.T, data []byte, v, again P) {
	if v.UnmarshalBinary(data) != nil {
		return
	}
	b, err := v.AppendBinary(nil)
	if err != nil {
		t.Fatalf("%T: encode %+v: %v", v, *v, err)
	}
	if err := again.UnmarshalBinary(b); err != nil || *again != *v {
		t.Fatalf("%T: %+v re-decoded as %+v (%v)", v, *v, *again, err)
	}
}

// TestDLMFramesDecode pins the fuzz seeds: each decodes as the envelope
// and DLM payload it was built as.
func TestDLMFramesDecode(t *testing.T) {
	frames := dlmFrames(t)
	for i, b := range frames[:8] {
		req, err := rpc.DecodeRequest(b)
		if err == nil && req.Method == "Lock" {
			err = new(dlm.LockArgs).UnmarshalBinary(req.Payload)
		} else if err == nil {
			err = new(dlm.UnlockArgs).UnmarshalBinary(req.Payload)
		}
		if err != nil {
			t.Fatalf("seed %d (%s): %v", i, req.Method, err)
		}
	}
	resp, err := rpc.DecodeResponse(frames[8])
	var r dlm.LockReply
	if err != nil || r.UnmarshalBinary(resp.Payload) != nil || r.Token != 1<<40 {
		t.Fatalf("lock response: %+v %v token=%d", resp, err, r.Token)
	}
	if resp, err := rpc.DecodeResponse(frames[9]); err != nil || resp.Err != dlm.ErrLockHeld {
		t.Fatalf("error response: %+v %v", resp, err)
	}
}
