package rpc

// Hooks for the external fuzz test (package rpc_test), which also imports
// payload packages such as internal/dlm that themselves import rpc.

// Request is a decoded request envelope.
type Request struct {
	ID, Trace, Budget uint64
	Method            string
	Payload           []byte
}

// Response is a decoded response envelope.
type Response struct {
	ID      uint64
	Err     string
	Payload []byte
}

// rawPayload is a payload already in its wire form.
type rawPayload []byte

func (p rawPayload) AppendBinary(b []byte) ([]byte, error) { return append(b, p...), nil }

// EncodeRequest returns the body (the frame without its length prefix) of r.
func EncodeRequest(r Request) []byte {
	f, err := appendRequest(nil, r.ID, r.Trace, r.Budget, r.Method, rawPayload(r.Payload))
	if err != nil {
		panic(err)
	}
	return f[4:]
}

func DecodeRequest(body []byte) (Request, error) {
	req, err := decodeRequest(body)
	return Request{req.id, req.trace, req.budget, string(req.method), req.payload}, err
}

// EncodeResponse returns the body of r.
func EncodeResponse(r Response) []byte {
	f, err := appendResponse(nil, r.ID, r.Err, rawPayload(r.Payload))
	if err != nil {
		panic(err)
	}
	return f[4:]
}

func DecodeResponse(body []byte) (Response, error) {
	resp, err := decodeResponse(body)
	return Response{resp.id, resp.err, resp.payload}, err
}
