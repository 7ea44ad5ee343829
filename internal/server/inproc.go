package server

import (
	"bytes"
	"io"
	"net/http"
	"sync"
)

// InProcessExec is a Doer that dispatches requests straight into a
// Server's handler tree — the full wire path (JSON encode, routing,
// admission, cache, typed errors, JSON decode) without a TCP listener.
// The oracle's wire-level pass and the in-process load harness use it
// so differential checks exercise exactly the code a remote client
// would, minus the socket.
type InProcessExec struct {
	S *Server
}

// Do implements Doer over ServeHTTP.
//
//aggvet:ctxflow Doer mirrors http.Client.Do: the request carries its own context.
func (e *InProcessExec) Do(req *http.Request) (*http.Response, error) {
	rec := &responseRecorder{code: http.StatusOK, header: http.Header{}}
	e.S.Handler().ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode:    rec.code,
		Status:        http.StatusText(rec.code),
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// responseRecorder is a minimal in-memory http.ResponseWriter.
type responseRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  sync.Once
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	r.wrote.Do(func() { r.code = code })
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wrote.Do(func() {})
	return r.body.Write(p)
}
