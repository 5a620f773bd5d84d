package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
)

// A single-node Server is a coordinator with one in-process Worker: an
// ordinary Worker — same poll loop, same journal-before-ack and digests as
// a remote one — whose HTTP client calls the coordinator's /fabric/*
// handlers in memory (localTransport), whose cells each hold a slot of the
// Server's limiter (so /run and cells share -concurrency) under the
// Server's watchdog, which prepares programs in the Server's cache, and
// which keeps its checkpoints on the Server's disk instead of shipping
// them.

// newLocalWorker builds the in-process worker, checkpointing into snapDir.
func (s *Server) newLocalWorker(snapDir string) (*Worker, error) {
	w, err := NewWorker(WorkerOptions{
		Coordinator: "http://in-process", // never dialled
		ID:          "local",
		Concurrency: s.cfg.Concurrency,
		SnapshotDir: snapDir,
		// Drain's context bounds the grace instead: when it expires the
		// Server cancels baseCtx, which parents every cell.
		DrainGrace: math.MaxInt64,
		Client:     &http.Client{Transport: localTransport{s.fabric}},
		Disk:       s.cfg.Disk,
	})
	if err != nil {
		return nil, err
	}
	w.prep, w.lim, w.wd, w.local, w.base = s.prep, s.admit.lim, s.wd, true, s.baseCtx
	return w, nil
}

// localTransport is an http.RoundTripper that serves each request with h
// in the calling goroutine: no socket, and the request's context reaches
// the handler, so cancelling a held poll ends it.
type localTransport struct{ h http.Handler }

func (t localTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	rec := &localResponse{header: make(http.Header), status: http.StatusOK}
	// The mux records its routing on the request it serves, and a
	// RoundTripper must not modify the caller's: serve a shallow copy.
	t.h.ServeHTTP(rec, req.WithContext(req.Context()))
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: rec.status, Header: rec.header, Request: req,
		Body: io.NopCloser(&rec.body), ContentLength: int64(rec.body.Len())}, nil
}

// localResponse is the http.ResponseWriter localTransport hands handlers.
// The handlers it serves set a status at most once, before any body.
type localResponse struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *localResponse) Header() http.Header         { return r.header }
func (r *localResponse) WriteHeader(code int)        { r.status = code }
func (r *localResponse) Write(b []byte) (int, error) { return r.body.Write(b) }
