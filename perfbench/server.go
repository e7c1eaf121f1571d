package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// liveServer is a serve.Server behind a real loopback listener with its
// write-ahead log in a directory of its own.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	walDir string
	served chan error
	conns  atomic.Int64 // client connections accepted
}

// startServer starts a fresh server over e with the WAL on. h2c makes the
// listener also accept HTTP/2 without TLS, for the open-loop client.
func startServer(workdir string, e *env, cfg serve.Config, h2c bool) (*liveServer, error) {
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	cfg.Graph = e.g
	cfg.Workers = e.workers
	cfg.Oracle = e.oracle
	cfg.OracleKind = e.kind
	cfg.WALDir = dir
	srv, err := serve.NewServer(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Abort()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	ls := &liveServer{srv: srv, hs: hs, url: "http://" + ln.Addr().String(), walDir: dir, served: make(chan error, 1)}
	hs.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			ls.conns.Add(1)
		}
	}
	if h2c {
		var p http.Protocols
		p.SetHTTP1(true)
		p.SetUnencryptedHTTP2(true)
		hs.Protocols = &p
		// Every request of a rung may be in flight at once; above the
		// stream limit the client would open a second connection.
		hs.HTTP2 = &http.HTTP2Config{MaxConcurrentStreams: 4096}
	}
	go func() { ls.served <- hs.Serve(ln) }()
	return ls, nil
}

// stop drains the server (final checkpoint included), closes the listener
// and removes the WAL directory; it returns once the serving goroutine
// has exited.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if derr := ls.srv.Shutdown(ctx); derr != nil && err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(ls.walDir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// routes reads every worker's live route.
func (ls *liveServer) routes(n int) ([]core.WorkerState, error) {
	out := make([]core.WorkerState, n)
	for i := range out {
		ws, ok := ls.srv.WorkerRoute(core.WorkerID(i))
		if !ok {
			return nil, fmt.Errorf("worker %d has no route", i)
		}
		out[i] = ws
	}
	return out, nil
}

// newClient is the lockstep client: one keep-alive HTTP/1.1 connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// newH2CClient is the open-loop client: every in-flight request
// multiplexed over one HTTP/2 cleartext connection.
func newH2CClient() *http.Client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{
		Protocols:          &p,
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}}
}

// wireRequest is the POST /v1/requests body for r.
func wireRequest(r *core.Request) []byte {
	id := int32(r.ID)
	rel := r.Release
	return mustJSON(serve.Request{
		ID: &id, Origin: int64(r.Origin), Dest: int64(r.Dest),
		Release: &rel, Deadline: r.Deadline, Penalty: r.Penalty, Capacity: r.Capacity,
	})
}

// mustJSON encodes a request body built from plain scalars and slices,
// which cannot fail.
func mustJSON(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return body
}

// postJSON posts body and decodes a 200 or 429 response into out; it
// returns the status code.
func postJSON(c *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode response: %w", err)
	}
	return resp.StatusCode, nil
}

// getStats reads GET /v1/stats.
func getStats(c *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}
