package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ps3/internal/serve"
)

// conn is one keep-alive client connection to the server.
type conn struct {
	c    *http.Client
	tr   *http.Transport
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// post sends a JSON body and decodes a 200 answer into out.
func (c *conn) post(path string, body []byte, out any) error {
	resp, err := c.c.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

func (c *conn) query(sqlText string, budget float64) (*serve.Response, error) {
	body, err := json.Marshal(map[string]any{"sql": sqlText, "budget": budget})
	if err != nil {
		return nil, err
	}
	var r serve.Response
	if err := c.post("/query", body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// appendAck is the POST /append answer.
type appendAck struct {
	Appended        int   `json:"appended"`
	SnapshotVersion int64 `json:"snapshot_version"`
}

func (c *conn) append(body []byte) (appendAck, error) {
	var a appendAck
	err := c.post("/append", body, &a)
	return a, err
}

func (c *conn) ready() (bool, error) {
	resp, err := c.c.Get(c.base + "/readyz")
	if err != nil {
		return false, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// closedLoop runs one worker per connection until dur has passed; each
// sends its next request only after the previous one answered. do returns
// false when the worker should stop early (its inputs ran out).
func closedLoop(conns []*conn, dur time.Duration, do func(c *conn) bool) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && do(c) {
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// clock is the open-loop scheduler's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

// spinBefore is how long before a due time the sender stops sleeping and
// yields in a loop instead: a sleeping Go process that is otherwise idle
// wakes up to a millisecond late, which the open loop would count as
// latency. Yielding lets the server's goroutines run meanwhile.
const spinBefore = time.Millisecond

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// sample is one open-loop request: when it was due, when it was sent and
// when its answer was read.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency is measured from the due time, so a stall also charges the
// requests it delayed.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the sender ran.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

// openLoop sends n requests on a fixed schedule, request i due at
// start + i·interval, over workers connections: a free worker takes the
// next request and waits for its due time, a busy schedule makes requests
// late but never drops them.
func openLoop(clk clock, start time.Time, n int, interval time.Duration, workers int, do func(worker, i int) error) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				sent := clk.Now()
				err := do(w, i)
				out[i] = sample{due: due, sent: sent, done: clk.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
