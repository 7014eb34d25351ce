package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"ps3/internal/core"
	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/serve"
	"ps3/internal/store"
)

// Set-up stages, in order. setup_s is their sum up to the first servable
// request; the traced run reports each as a per-layer metric.
var setupStages = []string{"dataset.gen_s", "stats.build_s", "core.examples_s", "picker.train_s", "store.write_s", "core.cold_start_s"}

// cpuStages are the set-up stages that only compute. They are timed as the
// CPU time the process spent in them, which a busy neighbour on a shared
// host moves far less than wall time; the stages that write, open and start
// a server are timed by the wall clock.
var cpuStages = map[string]bool{"dataset.gen_s": true, "stats.build_s": true, "core.examples_s": true, "picker.train_s": true}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// env is one set-up: the offline phase of Fig 1 run from the seed, then a
// server cold-started from what it wrote, listening on loopback.
type env struct {
	dir     string
	ds      *dataset.Dataset // the generated data; dropped before measuring
	reader  *store.Reader
	sys     *core.System
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	baseURL string

	storeBytes int64              // encoded store file size
	stages     map[string]float64 // seconds per set-up stage
	total      float64            // their sum: from the seed to the first servable request

	// swapMu serializes every Swap the benchmark makes and keeps versions
	// mapped to the system each one installed.
	swapMu   sync.Mutex
	versions map[int64]*core.System
	swapNs   []int64 // durations of the swaps that published a flush
}

// setup runs the offline phase and starts the server. The filesystem seam
// and the partition source go through the tracer's wrappers, which are
// pass-throughs until tracing or counting is switched on.
func setup(w workload, seed int64, dir string, tr *tracer, fs *tracedFS) (*env, error) {
	e := &env{dir: dir, stages: map[string]float64{}, versions: map[int64]*core.System{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	last, lastCPU := time.Now(), cpuTime()
	stage := func(name string) {
		now, cpu := time.Now(), cpuTime()
		d := now.Sub(last)
		if cpuStages[name] {
			d = cpu - lastCPU
		}
		e.stages[name] = d.Seconds()
		e.total += d.Seconds()
		tr.add(name, 0, 0, int64(last.Sub(tr.epoch)), int64(now.Sub(tr.epoch)))
		last, lastCPU = now, cpu
	}

	ds, err := dataset.ByName(w.dataset, dataset.Config{Rows: w.rows, Parts: w.parts, Seed: seed})
	if err != nil {
		return nil, err
	}
	e.ds = ds
	stage("dataset.gen_s")

	trained, err := core.New(ds.Table, core.Options{Workload: ds.Workload, Seed: seed})
	if err != nil {
		return nil, err
	}
	stage("stats.build_s")

	gen, err := query.NewGenerator(ds.Workload, ds.Table, seed+1)
	if err != nil {
		return nil, err
	}
	train := gen.SampleN(trainQueries)
	examples, err := trained.MakeExamples(train)
	if err != nil {
		return nil, err
	}
	stage("core.examples_s")

	if err := trained.Train(train, examples); err != nil {
		return nil, err
	}
	stage("picker.train_s")

	storePath := filepath.Join(dir, "table.ps3")
	n, err := store.WriteFileFS(fs, storePath, ds.Table, store.WriteOptions{Hints: store.HintsFromStats(trained.Stats)})
	if err != nil {
		return nil, fmt.Errorf("write store: %w", err)
	}
	e.storeBytes = n
	snapPath := filepath.Join(dir, "system.snap")
	if err := writeSnapshot(snapPath, trained); err != nil {
		return nil, err
	}
	stage("store.write_s")

	cacheBytes := int64(0)
	if w.cacheDiv > 0 {
		cacheBytes = n / int64(w.cacheDiv)
	}
	if err := e.coldStart(storePath, snapPath, cacheBytes, tr, fs); err != nil {
		e.close()
		return nil, err
	}
	stage("core.cold_start_s")
	return e, nil
}

func writeSnapshot(path string, sys *core.System) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := sys.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("write snapshot: %w", err)
	}
	return f.Close()
}

// coldStart opens the store and snapshot the way ps3serve does, with its
// default serving configuration, and waits until /readyz answers.
func (e *env) coldStart(storePath, snapPath string, cacheBytes int64, tr *tracer, fs *tracedFS) error {
	r, err := store.OpenFS(fs, storePath, store.Options{CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	e.reader = r
	sf, err := os.Open(snapPath)
	if err != nil {
		return err
	}
	sys, err := core.OpenSnapshot(sf, newTracedSource(r, tr))
	sf.Close()
	if err != nil {
		return err
	}
	e.sys = sys
	e.versions[1] = sys
	// ps3serve's defaults: -budget 0.05 and every other serve.Config field
	// left zero. Requests carry the workload's budget explicitly.
	srv, err := serve.New(sys, serve.Config{DefaultBudget: 0.05})
	if err != nil {
		return err
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.baseURL = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()

	c := newConn(e.baseURL)
	defer c.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready, err := c.ready()
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// publish installs a snapshot an ingest flush published and keeps the time
// Swap took.
func (e *env) publish(sys *core.System) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	return e.swapLocked(sys, true)
}

// swapLocked installs sys on the server and records the version it got.
func (e *env) swapLocked(sys *core.System, published bool) error {
	start := time.Now()
	if err := e.srv.Swap(sys); err != nil {
		return err
	}
	if published {
		e.swapNs = append(e.swapNs, int64(time.Since(start)))
	}
	e.versions[e.srv.SnapshotVersion()] = sys
	return nil
}

// reswap swaps the serving system onto itself, which empties the server's
// compiled-query and pick caches. Reading the system under the swap lock
// keeps a flush published meanwhile from being swapped back out.
func (e *env) reswap() error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	return e.swapLocked(e.srv.System(), false)
}

// swapMs returns the durations in milliseconds of the swaps that have
// published a flush so far. Background flushes may still be publishing.
func (e *env) swapMs() []float64 {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	out := make([]float64, len(e.swapNs))
	for i, ns := range e.swapNs {
		out[i] = float64(ns) / 1e6
	}
	return out
}

func (e *env) system(version int64) *core.System {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	return e.versions[version]
}

// close stops the server and releases the store. It waits for the serving
// goroutine to exit.
func (e *env) close() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.hs.Shutdown(ctx) // a drain timeout only leaves idle keep-alives to close
		cancel()
		if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		e.hs = nil
	}
	if e.reader != nil {
		_ = e.reader.Close() // read-only handle
		e.reader = nil
	}
}
