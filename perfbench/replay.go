package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"ps3/internal/cluster"
	"ps3/internal/query"
	"ps3/internal/sql"
	"ps3/internal/store"
)

// The traced run replays the first replayN requests of the open-loop
// sequence one at a time, on the snapshot the query rounds measured: right
// after them, before the append phase, or halfway through the mixed phase
// on a mixed workload, with its appends going on. It runs an untraced pass,
// a traced pass, and the pair again in reverse order. Caches are as the
// measured run had them: where texts never repeat, or flushes swap the
// snapshot many times a second (the mixed workload), every pass starts by
// swapping the serving system onto itself, which empties the
// compiled-query and pick caches, so a replayed text is not a hit it was
// not in the measured run; hot-scan's templates stay cached, as they were.
// Untraced and traced passes go through the same handler; only span
// recording differs, so their difference is the tracing overhead.

// tracedHandler serves every request with serve's own handler inside one
// serve.http span. The spans inside it are laid in afterwards from the
// response (see pass).
func (r *run) tracedHandler() http.Handler {
	tr, inner := r.tr, r.e.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, on := tr.req.Load(), tr.spansOn.Load()
		start := tr.now()
		inner.ServeHTTP(w, req)
		if !on {
			return
		}
		// This runs before the server flushes the response, so the client
		// reads the span only after it is recorded.
		end := tr.now()
		tr.httpSpan.Store(tr.add("serve.http", id, unresolved, start, end))
		tr.httpEnd.Store(end)
	})
}

// passResult is what one pass measured.
type passResult struct {
	queryNs []int64 // client round trip per query
	reqs    []int64 // request id per query
	latMs   []float64
	scanMs  []float64
	queries int
	kmeans  cluster.KMeansStats
	picks   int
}

// replay runs the untraced and traced passes and derives the per-layer
// metrics that need spans.
func (r *run) replay() error {
	texts := r.tf.open[:replayN]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: r.tracedHandler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // idle keep-alives only
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: replay server:", err)
		}
	}()
	c := newConn("http://" + ln.Addr().String())
	defer c.close()

	var untraced, traced []passResult
	// Store, encoding, filesystem and kernel counters over the traced
	// passes only.
	var cache store.CacheStats
	var lazy, kern int64
	var fsd [numClasses][numOps][3]int64
	// Both kinds of pass count filesystem operations, so they differ only
	// in span recording.
	defer r.tr.countOn.Store(r.tr.countOn.Load())
	r.tr.countOn.Store(true)
	nextReq := int64(1 << 20)
	// Untraced, traced, traced, untraced: a drift over the replay (the
	// table grows on the mixed workload) weighs on both kinds alike.
	for _, on := range []bool{false, true, true, false} {
		if !on {
			res, err := r.pass(c, texts, false, &nextReq)
			if err != nil {
				return err
			}
			untraced = append(untraced, res)
			continue
		}
		cs0, es0, k0 := r.e.reader.CacheStats(), r.e.reader.EncodingStats(), query.EncodedKernelEvals()
		fs0 := r.fs.snapshot()
		r.tr.spansOn.Store(true)
		res, err := r.pass(c, texts, true, &nextReq)
		r.tr.spansOn.Store(false)
		fs1 := r.fs.snapshot()
		if err != nil {
			return err
		}
		traced = append(traced, res)
		cs1, es1 := r.e.reader.CacheStats(), r.e.reader.EncodingStats()
		kern += query.EncodedKernelEvals() - k0
		lazy += es1.LazyDecodeBytes - es0.LazyDecodeBytes
		cache.Hits += cs1.Hits - cs0.Hits
		cache.Misses += cs1.Misses - cs0.Misses
		cache.Evictions += cs1.Evictions - cs0.Evictions
		cache.LoadedBytes += cs1.LoadedBytes - cs0.LoadedBytes
		for c := range fsd {
			for o := range fsd[c] {
				for k := range fsd[c][o] {
					fsd[c][o][k] += fs1[c][o][k] - fs0[c][o][k]
				}
			}
		}
	}

	var sumU, sumT int64
	var queries, picks int
	var km cluster.KMeansStats
	var scanMs []float64
	tracedReq := map[int64]int64{} // request → client round trip
	latMs := map[int64]float64{}
	for i := range traced {
		for _, ns := range untraced[i].queryNs {
			sumU += ns
		}
		for j, ns := range traced[i].queryNs {
			sumT += ns
			tracedReq[traced[i].reqs[j]] = ns
			latMs[traced[i].reqs[j]] = traced[i].latMs[j]
		}
		queries += traced[i].queries
		picks += traced[i].picks
		km.Iterations += traced[i].kmeans.Iterations
		km.PointDists += traced[i].kmeans.PointDists
		km.PossibleDists += traced[i].kmeans.PossibleDists
		scanMs = append(scanMs, traced[i].scanMs...)
	}
	nq := math.Max(1, float64(queries))
	r.layer["trace.overhead_frac"] = float64(sumT)/float64(sumU) - 1

	spans := r.tr.take()
	resolveParents(spans)
	self := selfTimes(spans)
	byName := map[string][]float64{} // durations in ns
	selfByName := map[string][]float64{}
	reads := 0
	var transport []float64
	trees := map[int64][]span{} // request → its client.request tree
	inTree := map[int64]bool{}
	for _, s := range spans { // parents sort before their children
		if _, ok := tracedReq[s.Req]; !ok {
			continue
		}
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		selfByName[s.Name] = append(selfByName[s.Name], float64(self[s.ID]))
		if s.Name == "store.read" {
			reads++
		}
		if s.Name == "client.request" {
			transport = append(transport, float64(s.dur())/1e6-latMs[s.Req])
		}
		if s.Name == "client.request" || inTree[s.Parent] {
			inTree[s.ID] = true
			trees[s.Req] = append(trees[s.Req], s)
		}
	}
	us := func(name string) float64 { return median(byName[name]) / 1e3 }
	ms := func(name string) float64 { return median(byName[name]) / 1e6 }
	r.layer["serve.transport_ms"] = median(transport)
	r.layer["sql.parse_us"] = us("sql.parse")
	r.layer["query.compile_us"] = us("query.compile")
	r.layer["core.scan_ms"] = median(scanMs)
	r.layer["query.scan_self_ms"] = median(selfByName["core.scan"]) / 1e6
	r.layer["query.encoded_kernel_evals_per_query"] = float64(kern) / nq
	r.layer["picker.pick_ms"] = ms("picker.pick_direct")
	r.layer["stats.featurize_ms"] = ms("stats.featurize")
	r.layer["cluster.cluster_ms"] = ms("cluster.cluster")
	r.layer["picker.funnel_ms"] = median(selfByName["picker.pick_direct"]) / 1e6
	r.layer["cluster.dist_frac"] = float64(km.PointDists) / math.Max(1, float64(km.PossibleDists))
	r.layer["cluster.iterations_per_pick"] = float64(km.Iterations) / math.Max(1, float64(picks))
	r.layer["store.reads_per_query"] = float64(reads) / nq
	r.layer["store.read_us"] = mean(byName["store.read"]) / 1e3
	r.layer["store.cache_hit_frac"] = frac(int(cache.Hits), int(cache.Hits+cache.Misses))
	r.layer["store.evictions_per_query"] = float64(cache.Evictions) / nq
	r.layer["store.loaded_kb_per_query"] = float64(cache.LoadedBytes) / 1024 / nq
	r.layer["store.lazy_decode_kb_per_query"] = float64(lazy) / 1024 / nq
	r.layer["fault.read_kb_per_query"] = float64(fsd[classData][opRead][1]) / 1024 / nq
	r.layer["fault.read_us"] = mean(byName["fault.read"]) / 1e3

	// Account for the round trip layer by layer: a request's exclusive
	// times sum to its round trip, so the per-layer means sum to the mean
	// round trip.
	layers := []string{"client.request", "serve.http", "serve.query", "picker.pick", "core.scan", "store.read", "fault.read"}
	excl := map[string]float64{}
	for _, tree := range trees {
		for name, ns := range exclusive(tree) {
			excl[name] += float64(ns) / 1e6 / float64(len(trees))
		}
	}
	var sum float64
	var parts []string
	for _, name := range layers {
		sum += excl[name]
		parts = append(parts, fmt.Sprintf("%s %.3f", name, excl[name]))
	}
	r.tracedMs = sum
	r.notef("traced replay of %d queries, mean ms per request: %s; sum %.3f = traced round trip; untraced replay %.3f (tracing overhead %+.1f%%)",
		queries, strings.Join(parts, ", "), sum, float64(sumU)/1e6/nq, 100*r.layer["trace.overhead_frac"])
	return nil
}

// pass replays texts once.
func (r *run) pass(c *conn, texts []int32, traced bool, nextReq *int64) (passResult, error) {
	var res passResult
	if r.w.traffic == trafficUnique || r.w.mixed {
		if err := r.e.reswap(); err != nil {
			return res, err
		}
	}
	tr := r.tr
	for _, ti := range texts {
		*nextReq++
		id := *nextReq
		tr.req.Store(id)
		r.attempted++
		start := tr.now()
		resp, err := c.query(r.tf.texts[ti], r.w.budget)
		end := tr.now()
		if err != nil {
			r.failed++
			continue
		}
		r.led.record(200, ti, resp)
		res.queries++
		res.queryNs = append(res.queryNs, end-start)
		res.reqs = append(res.reqs, id)
		res.latMs = append(res.latMs, resp.LatencyMs)
		res.scanMs = append(res.scanMs, resp.ScanMs)
		if !traced {
			continue
		}
		tr.add("client.request", id, 0, start, end)
		// Server.QueryCtx, and the pick and scan inside it, are laid in
		// to end where the handler's span ends, with the durations the
		// response reports; pick and scan run end to end before QueryCtx
		// returns. Writing the response follows QueryCtx, so they sit late by
		// the length of that write, a few microseconds.
		hid, h1 := tr.httpSpan.Load(), tr.httpEnd.Load()
		scan, pick := int64(resp.ScanMs*1e6), int64(resp.PickMs*1e6)
		qid := tr.add("serve.query", id, hid, h1-int64(resp.LatencyMs*1e6), h1)
		tr.add("core.scan", id, qid, h1-scan, h1)
		if pick > 0 {
			tr.add("picker.pick", id, qid, h1-scan-pick, h1-scan)
		}
		// Direct calls with the same (query, n), outside the request: the
		// parse and the compile the handler did (the compile only when the
		// LRU missed), and a pick whose PickStats split featurization,
		// funnel and clustering.
		sys := r.e.system(resp.SnapshotVersion)
		s0 := tr.now()
		q, _, err := sql.Parse(r.tf.texts[ti])
		tr.add("sql.parse", id, 0, s0, tr.now())
		if err != nil {
			return res, err
		}
		c0 := tr.now()
		if _, err := sys.Compile(q); err != nil {
			return res, err
		}
		tr.add("query.compile", id, 0, c0, tr.now())
		p0 := tr.now()
		_, ps, err := sys.PickParts(q, sys.PartsForBudget(r.w.budget))
		p1 := tr.now()
		if err != nil {
			return res, err
		}
		pid := tr.add("picker.pick_direct", id, 0, p0, p1)
		tr.add("stats.featurize", id, pid, p0, p0+int64(ps.Featurize))
		tr.add("cluster.cluster", id, pid, p1-int64(ps.Cluster), p1)
		res.picks++
		res.kmeans.Iterations += ps.KMeans.Iterations
		res.kmeans.PointDists += ps.KMeans.PointDists
		res.kmeans.PossibleDists += ps.KMeans.PossibleDists
	}
	tr.req.Store(0)
	return res, nil
}
