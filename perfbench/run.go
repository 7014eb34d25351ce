package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ps3/internal/core"
	"ps3/internal/ingest"
	"ps3/internal/metrics"
	"ps3/internal/query"
	"ps3/internal/serve"
	"ps3/internal/sql"
)

// Shares of --seconds given to each measured phase. The query phases run
// as rounds of a closed slice then an open slice, so a burst of load from
// outside the benchmark lands in one slice of each rather than in all of
// one metric; query_qps pools the rounds' closed slices. On a
// mixed workload the closed slices run first, on the boot snapshot, and
// one open phase follows with the appender beside it: every flush there
// swaps the snapshot, so later closed slices would measure a different
// table.
const (
	rounds      = 5
	closedShare = 0.3  // closed loop: query_qps
	openShare   = 0.45 // open loop: query latency
	appendShare = 0.25 // appends alone, after the query rounds
	mixedShare  = 0.6  // open-loop queries and closed-loop appends together
)

// run is one benchmark invocation's state.
type run struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	dir     string
	tr      *tracer
	fs      *tracedFS
	e       *env
	tf      *traffic
	led     *ledger
	pipe    *ingest.Pipeline

	openAt   int  // next request ordinal in tf.open
	closedAt int  // next request ordinal in tf.closed
	drained  bool // the closed pool ran out before a slice ended
	// tracedMs is the traced replay's mean round trip, the sum of its
	// layers' exclusive times.
	tracedMs float64
	batches  int // next append batch

	setupTotals []float64
	setupStages map[string][]float64

	e2e   map[string]float64
	layer map[string]float64
	notes []string

	attempted, failed int
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupAll runs the set-up setupRepeats times from the same seed and keeps
// the last one serving.
func (r *run) setupAll() error {
	r.setupStages = map[string][]float64{}
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		e, err := setup(r.w, r.seed, filepath.Join(r.dir, fmt.Sprintf("setup%d", k)), r.tr, r.fs)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", k, err)
		}
		r.setupTotals = append(r.setupTotals, e.total)
		for name, s := range e.stages {
			r.setupStages[name] = append(r.setupStages[name], s)
		}
		if k < setupRepeats-1 {
			e.close()
			continue
		}
		r.e = e
	}
	return nil
}

// prepare draws the traffic, drops the generated data and warms the
// partition cache.
func (r *run) prepare() error {
	tf, err := makeTraffic(r.w, r.seed, r.e.ds, r.seconds)
	if err != nil {
		return err
	}
	r.tf = tf
	r.e.ds = nil
	for i := 0; i < r.e.reader.NumParts(); i++ {
		if _, err := r.e.reader.Read(i); err != nil {
			return err
		}
	}
	r.led = newLedger(len(tf.texts))
	return nil
}

// accuracy serves the accuracy subset and scores each answer against the
// exact answer (§5.1.4 metrics), on the boot snapshot.
func (r *run) accuracy() error {
	c := newConn(r.e.baseURL)
	defer c.close()
	var rel, missed []float64
	for _, ti := range r.tf.accuracy {
		r.attempted++
		resp, err := c.query(r.tf.texts[ti], r.w.budget)
		if err != nil {
			r.failed++
			r.notef("accuracy query failed: %v", err)
			continue
		}
		r.led.record(0, ti, resp)
		q, _, err := sql.Parse(r.tf.texts[ti])
		if err != nil {
			return err
		}
		exact, err := r.e.system(resp.SnapshotVersion).RunExact(q)
		if err != nil {
			return err
		}
		truth := make(map[string][]float64, len(exact.Values))
		for k, v := range exact.Values {
			truth[exact.Labels[k]] = v
		}
		est := make(map[string][]float64, len(resp.Groups))
		for _, g := range resp.Groups {
			est[g.Label] = g.Values
		}
		errs := metrics.Compare(truth, est)
		rel = append(rel, errs.AvgRelErr)
		missed = append(missed, errs.MissedGroups)
	}
	r.layer["accuracy.rel_err"] = mean(rel)
	r.layer["accuracy.missed_groups"] = mean(missed)
	return nil
}

// nextText hands out the next request of seq, whose next ordinal is *at.
func nextText(mu *sync.Mutex, seq []int32, at *int) (int32, bool) {
	mu.Lock()
	defer mu.Unlock()
	if *at >= len(seq) {
		return 0, false
	}
	i := seq[*at]
	*at++
	return i, true
}

// loadStats is what the measured phases observed.
type loadStats struct {
	queries, queryFails  int
	cached, pickCached   int
	lat                  []float64 // open-loop ms from due time, failures as +Inf
	lagMs                []float64
	appends, appendFails int
	appendRows           int
	appendLat            []float64
	appendWall           time.Duration
	before, after        serve.Metrics
	fsBefore, fsAfter    [numClasses][numOps][3]int64
}

// closedPhase runs one closed-loop slice on closedConns connections and
// returns its successful queries and its wall time.
func (r *run) closedPhase(ls *loadStats) (int, time.Duration) {
	conns := make([]*conn, closedConns)
	for i := range conns {
		conns[i] = newConn(r.e.baseURL)
		defer conns[i].close()
	}
	var mu sync.Mutex
	ok := 0
	idx := map[*conn]int{}
	for i, c := range conns {
		idx[c] = i + 1
	}
	wall := closedLoop(conns, r.phase(closedShare/rounds), func(c *conn) bool {
		ti, more := nextText(&mu, r.tf.closed, &r.closedAt)
		if !more {
			r.drained = true
			return false
		}
		resp, err := c.query(r.tf.texts[ti], r.w.budget)
		mu.Lock()
		defer mu.Unlock()
		ls.queries++
		if err != nil {
			ls.queryFails++
			return true
		}
		ok++
		ls.count(resp)
		r.led.record(idx[c], ti, resp)
		return true
	})
	return ok, wall
}

func (ls *loadStats) count(resp *serve.Response) {
	if resp.Cached {
		ls.cached++
	}
	if resp.PickCached {
		ls.pickCached++
	}
}

func (r *run) phase(share float64) time.Duration { return phaseDur(share, r.seconds) }

// phaseDur is the length of a phase given share of a run of seconds.
func phaseDur(share, seconds float64) time.Duration {
	return time.Duration(share * seconds * float64(time.Second))
}

// openPipeline starts live ingest the way ps3serve -ingest does: one
// partition per base-partition row count, a 2 ms group-commit window and
// background flushes, each published snapshot swapped into the server.
func (r *run) openPipeline() error {
	src := r.e.sys.Source
	p, err := ingest.Open(ingest.Config{
		Dir:          filepath.Join(r.e.dir, "ingest"),
		RowsPerPart:  src.NumRows() / src.NumParts(),
		CommitWindow: 2 * time.Millisecond,
		CacheBytes:   r.e.reader.CacheStats().BudgetBytes,
		OnPublish: func(sys *core.System, version int) {
			if err := r.e.publish(sys); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: swap snapshot %d: %v\n", version, err)
			}
		},
		FS: r.fs,
	}, r.e.sys)
	if err != nil {
		return err
	}
	r.pipe = p
	r.e.srv.SetAppender(p)
	return nil
}

// appendLoop appends batches in a closed loop on each connection until
// dur has passed or stop is set.
func (r *run) appendLoop(conns []*conn, dur time.Duration, stop *atomic.Bool, ls *loadStats) {
	var mu sync.Mutex
	idx := map[*conn]int{}
	for i, c := range conns {
		idx[c] = 100 + i
	}
	ls.appendWall += closedLoop(conns, dur, func(c *conn) bool {
		if stop.Load() {
			return false
		}
		mu.Lock()
		b := r.batches
		r.batches++
		mu.Unlock()
		ms, rows, err := r.sendAppend(c, idx[c], b)
		mu.Lock()
		defer mu.Unlock()
		ls.appends++
		if err != nil {
			ls.appendFails++
			ls.appendLat = append(ls.appendLat, math.Inf(1))
			return true
		}
		ls.appendRows += rows
		ls.appendLat = append(ls.appendLat, ms)
		return true
	})
}

// sendAppend posts append batch b and files the outcome with the ledger:
// acknowledged rows are owed to the durability check.
func (r *run) sendAppend(c *conn, connID, b int) (ms float64, rows int, err error) {
	body := r.tf.rows.body(b)
	start := time.Now()
	ack, err := c.append(body)
	ms = float64(time.Since(start)) / 1e6
	if err != nil {
		r.led.failBatch()
		return ms, 0, err
	}
	r.led.ackBatch(connID, ack.SnapshotVersion, func(counts map[string]float64) {
		r.tf.rows.tally(b, r.tf.countCol, counts)
	})
	return ms, ack.Appended, nil
}

// mixedPhase runs the open loop for dur with an append connection beside
// it, which sends batches in a closed loop until the queries are done. A
// traced run replays halfway through, the appends going on meanwhile, so
// the replayed queries meet the table and the contention the median
// open-loop request met.
func (r *run) mixedPhase(ls *loadStats, dur time.Duration) error {
	if err := r.openPipeline(); err != nil {
		return err
	}
	ac := newConn(r.e.baseURL)
	defer ac.close()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.appendLoop([]*conn{ac}, 24*time.Hour, &stop, ls)
	}()
	var err error
	if r.traced {
		r.openPhase(ls, dur/2)
		err = r.replay()
		r.openPhase(ls, dur-dur/2)
	} else {
		r.openPhase(ls, dur)
	}
	stop.Store(true)
	<-done
	return err
}

// openPhase runs one open-loop phase of length dur at the offered rate:
// request i of the phase is due at i/rate and timed from then.
func (r *run) openPhase(ls *loadStats, dur time.Duration) {
	n := r.w.openN(dur)
	interval := time.Duration(float64(time.Second) / r.w.rate)
	conns := make([]*conn, r.w.openConns)
	for i := range conns {
		conns[i] = newConn(r.e.baseURL)
		defer conns[i].close()
	}
	var mu sync.Mutex
	// The open pool holds exactly what the phases are due to send.
	texts := r.tf.open[r.openAt : r.openAt+n]
	r.openAt += n
	samples := openLoop(realClock{}, time.Now(), n, interval, len(conns), func(w, i int) error {
		resp, err := conns[w].query(r.tf.texts[texts[i]], r.w.budget)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		ls.count(resp)
		r.led.record(10+w, texts[i], resp)
		return nil
	})
	for _, s := range samples {
		ls.queries++
		ls.lagMs = append(ls.lagMs, float64(s.lag())/1e6)
		if s.err != nil {
			ls.queryFails++
			ls.lat = append(ls.lat, math.Inf(1))
			continue
		}
		ls.lat = append(ls.lat, float64(s.latency())/1e6)
	}
}

// appendPhase measures the write path alone on workloads whose query
// phases have no appends.
func (r *run) appendPhase(ls *loadStats) error {
	if r.w.mixed {
		return nil
	}
	if err := r.openPipeline(); err != nil {
		return err
	}
	c := newConn(r.e.baseURL)
	defer c.close()
	r.appendLoop([]*conn{c}, r.phase(appendShare), new(atomic.Bool), ls)
	return nil
}

// measure runs the measured phases and turns what they saw into metrics. A
// traced run replays between the query rounds and the append phase, or on
// a mixed workload halfway through its mixed phase.
func (r *run) measure() (*loadStats, error) {
	ls := &loadStats{}
	r.tr.countOn.Store(r.traced)
	ls.before = r.e.srv.Stats()
	ls.fsBefore = r.fs.snapshot()
	var qps []float64
	var ok int
	var wall time.Duration
	for k := 0; k < rounds; k++ {
		n, d := r.closedPhase(ls)
		ok, wall = ok+n, wall+d
		qps = append(qps, float64(n)/d.Seconds())
		if r.w.mixed {
			continue
		}
		r.openPhase(ls, r.phase(openShare/rounds))
	}
	r.e2e["query_qps"] = float64(ok) / wall.Seconds()
	r.notef("closed-loop slices: %.0f queries/s", qps)
	if r.drained {
		r.notef("the closed pool of %d queries ran out: slices ended early", len(r.tf.closed))
	}
	if r.w.mixed {
		if err := r.mixedPhase(ls, r.phase(mixedShare)); err != nil {
			return nil, err
		}
	}
	// The gated tails are p90s: on a shared 2-vCPU host the p99 of a
	// 20-second run moves by more than the largest bound allowed. The p99s
	// are reported per layer, at p99 when the sample supports it.
	// query_p90_ms is the median of the rounds' p90s (on a mixed workload,
	// of five consecutive stretches of its one phase), append_p90_ms that
	// of five stretches of the appends: a burst of outside load moves one
	// stretch's tail, not the reported one.
	r.e2e["query_p90_ms"] = roundTail(ls.lat)
	q := summarize(ls.lat, 0.99)
	r.e2e["query_p50_ms"] = q.P50
	r.layer["loadgen.query_p99_ms"] = q.Tail

	if r.traced && !r.w.mixed {
		if err := r.replay(); err != nil {
			return nil, err
		}
	}
	if r.traced {
		r.notef("the traced layers sum to %.3f ms per request, the open loop's query_p50_ms is %.3f ms: %+.1f%%",
			r.tracedMs, q.P50, 100*(r.tracedMs/q.P50-1))
	}
	if err := r.appendPhase(ls); err != nil {
		return nil, err
	}
	ls.after = r.e.srv.Stats()
	ls.fsAfter = r.fs.snapshot()
	r.tr.countOn.Store(false)
	r.attempted += ls.queries + ls.appends
	r.failed += ls.queryFails + ls.appendFails

	r.e2e["append_p90_ms"] = roundTail(ls.appendLat)
	a := summarize(ls.appendLat, 0.99)
	r.e2e["append_p50_ms"] = a.P50
	r.layer["loadgen.append_p99_ms"] = a.Tail
	r.e2e["append_rows_s"] = float64(ls.appendRows) / ls.appendWall.Seconds()
	r.notef("open loop: %d queries at %.0f/s, tail reported at p%g; appends: %d batches, tail at p%g",
		q.N, r.w.rate, 100*q.TailP, a.N, 100*a.TailP)
	return ls, nil
}

// roundTail splits samples, in the order they were sent, into rounds equal
// stretches and returns the median of their p90s.
func roundTail(samples []float64) float64 {
	var tails []float64
	per := len(samples) / rounds
	for k := 0; k < rounds; k++ {
		tails = append(tails, summarize(samples[k*per:(k+1)*per], 0.9).Tail)
	}
	return median(tails)
}

// loadLayers derives the per-layer metrics the measured phases give.
func (r *run) loadLayers(ls *loadStats) {
	ok := ls.queries - ls.queryFails
	r.layer["serve.query_cache_hit_frac"] = frac(ls.cached, ok)
	r.layer["serve.pick_cache_hit_frac"] = frac(ls.pickCached, ok)
	swaps := r.e.swapMs()
	r.layer["serve.swaps"] = float64(len(swaps))
	r.layer["serve.swap_ms"] = mean(swaps)
	r.layer["serve.shed"] = float64(ls.after.Sheds - ls.before.Sheds)
	r.layer["core.degraded"] = float64(ls.after.Degraded - ls.before.Degraded)
	r.layer["client.query_fail_frac"] = frac(ls.queryFails, ls.queries)
	r.layer["client.append_fail_frac"] = frac(ls.appendFails, ls.appends)
	r.layer["loadgen.query_samples"] = float64(len(ls.lat))
	r.layer["loadgen.append_samples"] = float64(len(ls.appendLat))
	r.layer["loadgen.lag_ms"] = mean(ls.lagMs)

	// The filesystem wrapper counts only in traced runs.
	if r.traced {
		d := func(c, o, k int) float64 { return float64(ls.fsAfter[c][o][k] - ls.fsBefore[c][o][k]) }
		acked := ls.appends - ls.appendFails
		r.layer["ingest.syncs_per_append"] = d(classWAL, opSync, 0) / math.Max(1, float64(acked))
		r.layer["ingest.sync_ms"] = d(classWAL, opSync, 2) / 1e6 / math.Max(1, d(classWAL, opSync, 0))
		written := d(classWAL, opWrite, 1) + d(classData, opWrite, 1)
		r.layer["ingest.write_bytes_per_row"] = written / math.Max(1, float64(ls.appendRows))
	}
	if r.pipe != nil {
		st := r.pipe.Stats()
		r.layer["ingest.flushes"] = float64(st.Flushes)
		r.layer["ingest.segments_end"] = float64(st.Segments)
		src := r.e.sys.Source
		rows := st.SegmentParts * src.NumRows() / src.NumParts()
		r.layer["ingest.rows_per_flush"] = float64(rows) / math.Max(1, float64(st.Flushes))
	}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// footprint records the bytes on disk per logical byte and the size of
// the statistics.
func (r *run) footprint(ls *loadStats) error {
	src := r.e.sys.Source
	logical := float64(src.TotalBytes())
	disk := float64(r.e.storeBytes)
	if r.w.mixed {
		// Segments and WAL at the end of the measured phase, against the
		// logical bytes of the base plus every appended row.
		n, err := dirBytes(filepath.Join(r.e.dir, "ingest"))
		if err != nil {
			return err
		}
		disk += float64(n)
		logical += float64(ls.appendRows) * float64(src.TotalBytes()) / float64(src.NumRows())
	}
	r.e2e["disk_bytes_per_logical_byte"] = disk / logical
	r.e2e["stats_kb_per_part"] = r.e.sys.Stats.Sizes().Total / 1024
	return nil
}

// heap records the live heap after a forced GC, once the checks are done.
// The checks need every published snapshot, which a server alone would have
// dropped at its next swap, and the benchmark's own state (query texts,
// append rows, answer digests) is no part of the server, so it releases
// both first and what stays live is the server's.
func (r *run) heap() {
	r.e.swapMu.Lock()
	cur := r.e.srv.SnapshotVersion()
	for v := range r.e.versions {
		if v != cur {
			delete(r.e.versions, v)
		}
	}
	r.e.swapMu.Unlock()
	r.tf = nil
	r.led.dropAnswers()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.e2e["serve_heap_mb"] = float64(m.HeapAlloc) / (1 << 20)
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), ".tmp") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// durability freezes the ingest pipeline (its final flush publishes the
// last snapshot) and checks that every acknowledged row is there: per
// value of a categorical column, the final exact count must equal the
// boot snapshot's count plus the acknowledged rows.
func (r *run) durability(base map[string]float64) error {
	if r.pipe == nil {
		return nil
	}
	if err := r.pipe.FreezeSource(); err != nil {
		return fmt.Errorf("freeze ingest: %w", err)
	}
	final, err := countBy(r.e.srv.System(), r.tf.countCol)
	if err != nil {
		return err
	}
	want := make(map[string]float64, len(base))
	for k, v := range base {
		want[k] = v
	}
	for k, v := range r.led.appended {
		want[k] += v
	}
	r.attempted++
	keys := make([]string, 0, len(want)+len(final))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range final {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, exp := final[k], want[k]
		// A batch that failed may still have reached the log; only
		// acknowledged rows are promised.
		if got < exp || (got > exp && r.led.failedBatches == 0) {
			r.led.mismatch("durability: %s has %g rows after the final flush, want %g", k, got, exp)
			return nil
		}
	}
	return nil
}

// countBy counts rows per value of col exactly, keyed by group label.
func countBy(sys *core.System, col string) (map[string]float64, error) {
	q := &query.Query{Aggs: []query.Aggregate{{Kind: query.Count}}, GroupBy: []string{col}}
	res, err := sys.RunExactCtx(context.Background(), q)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(res.Values))
	for k, v := range res.Values {
		out[res.Labels[k]] = v[0]
	}
	return out, nil
}
