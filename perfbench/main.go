// Command perfbench is PS3's benchmark: from a workload name and a seed it
// runs the offline phase of Fig 1 (generate, build statistics, train the
// picker, write the store and snapshot), cold-starts serve.Server behind
// its HTTP handler on a loopback listener, drives the workload's traffic
// through it, checks every answer it can against the in-process system,
// and prints each metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from counters kept during
// the same phases and from a traced one-at-a-time replay. Run it from the
// repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-scan --seed 7 --seconds 12 --trace 0
//
// It exits nonzero when a served answer differs from the in-process one,
// an acknowledged row is missing or a snapshot version goes backwards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names and units (checked by TestBenchmarkFileMatchesSpecs).
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"query_qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"append_rows_s", "rows/s"},
	{"append_p50_ms", "ms"},
	{"append_p90_ms", "ms"},
	{"serve_heap_mb", "MiB"},
	{"stats_kb_per_part", "KiB"},
	{"disk_bytes_per_logical_byte", "ratio"},
}

var perLayer = []metricSpec{
	{"accuracy.rel_err", "ratio"},
	{"accuracy.missed_groups", "ratio"},
	{"serve.transport_ms", "ms"},
	{"serve.query_cache_hit_frac", "ratio"},
	{"serve.pick_cache_hit_frac", "ratio"},
	{"serve.swaps", "count"},
	{"serve.swap_ms", "ms"},
	{"serve.shed", "count"},
	{"client.query_fail_frac", "ratio"},
	{"client.append_fail_frac", "ratio"},
	{"sql.parse_us", "us"},
	{"query.compile_us", "us"},
	{"core.scan_ms", "ms"},
	{"query.scan_self_ms", "ms"},
	{"query.encoded_kernel_evals_per_query", "count"},
	{"core.degraded", "count"},
	{"picker.pick_ms", "ms"},
	{"stats.featurize_ms", "ms"},
	{"picker.funnel_ms", "ms"},
	{"cluster.cluster_ms", "ms"},
	{"cluster.dist_frac", "ratio"},
	{"cluster.iterations_per_pick", "count"},
	{"store.reads_per_query", "count"},
	{"store.read_us", "us"},
	{"store.cache_hit_frac", "ratio"},
	{"store.evictions_per_query", "count"},
	{"store.loaded_kb_per_query", "KiB"},
	{"store.lazy_decode_kb_per_query", "KiB"},
	{"fault.read_kb_per_query", "KiB"},
	{"fault.read_us", "us"},
	{"ingest.syncs_per_append", "count"},
	{"ingest.sync_ms", "ms"},
	{"ingest.write_bytes_per_row", "bytes"},
	{"ingest.flushes", "count"},
	{"ingest.segments_end", "count"},
	{"ingest.rows_per_flush", "rows"},
	{"dataset.gen_s", "s"},
	{"stats.build_s", "s"},
	{"core.examples_s", "s"},
	{"picker.train_s", "s"},
	{"store.write_s", "s"},
	{"core.cold_start_s", "s"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.query_p99_ms", "ms"},
	{"loadgen.append_p99_ms", "ms"},
	{"loadgen.query_samples", "count"},
	{"loadgen.append_samples", "count"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: adhoc-pick, hot-scan or ingest-mixed")
		seed    = flag.Int64("seed", 1, "seed every input of the run is made from")
		seconds = flag.Int("seconds", 12, "length of the measured phases")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from counters and a traced replay")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	r := &run{
		w: w, seed: *seed, seconds: float64(*seconds), traced: *trace == 1,
		dir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	r.tr = newTracer()
	r.fs = newTracedFS(r.tr)
	err = r.execute()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	if !r.emit() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// execute runs set-up, the measured phases, the traced replay when asked
// for, and the correctness checks.
func (r *run) execute() error {
	t0 := time.Now()
	lap := func(what string) {
		r.notef("%s done at %.1fs", what, time.Since(t0).Seconds())
	}
	defer lap("run")
	if err := r.setupAll(); err != nil {
		if r.e != nil {
			r.e.close()
		}
		return err
	}
	defer r.e.close()
	lap("set-up")
	if err := r.prepare(); err != nil {
		return err
	}
	lap("traffic")
	base, err := countBy(r.e.sys, r.tf.countCol)
	if err != nil {
		return err
	}
	if err := r.accuracy(); err != nil {
		return err
	}
	lap("accuracy")
	ls, err := r.measure()
	if r.pipe != nil {
		defer r.pipe.Close()
	}
	if err != nil {
		return err
	}
	r.loadLayers(ls)
	lap("measured phases")
	if err := r.footprint(ls); err != nil {
		return err
	}
	if err := r.durability(base); err != nil {
		return err
	}
	checked, err := r.led.verify(r.tf.texts, r.w.budget, r.e.system)
	if err != nil {
		return err
	}
	r.notef("verified %d served answers against System.RunCtx", checked)
	lap("checks")
	if !r.traced {
		r.heap()
	}

	r.e2e["setup_s"] = median(r.setupTotals)
	for _, st := range setupStages {
		r.layer[st] = median(r.setupStages[st])
	}
	if r.traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.notef("spans written to %s", path)
	}
	return nil
}

// emit prints every metric with its unit, then the result line. It reports
// whether the run was correct.
func (r *run) emit() bool {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	specs, vals := endToEnd, r.e2e
	if r.traced {
		specs, vals = perLayer, r.layer
	}
	printTable("end-to-end", endToEnd, r.e2e)
	printTable("per-layer", perLayer, r.layer)
	out := map[string]map[string]any{}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			r.led.mismatch("metric %s was not measured", s.name)
			continue
		}
		out[s.name] = map[string]any{"value": v, "unit": s.unit}
	}
	mism := r.led.mismatches
	correct := len(mism) == 0
	for i, m := range mism {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more mismatches\n", len(mism)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", m)
	}
	res := map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed + len(mism),
		"metrics":   out,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err) // a NaN or Inf metric
	}
	fmt.Println(string(b))
	return correct
}

func printTable(title string, specs []metricSpec, vals map[string]float64) {
	var lines []string
	for _, s := range specs {
		if v, ok := vals[s.name]; ok {
			lines = append(lines, fmt.Sprintf("#   %-38s %14.6g %s", s.name, v, s.unit))
		}
	}
	if len(lines) == 0 {
		return
	}
	fmt.Printf("# %s metrics:\n%s\n", title, strings.Join(lines, "\n"))
}
