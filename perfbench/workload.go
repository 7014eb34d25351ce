package main

import (
	"fmt"
	"time"
)

// Traffic shapes over a workload's query pool.
const (
	trafficUnique     = "unique"     // every request is a query text not sent before
	trafficZipf       = "zipf"       // templates drawn Zipf(s) from a fixed pool
	trafficRoundRobin = "roundrobin" // a small pool cycled in order
)

// workload is one traffic mix. Each stresses one layer and leaves another
// nearly idle, so a change to a layer shows on one workload and is
// predicted to be flat on another (BENCHMARK.json records why each exists).
type workload struct {
	name    string
	dataset string
	rows    int
	parts   int
	// cacheDiv sizes the partition cache as the store's encoded bytes over
	// cacheDiv; 0 keeps the ps3serve default of 256 MiB.
	cacheDiv int
	budget   float64
	traffic  string
	// templates is the pool size for zipf and round-robin traffic.
	templates int
	// zipfS and zipfV shape the Zipf draw: P(rank k) ∝ (zipfV + k)^-zipfS.
	zipfS, zipfV float64
	// rate is the open-loop offered rate in queries per second and
	// openConns the connections that carry it.
	rate      float64
	openConns int
	// mixed runs the append connection beside the open loop; otherwise the
	// append phase runs alone after the query phases.
	mixed bool
	// accuracy is how many seeded queries rel_err and missed_groups
	// average over. With repeated templates it is all of them, which also
	// warms the pick cache before the measured phases.
	accuracy int
}

// Constants shared by every workload.
const (
	trainQueries = 12  // picker training queries per set-up
	setupRepeats = 3   // set-ups per run; setup_s is their median
	appendBatch  = 64  // rows per POST /append
	closedConns  = 2   // = nproc of the reference host
	replayN      = 150 // queries per traced replay pass
	maxVerify    = 300 // served answers re-run in process per run
)

var workloads = []workload{
	{
		name: "adhoc-pick", dataset: "kdd", rows: 100_000, parts: 200,
		budget: 0.05, traffic: trafficUnique,
		rate: 200, openConns: 2, accuracy: 120,
	},
	{
		name: "hot-scan", dataset: "tpch", rows: 100_000, parts: 200, cacheDiv: 10,
		budget: 0.2, traffic: trafficZipf, templates: 100, zipfS: 1.3, zipfV: 10,
		rate: 120, openConns: 2, accuracy: 100,
	},
	{
		name: "ingest-mixed", dataset: "aria", rows: 100_000, parts: 200,
		budget: 0.05, traffic: trafficRoundRobin, templates: 192,
		rate: 60, openConns: 1, mixed: true, accuracy: 192,
	},
}

// openN is how many open-loop requests fall due in a phase of length dur.
func (w workload) openN(dur time.Duration) int { return int(w.rate * dur.Seconds()) }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want adhoc-pick, hot-scan or ingest-mixed)", name)
}
