package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ps3/internal/serve"
)

// TestPoolsOutlastFastServer drives the query rounds of a short run against
// a fake server that answers every query in 250µs, several times faster
// than the reference host serves adhoc-pick. The pools sized
// for the run must last: no closed slice may stop early and every open-loop
// phase must find its requests.
func TestPoolsOutlastFastServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		for start := time.Now(); time.Since(start) < 250*time.Microsecond; {
		}
		_ = json.NewEncoder(w).Encode(serve.Response{SnapshotVersion: 1})
	}))
	defer srv.Close()

	w, err := workloadByName("adhoc-pick")
	if err != nil {
		t.Fatal(err)
	}
	const seconds = 1.0
	closedN, openN := poolSizes(w, seconds)
	tf := &traffic{open: make([]int32, openN), closed: make([]int32, closedN)}
	for i := range tf.open {
		tf.open[i] = int32(len(tf.texts))
		tf.texts = append(tf.texts, "q")
	}
	for i := range tf.closed {
		tf.closed[i] = int32(len(tf.texts))
		tf.texts = append(tf.texts, "q")
	}
	r := &run{w: w, seconds: seconds, e: &env{baseURL: srv.URL}, tf: tf, led: newLedger(len(tf.texts))}
	ls := &loadStats{}
	sent := 0
	for k := 0; k < rounds; k++ { // as measure runs them
		n, _ := r.closedPhase(ls)
		sent += n
		r.openPhase(ls, r.phase(openShare/rounds))
	}
	if r.drained {
		t.Fatalf("closed pool of %d ran out after %d queries", closedN, sent)
	}
	t.Logf("closed loop: %d queries of a pool of %d; open loop: %d of %d", sent, closedN, r.openAt, openN)
}

func TestPoolSizesCoverEveryPhase(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []float64{1, 20, 60} {
			closedN, openN := poolSizes(w, seconds)
			if want := maxClosedQPS * closedShare * seconds; float64(closedN) < want {
				t.Errorf("%s at %gs: closed pool %d, want at least %g", w.name, seconds, closedN, want)
			}
			due := rounds * w.openN(phaseDur(openShare/rounds, seconds))
			if w.mixed {
				due = w.openN(phaseDur(mixedShare, seconds))
			}
			if openN < due || openN < replayN {
				t.Errorf("%s at %gs: open pool %d, the phases send %d and the replay %d", w.name, seconds, openN, due, replayN)
			}
		}
	}
}
