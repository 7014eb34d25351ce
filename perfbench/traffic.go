package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/table"
)

// traffic is everything the load generator sends, made from the seed before
// the measured phases: query texts (rendered SQL, each proven to parse back
// to its generated query), the order they are requested in, the accuracy
// subset, and the rows appended.
type traffic struct {
	texts []string // every distinct query text of the run
	// open and closed are the requests of the open-loop phases and of the
	// closed-loop slices, in order, as indices into texts. The traced
	// replay repeats the start of open.
	open, closed []int32
	accuracy     []int32 // indices into texts that rel_err averages over
	rows         *rowSource
	// countCol is the categorical column the durability check counts rows
	// by.
	countCol string
}

// maxClosedQPS is the closed-loop throughput the closed pool is sized for,
// several times what the reference host serves (about 1300 queries/s at
// most), so that a faster server still finds a request for every slot of
// its slices. A server faster still ends its slices early (the run says
// so); query_qps stays successful queries over the time they ran.
const maxClosedQPS = 10_000

// poolSizes returns how many requests a run of the given length sends at
// most: the closed slices at maxClosedQPS, and exactly what the open-loop
// phases are due to send, which does not depend on the server's speed. The
// open pool also covers the traced replay.
func poolSizes(w workload, seconds float64) (closed, open int) {
	closed = int(math.Ceil(maxClosedQPS * closedShare * seconds))
	if w.mixed {
		open = w.openN(phaseDur(mixedShare, seconds))
	} else {
		open = rounds * w.openN(phaseDur(openShare/rounds, seconds))
	}
	return closed, max(open, replayN)
}

// makeTraffic draws the run's queries and append rows for a run of the
// given length. ds is the generated dataset the constants are sampled from.
func makeTraffic(w workload, seed int64, ds *dataset.Dataset, seconds float64) (*traffic, error) {
	tf := &traffic{}
	gen, err := query.NewGenerator(ds.Workload, ds.Table, seed+2)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	addAll := func(qs []*query.Query) ([]int32, error) {
		var idx []int32
		for _, q := range qs {
			text, err := renderChecked(q)
			if err != nil {
				return nil, err
			}
			if seen[text] {
				continue
			}
			seen[text] = true
			idx = append(idx, int32(len(tf.texts)))
			tf.texts = append(tf.texts, text)
		}
		return idx, nil
	}
	// distinct draws n query texts not drawn before.
	distinct := func(n int) ([]int32, error) {
		var idx []int32
		for tries := 0; len(idx) < n; tries++ {
			if tries == 10 {
				return nil, fmt.Errorf("generator produced only %d of %d distinct queries", len(idx), n)
			}
			more, err := addAll(gen.SampleN(n - len(idx)))
			if err != nil {
				return nil, err
			}
			idx = append(idx, more...)
		}
		return idx, nil
	}
	closedN, openN := poolSizes(w, seconds)
	rng := rand.New(rand.NewSource(seed + 4))
	switch w.traffic {
	case trafficUnique:
		if tf.accuracy, err = distinct(w.accuracy); err != nil {
			return nil, err
		}
		if tf.open, err = distinct(openN); err != nil {
			return nil, err
		}
		if tf.closed, err = distinct(closedN); err != nil {
			return nil, err
		}
	case trafficZipf, trafficRoundRobin:
		tmpl, err := addAll(gen.SampleN(w.templates))
		if err != nil {
			return nil, err
		}
		if len(tmpl) < w.templates {
			return nil, fmt.Errorf("only %d distinct templates, want %d", len(tmpl), w.templates)
		}
		perm := rng.Perm(len(tmpl))
		for _, p := range perm[:min(w.accuracy, len(tmpl))] {
			tf.accuracy = append(tf.accuracy, tmpl[p])
		}
		tf.open = make([]int32, openN)
		if w.traffic == trafficRoundRobin {
			for i := range tf.open {
				tf.open[i] = tmpl[i%len(tmpl)]
			}
			// The closed slices send distinct queries (see NOTES.md).
			if tf.closed, err = distinct(closedN); err != nil {
				return nil, err
			}
			break
		}
		z := rand.NewZipf(rng, w.zipfS, w.zipfV, uint64(len(tmpl)-1))
		for i := range tf.open {
			tf.open[i] = tmpl[z.Uint64()]
		}
		tf.closed = make([]int32, closedN)
		for i := range tf.closed {
			tf.closed[i] = tmpl[z.Uint64()]
		}
	default:
		return nil, fmt.Errorf("unknown traffic %q", w.traffic)
	}

	for _, name := range ds.Workload.GroupableCols {
		if ci := ds.Table.Schema.ColIndex(name); !ds.Table.Schema.Col(ci).IsNumeric() {
			tf.countCol = name
			break
		}
	}
	if tf.countCol == "" {
		return nil, fmt.Errorf("workload has no categorical group-by column")
	}

	// Appended rows are fresh: the same generator at a derived seed.
	const appendRows = 60_000
	fresh, err := dataset.ByName(w.dataset, dataset.Config{Rows: appendRows, Parts: appendRows * w.parts / w.rows, Seed: seed + 3})
	if err != nil {
		return nil, err
	}
	tf.rows = newRowSource(fresh.Table)
	return tf, nil
}

// rowSource holds rows to append, column by column, and renders batches of
// them as POST /append bodies. Batches past the end wrap around.
type rowSource struct {
	schema *table.Schema
	dict   *table.Dict
	n      int
	num    [][]float64 // [col][row], nil for categorical columns
	cat    [][]uint32  // [col][row], nil for numeric columns
}

func newRowSource(t *table.Table) *rowSource {
	s := &rowSource{schema: t.Schema, dict: t.Dict, n: t.NumRows()}
	s.num = make([][]float64, len(t.Schema.Cols))
	s.cat = make([][]uint32, len(t.Schema.Cols))
	for _, p := range t.Parts {
		for c, col := range t.Schema.Cols {
			if col.IsNumeric() {
				s.num[c] = append(s.num[c], p.NumCol(c)...)
			} else {
				s.cat[c] = append(s.cat[c], p.CatCol(c)...)
			}
		}
	}
	return s
}

// row returns the global row index of row r of batch b.
func (s *rowSource) row(b, r int) int { return (b*appendBatch + r) % s.n }

// body renders batch b as a POST /append body.
func (s *rowSource) body(b int) []byte {
	out := []byte(`{"rows":[`)
	for r := 0; r < appendBatch; r++ {
		if r > 0 {
			out = append(out, ',')
		}
		i := s.row(b, r)
		out = append(out, '[')
		for c := range s.schema.Cols {
			if c > 0 {
				out = append(out, ',')
			}
			if s.num[c] != nil {
				v := s.num[c][i]
				if math.IsNaN(v) {
					out = append(out, "null"...)
				} else {
					out = strconv.AppendFloat(out, v, 'g', -1, 64)
				}
				continue
			}
			q, _ := json.Marshal(s.dict.Value(s.cat[c][i])) // a string always marshals
			out = append(out, q...)
		}
		out = append(out, ']')
	}
	return append(out, "]}"...)
}

// tally adds batch b's rows to counts, keyed by the group label the server
// prints for col.
func (s *rowSource) tally(b int, col string, counts map[string]float64) {
	ci := s.schema.ColIndex(col)
	for r := 0; r < appendBatch; r++ {
		counts[col+"="+s.dict.Value(s.cat[ci][s.row(b, r)])]++
	}
}
