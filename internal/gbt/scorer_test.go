package gbt

import (
	"math"
	"math/rand"
	"testing"
)

// TestBatchScorerMatchesPredictBatch: a scorer bound with fixed values and
// value ranges must reproduce PredictBatch bit for bit on rows honoring
// those declarations.
func TestBatchScorerMatchesPredictBatch(t *testing.T) {
	const dim = 8
	m, _ := trainRandomModel(t, 31, 400, dim)
	rng := rand.New(rand.NewSource(32))

	// Fixed values for some features, ranges for others, nothing for the rest.
	fixedVal := map[int]float64{1: 0, 4: 2.5}
	ranged := map[int][2]float64{2: {-3, 3}, 6: {0, 40}}
	rows := make([][]float64, 300)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1) * 3
		}
		for j, v := range fixedVal {
			row[j] = v
		}
		for j, r := range ranged {
			row[j] = r[0] + rng.Float64()*(r[1]-r[0])
		}
		rows[i] = row
	}

	want := make([]float64, len(rows))
	m.PredictBatch(want, rows)

	var s BatchScorer
	s.Bind(m, identityCols(m), func(j int) (float64, float64, bool) {
		if v, ok := fixedVal[j]; ok {
			return v, v, true
		}
		if r, ok := ranged[j]; ok {
			return r[0], r[1], true
		}
		return 0, 0, false
	})
	got := make([]float64, len(rows))
	s.Predict(got, rows)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: scorer %v != PredictBatch %v", i, got[i], want[i])
		}
	}

	// Re-binding with no knowledge at all must also match.
	s.Bind(m, identityCols(m), func(int) (float64, float64, bool) { return 0, 0, false })
	s.Predict(got, rows)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unspecialized row %d: scorer %v != PredictBatch %v", i, got[i], want[i])
		}
	}
}

// identityCols is the feature→column map of full-width rows.
func identityCols(m *Model) []int32 {
	col := make([]int32, m.flat.dim)
	for j := range col {
		col[j] = int32(j)
	}
	return col
}

// compactRows fixes the features in fixed to their values in every row and
// returns the rows with those features dropped, plus the feature→column
// map that reads them.
func compactRows(rows [][]float64, dim int, fixed map[int]float64) ([][]float64, []int32) {
	col := make([]int32, dim)
	w := int32(0)
	for j := range col {
		if _, ok := fixed[j]; ok {
			col[j] = -1
			continue
		}
		col[j] = w
		w++
	}
	out := make([][]float64, len(rows))
	for i, row := range rows {
		for j, v := range fixed {
			row[j] = v
		}
		c := make([]float64, 0, w)
		for j, x := range row {
			if col[j] >= 0 {
				c = append(c, x)
			}
		}
		out[i] = c
	}
	return out, col
}

// TestBatchScorerCompactRows: rows that store only the features a map
// assigns a column, the fixed ones left out, must score bit-identically to
// PredictBatch on the full rows — through the batch tables and through the
// walking fallback of an ensemble too leafy for them.
func TestBatchScorerCompactRows(t *testing.T) {
	fixed := map[int]float64{0: 0, 2: 1.5}
	rangeOf := func(j int) (float64, float64, bool) {
		if v, ok := fixed[j]; ok {
			return v, v, true
		}
		return 0, 0, false
	}
	check := func(name string, m *Model, xs [][]float64, dim int) {
		t.Helper()
		compact, col := compactRows(xs, dim, fixed)
		want := make([]float64, len(xs))
		m.PredictBatch(want, xs)
		var s BatchScorer
		s.Bind(m, col, rangeOf)
		got := make([]float64, len(xs))
		s.Predict(got, compact)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s row %d: compact scorer %v != PredictBatch %v", name, i, got[i], want[i])
			}
		}
	}
	m, xs := trainRandomModel(t, 36, 300, 5)
	if !m.flat.qsOK {
		t.Fatal("fixture lost its batch tables")
	}
	check("batch tables", m, xs, 5)

	rng := rand.New(rand.NewSource(37))
	deep := make([][]float64, 3000)
	ys := make([]float64, len(deep))
	for i := range deep {
		deep[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ys[i] = deep[i][0]*deep[i][1] + math.Sin(deep[i][2]*3) + deep[i][3]
	}
	dm, err := Train(deep, ys, Params{Trees: 6, MaxDepth: 8, MinLeaf: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if dm.flat.qsOK {
		t.Skip("trees stayed small enough for batch tables; fallback not exercised")
	}
	check("walking fallback", dm, deep[:200], 4)
}

// TestBatchScorerInfiniteRanges: ±Inf range endpoints must behave as "no
// information" on that side without breaking bind-time folding.
func TestBatchScorerInfiniteRanges(t *testing.T) {
	m, xs := trainRandomModel(t, 33, 300, 5)
	want := make([]float64, len(xs))
	m.PredictBatch(want, xs)
	var s BatchScorer
	s.Bind(m, identityCols(m), func(j int) (float64, float64, bool) {
		return math.Inf(-1), math.Inf(1), true
	})
	got := make([]float64, len(xs))
	s.Predict(got, xs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: scorer with (-Inf,+Inf) ranges %v != %v", i, got[i], want[i])
		}
	}
}

// TestBatchScorerFallback: models whose trees exceed the batch-table leaf
// bound still predict correctly through the scorer (walking fallback).
func TestBatchScorerFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 3000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ys[i] = xs[i][0]*xs[i][1] + math.Sin(xs[i][2]*3)
	}
	// Depth 8 trees can exceed 64 leaves, disabling the batch tables.
	m, err := Train(xs, ys, Params{Trees: 6, MaxDepth: 8, MinLeaf: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.flat.qsOK {
		t.Skip("trees stayed small enough for batch tables; fallback not exercised")
	}
	var s BatchScorer
	s.Bind(m, identityCols(m), func(int) (float64, float64, bool) { return 0, 0, false })
	got := make([]float64, 50)
	s.Predict(got, xs[:50])
	for i := range got {
		if want := m.PredictReference(xs[i]); got[i] != want {
			t.Fatalf("fallback row %d: %v != %v", i, got[i], want)
		}
	}
}

// TestBatchScorerZeroAllocsAfterBind: repeated Predict calls on a bound
// scorer allocate nothing, on full-width rows and on compact rows read
// through a feature→column map.
func TestBatchScorerZeroAllocsAfterBind(t *testing.T) {
	m, xs := trainRandomModel(t, 35, 256, 6)
	var s BatchScorer
	rangeOf := func(j int) (float64, float64, bool) { return 0, 0, j == 3 }
	s.Bind(m, identityCols(m), rangeOf)
	for i := range xs {
		xs[i][3] = 0
	}
	dst := make([]float64, len(xs))
	if allocs := testing.AllocsPerRun(20, func() { s.Predict(dst, xs) }); allocs != 0 {
		t.Fatalf("BatchScorer.Predict allocates %.0f objects per run, want 0", allocs)
	}
	compact, col := compactRows(xs, 6, map[int]float64{3: 0})
	s.Bind(m, col, rangeOf)
	if allocs := testing.AllocsPerRun(20, func() { s.Predict(dst, compact) }); allocs != 0 {
		t.Fatalf("BatchScorer.Predict on compact rows allocates %.0f objects per run, want 0", allocs)
	}
}
