package stats

import (
	"testing"

	"ps3/internal/query"
)

// testPreds returns a battery of predicate shapes covering every compiled
// node kind: single clauses (numeric and categorical, every operator),
// negations of both, general negations, conjunctions with multi-clause
// per-column ranges (bounds, equalities, inequalities, contradictions),
// disjunctions, nesting, unknown columns, and dictionary misses.
func testPreds() []query.Pred {
	return []query.Pred{
		nil,
		&query.Clause{Col: "x", Op: query.OpGt, Num: 15},
		&query.Clause{Col: "x", Op: query.OpLe, Num: 8},
		&query.Clause{Col: "x", Op: query.OpEq, Num: 20.5},
		&query.Clause{Col: "x", Op: query.OpNe, Num: 20.5},
		&query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"a"}},
		&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "rare"}},
		&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"nowhere", "b"}},
		&query.Clause{Col: "cat", Op: query.OpNe, Strs: []string{"b"}},
		&query.Clause{Col: "ghost", Op: query.OpEq, Num: 1},
		&query.Not{Child: &query.Clause{Col: "x", Op: query.OpLt, Num: 12}},
		&query.Not{Child: query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGt, Num: 5},
			&query.Clause{Col: "y", Op: query.OpLt, Num: 4},
		)},
		query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGe, Num: 10},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 30},
			&query.Clause{Col: "y", Op: query.OpGt, Num: 2},
		),
		query.NewAnd( // equality inside range, plus inequality point
			&query.Clause{Col: "x", Op: query.OpEq, Num: 20.2},
			&query.Clause{Col: "x", Op: query.OpGe, Num: 10},
			&query.Clause{Col: "x", Op: query.OpNe, Num: 25},
		),
		query.NewAnd( // conflicting equalities → 0
			&query.Clause{Col: "x", Op: query.OpEq, Num: 1},
			&query.Clause{Col: "x", Op: query.OpEq, Num: 2},
		),
		query.NewAnd( // equality outside the merged range → 0
			&query.Clause{Col: "x", Op: query.OpEq, Num: 50},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 40},
		),
		query.NewAnd( // mixed numeric + categorical + unknown column
			&query.Clause{Col: "x", Op: query.OpGt, Num: 12},
			&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "b"}},
			&query.Clause{Col: "ghost", Op: query.OpGt, Num: 0},
		),
		query.NewOr(
			&query.Clause{Col: "x", Op: query.OpLt, Num: 5},
			&query.Clause{Col: "x", Op: query.OpGt, Num: 45},
		),
		query.NewOr(
			query.NewAnd(
				&query.Clause{Col: "x", Op: query.OpGt, Num: 10},
				&query.Clause{Col: "y", Op: query.OpLt, Num: 3},
			),
			&query.Clause{Col: "cat", Op: query.OpEq, Strs: []string{"rare"}},
			&query.Not{Child: &query.Clause{Col: "y", Op: query.OpGe, Num: 5}},
		),
	}
}

// TestSelProgramMatchesReference: the compiled selectivity program must
// reproduce the reference estimator bit for bit on every partition, for
// every predicate shape.
func TestSelProgramMatchesReference(t *testing.T) {
	tbl := buildTestTable(t, 6, 40)
	ts := buildStats(t, tbl)
	for pi, pred := range testPreds() {
		ref := newSelEstimator(ts, pred)
		prog := ts.compileSel(pred)
		for i, ps := range ts.Parts {
			ru, rind, rmin, rmax := ref.estimate(ps)
			gu, gind, gmin, gmax := prog.estimate(ps)
			if ru != gu || rind != gind || rmin != gmin || rmax != gmax {
				t.Fatalf("pred %d partition %d: program (%v,%v,%v,%v) != reference (%v,%v,%v,%v)",
					pi, i, gu, gind, gmin, gmax, ru, rind, rmin, rmax)
			}
		}
	}
}

// TestFeaturePlanMatchesFeatures: FillRow must reproduce the reference
// Features matrix bit for bit on the live slots, across queries that mask
// different column subsets, and every slot it leaves out must be zero in
// the reference.
func TestFeaturePlanMatchesFeatures(t *testing.T) {
	tbl := buildTestTable(t, 6, 40)
	ts := buildStats(t, tbl)
	queries := []*query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}}},
		{Aggs: []query.Aggregate{{Kind: query.Count}}, GroupBy: []string{"cat"}},
		{
			Aggs:    []query.Aggregate{{Kind: query.Avg, Expr: query.Col("y")}},
			GroupBy: []string{"cat"},
			Pred: query.NewAnd(
				&query.Clause{Col: "x", Op: query.OpGt, Num: 12},
				&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "rare"}},
			),
		},
	}
	for _, pred := range testPreds() {
		queries = append(queries, &query.Query{
			Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
			GroupBy: []string{"cat"},
			Pred:    pred,
		})
	}
	narrowed := 0
	for qi, q := range queries {
		want := ts.Features(q)
		plan := ts.NewFeaturePlan(q)
		if plan.NumParts() != len(want) || len(plan.SlotCols()) != ts.Space.Dim() {
			t.Fatalf("query %d: plan shape %dx%d, want %dx%d", qi, plan.NumParts(), len(plan.SlotCols()), len(want), ts.Space.Dim())
		}
		live, col := plan.LiveSlots(), plan.SlotCols()
		if plan.Width() < len(col) {
			narrowed++
		}
		for c, j := range live {
			if col[j] != int32(c) || (c < 4 && j != int32(c)) {
				t.Fatalf("query %d: column %d holds slot %d but SlotCols maps it to %d", qi, c, j, col[j])
			}
		}
		dst := make([]float64, plan.Width())
		for i := range want {
			plan.FillRow(dst, i)
			for j := range want[i] {
				if col[j] < 0 {
					if want[i][j] != 0 {
						t.Fatalf("query %d partition %d: dropped slot %d is %v in Features", qi, i, j, want[i][j])
					}
				} else if got := dst[col[j]]; got != want[i][j] {
					t.Fatalf("query %d partition %d slot %d: plan %v != Features %v", qi, i, j, got, want[i][j])
				}
			}
		}
	}
	if narrowed == 0 {
		t.Fatal("no query dropped a masked slot from its rows")
	}
}

// TestFillRowZeroAllocs: after plan compilation, featurizing a partition
// must not allocate.
func TestFillRowZeroAllocs(t *testing.T) {
	tbl := buildTestTable(t, 6, 40)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		GroupBy: []string{"cat"},
		Pred: query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGt, Num: 12},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 44},
			&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "b"}},
		),
	}
	plan := ts.NewFeaturePlan(q)
	dst := make([]float64, plan.Width())
	part := 0
	allocs := testing.AllocsPerRun(50, func() {
		plan.FillRow(dst, part)
		part = (part + 1) % plan.NumParts()
	})
	if allocs != 0 {
		t.Fatalf("FillRow allocates %.0f objects per call, want 0", allocs)
	}
}

// TestFeaturePlanConcurrentFill: one plan, many goroutines filling disjoint
// rows — results must match the sequential reference (run under -race).
func TestFeaturePlanConcurrentFill(t *testing.T) {
	tbl := buildTestTable(t, 8, 30)
	ts := buildStats(t, tbl)
	q := &query.Query{
		Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		Pred: &query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "rare"}},
	}
	want := ts.Features(q)
	plan := ts.NewFeaturePlan(q)
	m := plan.Width()
	got := make([]float64, plan.NumParts()*m)
	done := make(chan int, plan.NumParts())
	for i := 0; i < plan.NumParts(); i++ {
		go func(i int) {
			plan.FillRow(got[i*m:(i+1)*m], i)
			done <- i
		}(i)
	}
	for i := 0; i < plan.NumParts(); i++ {
		<-done
	}
	for i := range want {
		for c, j := range plan.LiveSlots() {
			if got[i*m+c] != want[i][j] {
				t.Fatalf("partition %d slot %d: concurrent fill %v != %v", i, j, got[i*m+c], want[i][j])
			}
		}
	}
}

// BenchmarkFeaturize compares the reference Features matrix build against a
// compiled plan filling a reused scratch matrix for the same query.
func BenchmarkFeaturize(b *testing.B) {
	tbl := buildTestTable(b, 64, 500)
	ts, err := Build(tbl, Options{GroupableCols: []string{"cat"}})
	if err != nil {
		b.Fatal(err)
	}
	q := &query.Query{
		Aggs:    []query.Aggregate{{Kind: query.Sum, Expr: query.Col("x")}},
		GroupBy: []string{"cat"},
		Pred: query.NewAnd(
			&query.Clause{Col: "x", Op: query.OpGt, Num: 100},
			&query.Clause{Col: "x", Op: query.OpLt, Num: 500},
			&query.Clause{Col: "cat", Op: query.OpIn, Strs: []string{"a", "b"}},
		),
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts.Features(q)
		}
	})
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		plan := ts.NewFeaturePlan(q)
		scratch := make([]float64, plan.NumParts()*plan.Width())
		m := plan.Width()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for part := 0; part < plan.NumParts(); part++ {
				plan.FillRow(scratch[part*m:(part+1)*m], part)
			}
		}
	})
}
