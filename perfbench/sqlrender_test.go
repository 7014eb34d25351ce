package main

import (
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/query"
	"ps3/internal/sql"
)

// TestRenderRoundTripsGeneratedQueries renders 300 generated queries per
// dataset and parses each back to the same query. It also counts how many
// of them query.Query.String alone would have sent as unparseable text.
func TestRenderRoundTripsGeneratedQueries(t *testing.T) {
	for _, name := range dataset.Names() {
		ds, err := dataset.ByName(name, dataset.Config{Rows: 4000, Parts: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := query.NewGenerator(ds.Workload, ds.Table, 5)
		if err != nil {
			t.Fatal(err)
		}
		qs := gen.SampleN(300)
		unparseable := 0
		for _, q := range qs {
			if _, err := renderChecked(q); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if _, _, err := sql.Parse(q.String()); err != nil {
				unparseable++
			}
		}
		if unparseable == 0 {
			t.Errorf("%s: every String() parsed; the renderer may no longer be needed", name)
		}
		t.Logf("%s: %d/%d generated queries round-trip; String() fails to parse for %d", name, len(qs), len(qs), unparseable)
	}
}

func TestRenderShapes(t *testing.T) {
	for _, c := range []struct {
		q    *query.Query
		want string
	}{
		{
			&query.Query{
				GroupBy: []string{"g"},
				Aggs: []query.Aggregate{
					{Kind: query.Count, Name: "n"},
					{Kind: query.Sum, Expr: query.Col("a").Sub(query.Col("b")), Filter: &query.Clause{Col: "s", Op: query.OpEq, Strs: []string{"it's"}}},
					{Kind: query.Avg, Expr: query.LinearExpr{Terms: []query.Term{{Col: "a", Coef: -1}}, Const: -2.5}},
				},
				Pred: &query.And{Children: []query.Pred{
					&query.Or{Children: []query.Pred{
						&query.Clause{Col: "x", Op: query.OpLt, Num: -1e-7},
						&query.Not{Child: &query.Clause{Col: "s", Op: query.OpIn, Strs: []string{"a", "b c"}}},
					}},
					&query.Clause{Col: "y", Op: query.OpGe, Num: 1e21},
				}},
			},
			"SELECT g, COUNT(*) AS n, SUM(a - b) FILTER (WHERE s = 'it''s'), AVG(-a - 2.5) FROM t " +
				"WHERE ((x < -1e-07 OR NOT s IN ('a', 'b c')) AND y >= 1e+21) GROUP BY g",
		},
	} {
		got, err := renderChecked(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("render = %q\nwant     %q", got, c.want)
		}
	}
}

func TestRenderRejectsShapesTheDialectLacks(t *testing.T) {
	for _, q := range []*query.Query{
		{Aggs: []query.Aggregate{{Kind: query.Sum, Expr: query.LinearExpr{Terms: []query.Term{{Col: "a", Coef: 2}}}}}},
		{Aggs: []query.Aggregate{{Kind: query.Count}}, Pred: &query.Clause{Col: "s", Op: query.OpNe, Strs: []string{"x"}}},
	} {
		if text, err := renderSQL(q); err == nil {
			t.Errorf("rendered %s as %q, want an error", q, text)
		}
	}
}
