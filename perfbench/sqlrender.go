package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ps3/internal/query"
	"ps3/internal/sql"
)

// renderSQL writes q as text the ps3 SQL dialect parses back into q.
// query.Query.String is not that text: it double-quotes string literals and
// leaves IN-list items bare, so most generated queries with a categorical
// predicate fail sql.Parse. The renderer single-quotes literals (doubling
// embedded quotes), quotes IN lists and spells FILTER clauses and negated
// leading terms the way the parser reads them. Shapes the dialect cannot
// express, such as a string inequality or a coefficient other than ±1, are
// an error rather than a silently different query.
func renderSQL(q *query.Query) (string, error) {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, g := range q.GroupBy {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(g)
	}
	for i, a := range q.Aggs {
		if i > 0 || len(q.GroupBy) > 0 {
			sb.WriteString(", ")
		}
		if err := renderAgg(&sb, a); err != nil {
			return "", err
		}
	}
	sb.WriteString(" FROM t")
	if q.Pred != nil {
		sb.WriteString(" WHERE ")
		if err := renderPred(&sb, q.Pred); err != nil {
			return "", err
		}
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(q.GroupBy, ", "))
	}
	return sb.String(), nil
}

// renderChecked renders q and proves the text parses back to the same
// query, compared through query.Query.String.
func renderChecked(q *query.Query) (string, error) {
	text, err := renderSQL(q)
	if err != nil {
		return "", fmt.Errorf("render %s: %w", q, err)
	}
	back, _, err := sql.Parse(text)
	if err != nil {
		return "", fmt.Errorf("rendered SQL does not parse: %q: %w", text, err)
	}
	if back.String() != q.String() {
		return "", fmt.Errorf("rendered SQL changes the query: %q parses to %s, want %s", text, back, q)
	}
	return text, nil
}

func renderAgg(sb *strings.Builder, a query.Aggregate) error {
	switch a.Kind {
	case query.Count:
		sb.WriteString("COUNT(*)")
	case query.Sum, query.Avg:
		sb.WriteString(a.Kind.String())
		sb.WriteByte('(')
		if err := renderExpr(sb, a.Expr); err != nil {
			return err
		}
		sb.WriteByte(')')
	default:
		return fmt.Errorf("aggregate kind %v", a.Kind)
	}
	if a.Filter != nil {
		sb.WriteString(" FILTER (WHERE ")
		if err := renderPred(sb, a.Filter); err != nil {
			return err
		}
		sb.WriteByte(')')
	}
	if a.Name != "" {
		sb.WriteString(" AS ")
		sb.WriteString(a.Name)
	}
	return nil
}

func renderExpr(sb *strings.Builder, e query.LinearExpr) error {
	for i, t := range e.Terms {
		switch {
		case t.Coef == 1 && i == 0:
		case t.Coef == 1:
			sb.WriteString(" + ")
		case t.Coef == -1 && i == 0:
			sb.WriteByte('-')
		case t.Coef == -1:
			sb.WriteString(" - ")
		default:
			return fmt.Errorf("coefficient %g on %s: the dialect has no multiplication", t.Coef, t.Col)
		}
		sb.WriteString(t.Col)
	}
	switch {
	case len(e.Terms) == 0:
		return renderNum(sb, e.Const)
	case e.Const > 0:
		sb.WriteString(" + ")
		return renderNum(sb, e.Const)
	case e.Const < 0:
		sb.WriteString(" - ")
		return renderNum(sb, -e.Const)
	}
	return nil
}

func renderNum(sb *strings.Builder, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("literal %g has no SQL form", v)
	}
	sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	return nil
}

func renderString(sb *strings.Builder, s string) {
	sb.WriteByte('\'')
	sb.WriteString(strings.ReplaceAll(s, "'", "''"))
	sb.WriteByte('\'')
}

func renderPred(sb *strings.Builder, p query.Pred) error {
	switch p := p.(type) {
	case *query.And:
		return renderJunction(sb, p.Children, " AND ")
	case *query.Or:
		return renderJunction(sb, p.Children, " OR ")
	case *query.Not:
		sb.WriteString("NOT ")
		return renderPred(sb, p.Child)
	case *query.Clause:
		return renderClause(sb, p)
	default:
		return fmt.Errorf("predicate node %T", p)
	}
}

// renderJunction parenthesizes every AND/OR node, as String does, so the
// parse tree keeps the generated nesting.
func renderJunction(sb *strings.Builder, children []query.Pred, sep string) error {
	sb.WriteByte('(')
	for i, c := range children {
		if i > 0 {
			sb.WriteString(sep)
		}
		if err := renderPred(sb, c); err != nil {
			return err
		}
	}
	sb.WriteByte(')')
	return nil
}

func renderClause(sb *strings.Builder, c *query.Clause) error {
	sb.WriteString(c.Col)
	switch {
	case c.Op == query.OpIn:
		sb.WriteString(" IN (")
		for i, s := range c.Strs {
			if i > 0 {
				sb.WriteString(", ")
			}
			renderString(sb, s)
		}
		sb.WriteByte(')')
		return nil
	case len(c.Strs) == 1 && c.Op == query.OpEq:
		sb.WriteString(" = ")
		renderString(sb, c.Strs[0])
		return nil
	case len(c.Strs) > 0:
		return fmt.Errorf("string comparison %s on %s: the dialect reads it as NOT (=)", c.Op, c.Col)
	}
	sb.WriteByte(' ')
	sb.WriteString(c.Op.String())
	sb.WriteByte(' ')
	return renderNum(sb, c.Num)
}
