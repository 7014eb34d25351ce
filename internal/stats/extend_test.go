package stats

import (
	"math"
	"reflect"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/table"
)

// extendFixture builds stats over the first split partitions of a dataset
// table and hands back the remaining partitions (whose IDs are already the
// global positions the extension requires).
func extendFixture(t *testing.T, split int) (*TableStats, []*table.Partition, *table.Table) {
	t.Helper()
	ds, err := dataset.Aria(dataset.Config{Rows: 6000, Parts: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: ds.Table.Schema, Dict: ds.Table.Dict, Parts: ds.Table.Parts[:split]}
	ts, err := Build(base, Options{GroupableCols: ds.Workload.GroupableCols})
	if err != nil {
		t.Fatal(err)
	}
	return ts, ds.Table.Parts[split:], ds.Table
}

// TestExtendedWithSharesBase pins the sharing contract: old partition
// sketches by pointer, the fitted feature space and frozen global heavy
// hitters by identity, and the base matrix extended without retouching the
// existing rows.
func TestExtendedWithSharesBase(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	ext, err := ts.ExtendedWith(nil, rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Parts) != len(ts.Parts)+len(rest) {
		t.Fatalf("extension has %d partitions, want %d", len(ext.Parts), len(ts.Parts)+len(rest))
	}
	for i := range ts.Parts {
		if ext.Parts[i] != ts.Parts[i] {
			t.Fatalf("partition %d stats were copied, want shared pointer", i)
		}
	}
	if ext.Space != ts.Space {
		t.Fatal("feature space must be shared by identity (picker rebind depends on it)")
	}
	if !reflect.DeepEqual(ext.GlobalHH, ts.GlobalHH) {
		t.Fatal("global heavy hitters must stay frozen at the base build")
	}
	m := ts.Space.Dim()
	if !reflect.DeepEqual(ext.base[:len(ts.Parts)*m], ts.base) {
		t.Fatal("existing base-matrix rows changed during extension")
	}
	if len(ext.base) != len(ext.Parts)*m {
		t.Fatalf("base matrix has %d values, want %d", len(ext.base), len(ext.Parts)*m)
	}
	// ts itself untouched.
	if len(ts.Parts) != 8 || len(ts.base) != 8*m {
		t.Fatal("extension mutated the receiver")
	}
}

// TestExtendedWithIncrementalConsistency: extending one partition at a time
// must land bit-identically with extending all at once — the property that
// lets the ingest pipeline cut segments at arbitrary flush boundaries.
func TestExtendedWithIncrementalConsistency(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	all, err := ts.ExtendedWith(nil, rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	step := ts
	for _, p := range rest {
		if step, err = step.ExtendedWith(nil, []*table.Partition{p}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(step.base, all.base) {
		t.Fatal("one-at-a-time extension diverges from all-at-once in the base matrix")
	}
	for i := range all.Parts {
		if !reflect.DeepEqual(step.Parts[i].Bitmap, all.Parts[i].Bitmap) {
			t.Fatalf("partition %d bitmap diverges between extension orders", i)
		}
	}
}

// TestExtendedWithDuplicatePartition: re-appending a copy of an existing
// partition must reproduce its feature row and bitmap exactly — sketches
// and features are functions of the rows and the frozen global state only.
func TestExtendedWithDuplicatePartition(t *testing.T) {
	ts, _, full := extendFixture(t, 8)
	dup := *full.Parts[3]
	dup.ID = len(ts.Parts)
	ext, err := ts.ExtendedWith(nil, []*table.Partition{&dup}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ts.Space.Dim()
	origRow := ts.base[3*m : 4*m]
	dupRow := ext.base[len(ts.Parts)*m : (len(ts.Parts)+1)*m]
	if !reflect.DeepEqual(origRow, dupRow) {
		t.Fatal("duplicated partition's feature row differs from the original")
	}
	if !reflect.DeepEqual(ext.Parts[len(ts.Parts)].Bitmap, ts.Parts[3].Bitmap) {
		t.Fatal("duplicated partition's heavy-hitter bitmap differs from the original")
	}
}

// TestExtendedWithParallelismInvariance: the extension must be bit-identical
// at any parallelism (determinism contract of the whole codebase).
func TestExtendedWithParallelismInvariance(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	seq, err := ts.ExtendedWith(nil, rest, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ts.ExtendedWith(nil, rest, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.base, par.base) {
		t.Fatal("base matrix depends on parallelism")
	}
	for i := range seq.Parts {
		if !reflect.DeepEqual(seq.Parts[i].Bitmap, par.Parts[i].Bitmap) {
			t.Fatalf("partition %d bitmap depends on parallelism", i)
		}
	}
}

func TestExtendedWithRejectsMisnumberedPartition(t *testing.T) {
	ts, rest, _ := extendFixture(t, 8)
	bad := *rest[0]
	bad.ID = 99
	if _, err := ts.ExtendedWith(nil, []*table.Partition{&bad}, 1); err == nil {
		t.Fatal("partition with non-positional ID must be rejected")
	}
}

// rebuiltCaches computes ts's normalized base and per-slot ranges from
// scratch over the same rows, on a copy whose caches start empty.
func rebuiltCaches(ts *TableStats) (nb, lo, hi []float64, ok []bool) {
	fresh := &TableStats{Schema: ts.Schema, Opts: ts.Opts, Parts: ts.Parts, GlobalHH: ts.GlobalHH, Space: ts.Space, base: ts.base}
	lo, hi, ok = fresh.BaseRanges()
	return fresh.NormBase(), lo, hi, ok
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestExtendedWithInheritsCaches: along a chain of extensions, each result
// holds its normalized base and per-slot ranges as soon as ExtendedWith
// returns, bit-identical to caches rebuilt from scratch over its rows —
// whether or not the chain's first parent had built its own. A NaN base
// value, in an inherited row or in a new one, keeps its slot's range
// unknown.
func TestExtendedWithInheritsCaches(t *testing.T) {
	for _, warm := range []bool{true, false} {
		name := "parent never built caches"
		if warm {
			name = "parent built caches"
		}
		t.Run(name, func(t *testing.T) {
			ts, rest, _ := extendFixture(t, 6)
			m := ts.Space.Dim()
			train := make([][]float64, len(ts.Parts))
			for i := range train {
				train[i] = ts.base[i*m : (i+1)*m]
			}
			ts.Space.Fit(train)

			// A NaN in an inherited row of the first parent, and one in a
			// new row of the second extension (sketches never produce NaN
			// from finite data, so it is planted and that extension's
			// caches rebuilt from its parent's, as ExtendedWith does).
			const inheritedNaN, newNaN = 4, 5
			ts.base[2*m+inheritedNaN] = math.NaN()
			if warm {
				ts.NormBase()
				ts.BaseRanges()
			}
			step := ts
			for k, chunk := range [][]*table.Partition{rest[0:2], rest[2:4], rest[4:6]} {
				next, err := step.ExtendedWith(nil, chunk, 1)
				if err != nil {
					t.Fatal(err)
				}
				if next.normBase == nil || next.baseLo == nil {
					t.Fatalf("extension %d returned without its caches built", k)
				}
				if k == 1 {
					next.base[len(step.Parts)*m+newNaN] = math.NaN()
					next.extendCaches(step, len(step.Parts))
				}
				step = next
				nb, lo, hi, ok := rebuiltCaches(step)
				gotLo, gotHi, gotOK := step.BaseRanges()
				if !sameBits(step.NormBase(), nb) {
					t.Fatalf("extension %d: NormBase differs from a from-scratch build", k)
				}
				if !sameBits(gotLo, lo) || !sameBits(gotHi, hi) || !reflect.DeepEqual(gotOK, ok) {
					t.Fatalf("extension %d: BaseRanges differ from a from-scratch build", k)
				}
				if gotOK[inheritedNaN] {
					t.Fatalf("extension %d: slot %d holds an inherited NaN but its range is ok", k, inheritedNaN)
				}
				if k >= 1 && gotOK[newNaN] {
					t.Fatalf("extension %d: slot %d holds a new row's NaN but its range is ok", k, newNaN)
				}
				if k == 0 && !gotOK[newNaN] {
					t.Fatalf("extension %d: slot %d has no NaN yet but its range is unknown", k, newNaN)
				}
			}
		})
	}
}
