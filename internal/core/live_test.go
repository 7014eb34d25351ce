package core

import (
	"math/rand"
	"strings"
	"testing"

	"ps3/internal/dataset"
	"ps3/internal/exec"
	"ps3/internal/query"
	"ps3/internal/stats"
	"ps3/internal/table"
)

// TestIngestOnImmutableSourceErrors: systems over plain tables have no
// append path; the facade must say so rather than panic or no-op.
func TestIngestOnImmutableSourceErrors(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 2000, Parts: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(ds.Table, Options{Workload: ds.Workload, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(nil, nil); err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Fatalf("Ingest on immutable source: %v, want immutable-source error", err)
	}
	if err := sys.IngestBatch(nil, nil); err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Fatalf("IngestBatch on immutable source: %v, want immutable-source error", err)
	}
	if err := sys.Freeze(); err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Fatalf("Freeze on immutable source: %v, want immutable-source error", err)
	}
}

// TestRebindCarriesTrainedPicker: the publish step must keep the trained
// picker and LSS working over the extended stats without retraining, and
// the rebound system must answer queries over the grown partition set.
func TestRebindCarriesTrainedPicker(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 8000, Parts: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := &table.Table{Schema: ds.Table.Schema, Dict: ds.Table.Dict, Parts: ds.Table.Parts[:15]}
	sys, ts, queries := trainedOver(t, base, ds)

	ext, err := ts.ExtendedWith(nil, ds.Table.Parts[15:], 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := sys.Rebind(ds.Table, ext)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Picker == nil {
		t.Fatal("rebind dropped the trained picker")
	}
	if grown.Picker == sys.Picker {
		t.Fatal("rebind must copy the picker, not alias it (the original keeps its stats binding)")
	}
	if grown.Picker.TS != ext {
		t.Fatal("rebound picker still reads the old stats")
	}
	if sys.Picker.TS != ts {
		t.Fatal("rebind mutated the original system's picker")
	}
	for _, q := range queries {
		res, err := grown.Run(q, 0.25)
		if err != nil {
			t.Fatalf("Run over rebound system: %v", err)
		}
		if res.PartsRead == 0 && len(res.Values) > 0 {
			t.Fatal("rebound system answered without reading partitions")
		}
	}
	// Exact answers over the rebound system see all 20 partitions.
	if grown.Source.NumParts() != 20 {
		t.Fatalf("rebound source has %d partitions, want 20", grown.Source.NumParts())
	}
}

// TestRebindRejectsForeignStats: stats built independently have their own
// feature space; silently rebinding a picker to them would misread every
// slot, so Rebind must refuse.
func TestRebindRejectsForeignStats(t *testing.T) {
	ds, err := dataset.Aria(dataset.Config{Rows: 4000, Parts: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sys, _, _ := trainedOver(t, ds.Table, ds)
	foreign, err := stats.Build(ds.Table, stats.Options{GroupableCols: ds.Workload.GroupableCols})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Rebind(ds.Table, foreign); err == nil {
		t.Fatal("rebind to independently built stats must be rejected")
	}
}

// trainedOver builds and trains a system over tbl using ds's workload.
func trainedOver(t *testing.T, tbl *table.Table, ds *dataset.Dataset) (*System, *stats.TableStats, []*query.Query) {
	t.Helper()
	sys, err := New(tbl, Options{Workload: ds.Workload, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(ds.Workload, tbl, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(gen.SampleN(15), nil); err != nil {
		t.Fatal(err)
	}
	return sys, sys.Stats, gen.SampleN(6)
}

// TestPickBatchMatchesReferenceAllDatasets: on every paper dataset's
// feature space (widths from tens to hundreds of slots, different
// groupable and predicate columns), the served pick path selects exactly
// what the reference pipeline selects.
func TestPickBatchMatchesReferenceAllDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		ds, err := dataset.ByName(name, dataset.Config{Rows: 12000, Parts: 60, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sys, ts, test := trainedOver(t, ds.Table, ds)
		for qi, q := range test {
			for _, n := range []int{3, 6, 12} {
				ref := sys.Picker.PickReference(q, ts.Features(q), n, rand.New(rand.NewSource(int64(qi*19+n))))
				got := sys.Picker.PickBatch(q, n, rand.New(rand.NewSource(int64(qi*19+n))), exec.Options{Parallelism: 2})
				if len(got) != len(ref) {
					t.Fatalf("%s query %d budget %d: PickBatch selected %d partitions, reference %d", name, qi, n, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s query %d budget %d: selection %d is %+v, reference %+v", name, qi, n, i, got[i], ref[i])
					}
				}
			}
		}
	}
}
