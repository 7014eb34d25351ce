package gbt

import "math/bits"

// BatchScorer is a per-query specialization of an ensemble's feature-major
// batch tables (flat.go). Callers that evaluate many rows sharing fixed
// feature values — the picker's funnel, where every feature column the query
// does not use is masked to the same zero in every row — bind the scorer
// once per query: conditions on fixed features are evaluated at bind time
// and their masks folded into per-tree base bitvectors, so per-row scoring
// scans only the conditions of varying features. Masks commute under AND,
// so the specialized result is bit-identical to the unspecialized sweep.
//
// Rows may be compact: Bind takes a feature→column map, and a row stores
// only the features the map assigns a column, so fixed features need not
// be materialized at all.
//
// A BatchScorer owns reusable buffers and is not safe for concurrent use;
// callers pool scorers alongside their batch scratch. The zero value is
// ready to Bind.
type BatchScorer struct {
	m       *Model
	ok      bool
	entries []qsEntry
	// feats/off list only the varying features that carry conditions, by
	// row column: feats[i]'s entries are entries[off[i]:off[i+1]]. Rows
	// scan this compact list instead of every feature dimension.
	feats []int32
	off   []int32
	bv0   []uint64
	bv    []uint64
	// Walking fallback for ensembles without batch tables: col is the bound
	// feature→column map and full a model-width row holding the fixed
	// features, into which each row's columns are scattered before the
	// walk.
	col  []int32
	full []float64
}

// Bind specializes the scorer to m. col, one entry per model feature, maps
// feature j to the row column that holds it, or to -1 when rows do not
// store feature j. rangeOf(j) returns (lo, hi, true) when feature j is
// guaranteed to lie in [lo, hi] for every row of the batches to come —
// lo == hi declares a fixed value — and (_, _, false) when nothing is
// known. A feature without a column must be declared fixed. Conditions
// decidable from the range alone are resolved at bind time: a threshold
// ≥ hi always holds (the condition is dropped; thresholds are scanned
// ascending, so the rest of the feature's conditions drop with it), a
// threshold < lo always fails (its mask folds into the base bitvectors).
// Bind may be called repeatedly to re-specialize (buffers are reused).
func (s *BatchScorer) Bind(m *Model, col []int32, rangeOf func(j int) (lo, hi float64, ok bool)) {
	s.m = m
	f := m.flat
	if len(col) != f.dim {
		panic("gbt: BatchScorer.Bind: column map length differs from the model's feature count")
	}
	if !f.qsOK {
		s.ok = false
		s.col = col
		if cap(s.full) < f.dim {
			s.full = make([]float64, f.dim)
		}
		s.full = s.full[:f.dim]
		for j := range s.full {
			if col[j] < 0 {
				s.full[j] = fixedValue(j, rangeOf)
			}
		}
		return
	}
	s.ok = true
	trees := len(f.roots)
	if cap(s.bv0) < trees {
		s.bv0 = make([]uint64, trees)
		s.bv = make([]uint64, trees)
	}
	s.bv0 = s.bv0[:trees]
	s.bv = s.bv[:trees]
	for t := range s.bv0 {
		s.bv0[t] = ^uint64(0)
	}
	s.entries = s.entries[:0]
	s.feats = s.feats[:0]
	s.off = s.off[:0]
	for fi := 0; fi < f.dim; fi++ {
		eLo, eHi := f.qsFeatOff[fi], f.qsFeatOff[fi+1]
		if eLo == eHi {
			continue
		}
		c := col[fi]
		var vLo, vHi float64
		var known bool
		if c < 0 {
			vLo = fixedValue(fi, rangeOf)
			vHi, known = vLo, true
		} else {
			vLo, vHi, known = rangeOf(fi)
		}
		if known && vLo == vHi {
			// Fixed value: evaluate this feature's conditions now; failed
			// ones fold into the base bitvectors.
			for e := eLo; e < eHi; e++ {
				if vLo <= f.qsEntries[e].thresh {
					break
				}
				s.bv0[f.qsEntries[e].tree] &= f.qsEntries[e].mask
			}
			continue
		}
		mark := len(s.entries)
		for e := eLo; e < eHi; e++ {
			t := f.qsEntries[e].thresh
			if known && vHi <= t {
				// x ≤ vHi ≤ t for every row: this condition — and all later
				// (larger) thresholds — always hold.
				break
			}
			if known && !(vLo <= t) {
				// t < vLo ≤ x for every row: always fails.
				s.bv0[f.qsEntries[e].tree] &= f.qsEntries[e].mask
				continue
			}
			s.entries = append(s.entries, f.qsEntries[e])
		}
		if len(s.entries) > mark {
			s.feats = append(s.feats, c)
			s.off = append(s.off, int32(mark))
		}
	}
	s.off = append(s.off, int32(len(s.entries)))
}

// fixedValue returns the value rangeOf declares fixed for feature j, which
// rows do not store; a column-less feature with any other declaration is a
// caller bug.
func fixedValue(j int, rangeOf func(int) (float64, float64, bool)) float64 {
	lo, hi, ok := rangeOf(j)
	if !ok || lo != hi {
		panic("gbt: BatchScorer.Bind: feature without a column is not declared fixed")
	}
	return lo
}

// Predict fills dst[i] with the bound model's output for xs[i],
// bit-identical to Model.PredictBatch on the full rows xs stand for. Rows
// must agree with the fixed values declared at Bind time (varying columns
// are read; fixed features are not). Zero allocations after Bind.
func (s *BatchScorer) Predict(dst []float64, xs [][]float64) {
	if len(dst) != len(xs) {
		panic("gbt: BatchScorer.Predict dst/xs length mismatch")
	}
	if !s.ok {
		s.predictWalk(dst, xs)
		return
	}
	f := s.m.flat
	entries, feats, off := s.entries, s.feats, s.off
	bv, bv0 := s.bv, s.bv0
	leafOff, leafVal := f.qsLeafOff, f.qsLeafVal
	for i, x := range xs {
		copy(bv, bv0)
		for k, fi := range feats {
			xv := x[fi]
			for e := off[k]; e < off[k+1]; e++ {
				if xv <= entries[e].thresh {
					break
				}
				bv[entries[e].tree] &= entries[e].mask
			}
		}
		v := f.base
		for t := range bv {
			v += f.lr * leafVal[leafOff[t]+int32(bits.TrailingZeros64(bv[t]))]
		}
		dst[i] = v
	}
}

// predictWalk is Predict for ensembles too large for batch tables: each
// compact row is scattered into the model-width row and walked.
func (s *BatchScorer) predictWalk(dst []float64, xs [][]float64) {
	f := s.m.flat
	full := s.full
	for i, x := range xs {
		for j, c := range s.col {
			if c >= 0 {
				full[j] = x[c]
			}
		}
		dst[i] = f.predictRow(full)
	}
}
