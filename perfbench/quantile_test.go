package main

import (
	"math"
	"testing"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	s := summarize(xs, 0.99)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 0.99 || s.Tail != 990 {
		t.Fatalf("summarize 1..1000 = %+v, want N 1000, p50 500, p99 990", s)
	}
	// 500 samples leave only five beyond p99: the tail falls back to p90.
	s = summarize(xs[:500], 0.99)
	if s.TailP != 0.9 || s.N != 500 {
		t.Fatalf("summarize of 500 samples = %+v, want the p90 tail", s)
	}
}

func TestFailuresCountAsMissingTheLimit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if s := summarize(xs, 0.9); !math.IsInf(s.Tail, 1) || s.P50 != 1 {
		t.Fatalf("11%% failures: %+v, want an infinite p90 and a p50 of 1", s)
	}
}
