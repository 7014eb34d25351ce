package cluster

import (
	"math/bits"
	"math/rand"
	"slices"
)

// Exemplar is one selected representative: the index of the chosen point and
// the weight it carries (its cluster's size, §4.2).
type Exemplar struct {
	Point  int
	Weight float64
}

// medianVector computes the coordinate-wise median of the given points into
// med, using col (len ≥ len(members)) as selection scratch. Each
// coordinate's median is found by selection rather than a full sort: the
// middle order statistics are the values a sort would place in the middle,
// so the median is the same number. (Equal values are interchangeable, so
// the one exception is a zero median's sign, which no sort pins down
// either — pdqsort is not stable — and which no squared distance to the
// median can observe.) A coordinate holding NaN is sorted instead, keeping
// the order slices.Sort gives NaN, and with it the order statistic.
func medianVector(points [][]float64, members []int, med, col []float64) {
	n := len(members)
	k := n / 2
	for j := range med {
		c := col[:n]
		nan := false
		for i, m := range members {
			x := points[m][j]
			c[i] = x
			nan = nan || x != x
		}
		if nan {
			slices.Sort(c)
		} else {
			selectKth(c, k)
			if n%2 == 0 {
				// c[:k] holds the k smallest values: move their max, the
				// lower middle, to where a sort would put it.
				top := 0
				for i := 1; i < k; i++ {
					if c[i] > c[top] {
						top = i
					}
				}
				c[top], c[k-1] = c[k-1], c[top]
			}
		}
		if n%2 == 1 {
			med[j] = c[k]
		} else {
			med[j] = (c[k-1] + c[k]) / 2
		}
	}
}

// selectKth reorders c, which must hold no NaN, so that c[k] is the value
// an ascending sort would put at index k, every value of c[:k] is ≤ c[k]
// and every value of c[k+1:] is ≥ c[k]. It is quickselect with a
// median-of-three pivot; small ranges, and ranges that keep failing to
// shrink (bounding the worst case at O(n log n)), are sorted instead.
func selectKth(c []float64, k int) {
	lo, hi := 0, len(c)-1
	for budget := 2 * bits.Len(uint(len(c))); hi-lo > 12; budget-- {
		if budget == 0 {
			break
		}
		mid := lo + (hi-lo)/2
		if c[mid] < c[lo] {
			c[mid], c[lo] = c[lo], c[mid]
		}
		if c[hi] < c[lo] {
			c[hi], c[lo] = c[lo], c[hi]
		}
		if c[hi] < c[mid] {
			c[hi], c[mid] = c[mid], c[hi]
		}
		pivot := c[mid]
		// Hoare partition: afterwards c[lo:i] ≤ pivot ≤ c[j+1:hi+1], and
		// anything strictly between j and i equals the pivot.
		i, j := lo, hi
		for i <= j {
			for c[i] < pivot {
				i++
			}
			for pivot < c[j] {
				j--
			}
			if i <= j {
				c[i], c[j] = c[j], c[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.Sort(c[lo : hi+1])
}

// MedianExemplars picks, for each cluster, the member closest to the
// cluster's median feature vector — the paper's (biased, zero-variance)
// estimator. Weights equal cluster sizes. Cluster membership is gathered by
// a counting pass into one backing array, and the median/sort scratch is
// shared across clusters, so the only retained allocation is the result.
func MedianExemplars(points [][]float64, a Assignment) []Exemplar {
	n := len(a.Labels)
	if n == 0 {
		return nil
	}
	// Counting-sort members by cluster: starts[c] marks each cluster's
	// segment in the shared index array.
	counts := make([]int, a.K+1)
	for _, l := range a.Labels {
		counts[l+1]++
	}
	for c := 1; c <= a.K; c++ {
		counts[c] += counts[c-1]
	}
	idx := make([]int, n)
	next := make([]int, a.K)
	for i, l := range a.Labels {
		idx[counts[l]+next[l]] = i
		next[l]++
	}
	dim := len(points[0])
	scratch := make([]float64, dim+n)
	med, col := scratch[:dim], scratch[dim:]
	out := make([]Exemplar, 0, a.K)
	for c := 0; c < a.K; c++ {
		members := idx[counts[c]:counts[c+1]]
		if len(members) == 0 {
			continue
		}
		medianVector(points, members, med, col)
		best, bestD := members[0], sqDist(points[members[0]], med)
		for _, m := range members[1:] {
			if d := sqDistBounded(points[m], med, bestD); d < bestD {
				best, bestD = m, d
			}
		}
		out = append(out, Exemplar{Point: best, Weight: float64(len(members))})
	}
	return out
}

// RandomExemplars picks a uniformly random member per cluster — the unbiased
// estimator of Appendix D, analyzed as stratified SRSWoR with one draw per
// stratum.
func RandomExemplars(points [][]float64, a Assignment, rng *rand.Rand) []Exemplar {
	var out []Exemplar
	for _, members := range a.Members() {
		if len(members) == 0 {
			continue
		}
		pick := members[rng.Intn(len(members))]
		out = append(out, Exemplar{Point: pick, Weight: float64(len(members))})
	}
	return out
}
