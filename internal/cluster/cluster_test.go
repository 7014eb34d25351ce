package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// threeBlobs returns n points per blob around three well-separated centers in
// 2-D, plus the blob id of each point.
func threeBlobs(n int, rng *rand.Rand) (points [][]float64, blob []int) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for b, c := range centers {
		for i := 0; i < n; i++ {
			points = append(points, []float64{
				c[0] + rng.NormFloat64()*0.3,
				c[1] + rng.NormFloat64()*0.3,
			})
			blob = append(blob, b)
		}
	}
	return points, blob
}

// agreesWithBlobs checks that the assignment groups points exactly by blob:
// same blob → same label, different blob → different label.
func agreesWithBlobs(t *testing.T, a Assignment, blob []int) {
	t.Helper()
	labelOfBlob := map[int]int{}
	for i, l := range a.Labels {
		b := blob[i]
		if want, ok := labelOfBlob[b]; ok {
			if l != want {
				t.Fatalf("point %d of blob %d got label %d, blob already mapped to %d", i, b, l, want)
			}
		} else {
			labelOfBlob[b] = l
		}
	}
	seen := map[int]bool{}
	for _, l := range labelOfBlob {
		if seen[l] {
			t.Fatalf("two blobs share one cluster label: %v", labelOfBlob)
		}
		seen[l] = true
	}
}

func TestKMeansRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, blob := threeBlobs(20, rng)
	a := KMeans(points, 3, rand.New(rand.NewSource(2)), 0)
	if a.K != 3 {
		t.Fatalf("K = %d, want 3", a.K)
	}
	agreesWithBlobs(t, a, blob)
}

func TestHACWardRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points, blob := threeBlobs(15, rng)
	a := HAC(points, 3, Ward)
	if a.K != 3 {
		t.Fatalf("K = %d, want 3", a.K)
	}
	agreesWithBlobs(t, a, blob)
}

func TestHACSingleRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	points, blob := threeBlobs(15, rng)
	a := HAC(points, 3, Single)
	if a.K != 3 {
		t.Fatalf("K = %d, want 3", a.K)
	}
	agreesWithBlobs(t, a, blob)
}

func TestKMeansClampsKToN(t *testing.T) {
	points := [][]float64{{0}, {1}, {2}}
	a := KMeans(points, 10, rand.New(rand.NewSource(1)), 0)
	if a.K != 3 {
		t.Fatalf("K = %d, want clamp to 3", a.K)
	}
	// With k == n every point should sit in its own cluster.
	seen := map[int]bool{}
	for _, l := range a.Labels {
		if seen[l] {
			t.Fatalf("k==n but two points share label %d", l)
		}
		seen[l] = true
	}
}

func TestHACClampsKToN(t *testing.T) {
	points := [][]float64{{0}, {5}}
	a := HAC(points, 7, Ward)
	if a.K != 2 {
		t.Fatalf("K = %d, want 2", a.K)
	}
}

func TestKMeansEmptyInput(t *testing.T) {
	a := KMeans(nil, 3, rand.New(rand.NewSource(1)), 0)
	if len(a.Labels) != 0 {
		t.Fatalf("labels = %v, want empty", a.Labels)
	}
}

func TestHACEmptyInput(t *testing.T) {
	a := HAC(nil, 3, Single)
	if len(a.Labels) != 0 {
		t.Fatalf("labels = %v, want empty", a.Labels)
	}
}

func TestKMeansDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points, _ := threeBlobs(10, rng)
	a := KMeans(points, 4, rand.New(rand.NewSource(9)), 0)
	b := KMeans(points, 4, rand.New(rand.NewSource(9)), 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different assignments")
	}
}

func TestHACDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points, _ := threeBlobs(10, rng)
	a := HAC(points, 5, Ward)
	b := HAC(points, 5, Ward)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("HAC is not deterministic on identical input")
	}
}

func TestKMeansIdenticalPointsOneEffectiveCluster(t *testing.T) {
	points := make([][]float64, 8)
	for i := range points {
		points[i] = []float64{3, 3, 3}
	}
	a := KMeans(points, 2, rand.New(rand.NewSource(1)), 0)
	// All points are identical; whatever the labels, each cluster center is
	// the same point, so every member must be distance 0 from its center.
	for _, members := range a.Members() {
		for _, m := range members {
			if d := sqDist(points[m], []float64{3, 3, 3}); d != 0 {
				t.Fatalf("identical points produced nonzero distance %v", d)
			}
		}
	}
}

func TestMembersPartitionInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points, _ := threeBlobs(9, rng)
	a := KMeans(points, 4, rand.New(rand.NewSource(8)), 0)
	total := 0
	seen := make([]bool, len(points))
	for _, members := range a.Members() {
		for _, m := range members {
			if seen[m] {
				t.Fatalf("point %d appears in two clusters", m)
			}
			seen[m] = true
			total++
		}
	}
	if total != len(points) {
		t.Fatalf("Members covered %d points, want %d", total, len(points))
	}
}

func TestLinkageString(t *testing.T) {
	if Single.String() != "single" || Ward.String() != "ward" {
		t.Fatalf("Linkage strings: %q, %q", Single.String(), Ward.String())
	}
}

// --- exemplars ---

func TestMedianExemplarsWeightsSumToN(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	points, _ := threeBlobs(12, rng)
	a := KMeans(points, 5, rand.New(rand.NewSource(11)), 0)
	exs := MedianExemplars(points, a)
	var sum float64
	for _, e := range exs {
		if e.Point < 0 || e.Point >= len(points) {
			t.Fatalf("exemplar point %d out of range", e.Point)
		}
		sum += e.Weight
	}
	if sum != float64(len(points)) {
		t.Fatalf("weights sum to %v, want %d", sum, len(points))
	}
}

func TestMedianExemplarBelongsToItsCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	points, _ := threeBlobs(10, rng)
	a := HAC(points, 3, Ward)
	exs := MedianExemplars(points, a)
	members := a.Members()
	for _, e := range exs {
		cl := a.Labels[e.Point]
		if int(e.Weight) != len(members[cl]) {
			t.Fatalf("exemplar %d weight %v != cluster size %d", e.Point, e.Weight, len(members[cl]))
		}
	}
}

func TestMedianExemplarIsClosestToMedian(t *testing.T) {
	// One cluster with a known coordinate-wise median.
	points := [][]float64{{0}, {1}, {2}, {3}, {100}}
	a := Assignment{Labels: []int{0, 0, 0, 0, 0}, K: 1}
	exs := MedianExemplars(points, a)
	if len(exs) != 1 {
		t.Fatalf("got %d exemplars, want 1", len(exs))
	}
	// Median of {0,1,2,3,100} is 2 → exemplar must be the point at 2 (index 2).
	if exs[0].Point != 2 {
		t.Fatalf("exemplar = point %d, want 2 (closest to median)", exs[0].Point)
	}
	if exs[0].Weight != 5 {
		t.Fatalf("weight = %v, want 5", exs[0].Weight)
	}
}

func TestMedianVectorEvenCount(t *testing.T) {
	points := [][]float64{{1, 10}, {3, 20}, {5, 30}, {7, 40}}
	med := make([]float64, 2)
	medianVector(points, []int{0, 1, 2, 3}, med, make([]float64, 4))
	want := []float64{4, 25}
	if !reflect.DeepEqual(med, want) {
		t.Fatalf("median = %v, want %v", med, want)
	}
}

// medianBySort is the sort-based coordinate median medianVector replaced.
func medianBySort(points [][]float64, members []int, j int) float64 {
	c := make([]float64, len(members))
	for i, m := range members {
		c[i] = points[m][j]
	}
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// TestMedianVectorSelectionMatchesSort: the selection median equals the
// sort-based median on odd and even counts, heavy duplicates, signed zeros
// and NaN columns. Equal means the same bits, except that a zero median may
// carry either sign: ±0 compare equal, so neither the sort nor the
// selection fixes which zero lands in the middle.
func TestMedianVectorSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pools := [][]float64{
		{0, math.Copysign(0, -1)},
		{0, math.Copysign(0, -1), 1, -1},
		{1, 2, 2, 3, 3, 3},
		{math.NaN(), 1, 2, 0},
	}
	const dim = 6
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(120)
		if trial%2 == 0 && n%2 == 1 {
			n++
		}
		points := make([][]float64, n)
		for i := range points {
			row := make([]float64, dim)
			for j := range row {
				switch j {
				case 0: // continuous
					row[j] = rng.NormFloat64()
				case 1: // few distinct values, sorted input
					row[j] = float64(i * 3 / n)
				default:
					pool := pools[j-2]
					row[j] = pool[rng.Intn(len(pool))]
				}
			}
			points[i] = row
		}
		members := rng.Perm(n)[:1+rng.Intn(n)]
		med := make([]float64, dim)
		medianVector(points, members, med, make([]float64, len(members)))
		for j := range med {
			got, want := med[j], medianBySort(points, members, j)
			same := math.Float64bits(got) == math.Float64bits(want) ||
				(got == 0 && want == 0) ||
				(math.IsNaN(got) && math.IsNaN(want))
			if !same {
				t.Fatalf("trial %d: %d members, coordinate %d: selection median %v != sort median %v", trial, len(members), j, got, want)
			}
		}
	}
}

// TestSelectKthOrdersAroundK: after selection, index k holds the sorted
// value and every value left (right) of it is no larger (no smaller), on
// inputs shaped to defeat a naive pivot.
func TestSelectKthOrdersAroundK(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		c := make([]float64, n)
		for i := range c {
			switch trial % 4 {
			case 0:
				c[i] = rng.Float64()
			case 1:
				c[i] = float64(i) // ascending
			case 2:
				c[i] = float64(n - i) // descending
			default:
				c[i] = float64(rng.Intn(3)) // duplicates
			}
		}
		sorted := slices.Clone(c)
		slices.Sort(sorted)
		k := rng.Intn(n)
		selectKth(c, k)
		if c[k] != sorted[k] {
			t.Fatalf("trial %d: c[%d] = %v, sorted %v", trial, k, c[k], sorted[k])
		}
		for i, x := range c {
			if (i < k && x > c[k]) || (i > k && x < c[k]) {
				t.Fatalf("trial %d: c[%d] = %v on the wrong side of c[%d] = %v", trial, i, x, k, c[k])
			}
		}
	}
}

func TestRandomExemplarsStayInCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	points, _ := threeBlobs(8, rng)
	a := KMeans(points, 4, rand.New(rand.NewSource(14)), 0)
	for trial := 0; trial < 20; trial++ {
		exs := RandomExemplars(points, a, rand.New(rand.NewSource(int64(trial))))
		var sum float64
		for _, e := range exs {
			members := a.Members()[a.Labels[e.Point]]
			found := false
			for _, m := range members {
				if m == e.Point {
					found = true
				}
			}
			if !found {
				t.Fatalf("random exemplar %d not a member of its own cluster", e.Point)
			}
			sum += e.Weight
		}
		if sum != float64(len(points)) {
			t.Fatalf("weights sum %v, want %d", sum, len(points))
		}
	}
}

func TestRandomExemplarsCoverEveryMemberEventually(t *testing.T) {
	points := [][]float64{{0}, {0.1}, {0.2}}
	a := Assignment{Labels: []int{0, 0, 0}, K: 1}
	picked := map[int]bool{}
	for s := int64(0); s < 200; s++ {
		exs := RandomExemplars(points, a, rand.New(rand.NewSource(s)))
		picked[exs[0].Point] = true
	}
	if len(picked) != 3 {
		t.Fatalf("random exemplar only ever picked %v", picked)
	}
}

// --- feature selection ---

func TestGreedyFeatureSelectionFindsHarmfulFeature(t *testing.T) {
	// Feature 2 is harmful: excluding it lowers the error. Features 0,1 help.
	eval := func(excluded map[int]bool) float64 {
		err := 1.0
		if excluded[2] {
			err -= 0.5
		}
		if excluded[0] {
			err += 0.3
		}
		if excluded[1] {
			err += 0.3
		}
		return err
	}
	got := GreedyFeatureSelection([]int{0, 1, 2}, eval, 5, rand.New(rand.NewSource(1)))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("excluded = %v, want [2]", got)
	}
}

func TestGreedyFeatureSelectionNoImprovementKeepsAll(t *testing.T) {
	eval := func(excluded map[int]bool) float64 { return 1 + float64(len(excluded)) }
	got := GreedyFeatureSelection([]int{0, 1, 2, 3}, eval, 3, rand.New(rand.NewSource(2)))
	if len(got) != 0 {
		t.Fatalf("excluded = %v, want none (every exclusion hurts)", got)
	}
}

func TestGreedyFeatureSelectionEmptyCandidates(t *testing.T) {
	got := GreedyFeatureSelection(nil, func(map[int]bool) float64 { return 1 }, 2, rand.New(rand.NewSource(3)))
	if len(got) != 0 {
		t.Fatalf("excluded = %v, want empty", got)
	}
}

func TestGreedyFeatureSelectionEscapesBadOrderWithRestarts(t *testing.T) {
	// Excluding {0} alone hurts, excluding {1} alone helps a bit, excluding
	// {0,1} together helps the most. Greedy from some orders finds only {1};
	// restarts should still find the best reachable local optimum {1} or
	// {1,0} depending on path. We only require the result to be no worse than
	// the single best greedy outcome.
	eval := func(ex map[int]bool) float64 {
		switch {
		case ex[0] && ex[1]:
			return 0.2
		case ex[1]:
			return 0.5
		case ex[0]:
			return 1.5
		default:
			return 1.0
		}
	}
	got := GreedyFeatureSelection([]int{0, 1}, eval, 10, rand.New(rand.NewSource(4)))
	if e := eval(toSet(got)); e > 0.5 {
		t.Fatalf("feature selection landed at error %v with exclusion %v; want ≤ 0.5", e, got)
	}
}

// --- property-based tests ---

func TestKMeansAssignmentAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		a := KMeans(points, k, rng, 0)
		if len(a.Labels) != n {
			return false
		}
		for _, l := range a.Labels {
			if l < 0 || l >= a.K {
				return false
			}
		}
		return a.K <= n && a.K <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHACAssignmentAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8, ward bool) bool {
		n := int(nRaw%25) + 1
		k := int(kRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		link := Single
		if ward {
			link = Ward
		}
		a := HAC(points, k, link)
		if len(a.Labels) != n {
			return false
		}
		// Exactly min(k, n) clusters, labels dense in [0, K).
		want := k
		if n < k {
			want = n
		}
		if a.K != want {
			return false
		}
		seen := make([]bool, a.K)
		for _, l := range a.Labels {
			if l < 0 || l >= a.K {
				return false
			}
			seen[l] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExemplarWeightsAlwaysPartitionN(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%30) + 1
		k := int(kRaw%6) + 1
		rng := rand.New(rand.NewSource(seed))
		points := make([][]float64, n)
		for i := range points {
			points[i] = []float64{rng.Float64() * 10}
		}
		a := KMeans(points, k, rng, 0)
		exs := MedianExemplars(points, a)
		var sum float64
		for _, e := range exs {
			if e.Weight < 1 {
				return false
			}
			sum += e.Weight
		}
		return sum == float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansLloydNeverIncreasesSSE(t *testing.T) {
	// The final assignment's SSE must be no worse than assigning every point
	// to a single global mean when k > 1 and the data has spread.
	rng := rand.New(rand.NewSource(20))
	points, _ := threeBlobs(20, rng)
	a := KMeans(points, 3, rand.New(rand.NewSource(21)), 0)
	sse := assignmentSSE(points, a)
	one := KMeans(points, 1, rand.New(rand.NewSource(22)), 0)
	sse1 := assignmentSSE(points, one)
	if sse >= sse1 {
		t.Fatalf("k=3 SSE %v not below k=1 SSE %v on separable blobs", sse, sse1)
	}
}

func assignmentSSE(points [][]float64, a Assignment) float64 {
	var total float64
	for _, members := range a.Members() {
		if len(members) == 0 {
			continue
		}
		dim := len(points[members[0]])
		mean := make([]float64, dim)
		for _, m := range members {
			for j, v := range points[m] {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float64(len(members))
		}
		for _, m := range members {
			total += sqDist(points[m], mean)
		}
	}
	return total
}

func TestHACWardMatchesKMeansQualityOnBlobs(t *testing.T) {
	// The paper's Table 6 finding: ward ≈ kmeans on clusterable data. Both
	// should recover near-zero SSE on tight separable blobs.
	rng := rand.New(rand.NewSource(30))
	points, _ := threeBlobs(15, rng)
	km := assignmentSSE(points, KMeans(points, 3, rand.New(rand.NewSource(31)), 0))
	wd := assignmentSSE(points, HAC(points, 3, Ward))
	if math.Abs(km-wd) > 1e-6 && (km > 50 || wd > 50) {
		t.Fatalf("kmeans SSE %v vs ward SSE %v; both should be tiny on separable blobs", km, wd)
	}
}
