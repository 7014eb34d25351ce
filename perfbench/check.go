package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"ps3/internal/core"
	"ps3/internal/serve"
	"ps3/internal/sql"
)

// ledger keeps what the correctness gate needs from every successful
// answer: a digest per (query text, snapshot version), the last snapshot
// version each connection saw, and the appended rows that were
// acknowledged.
type ledger struct {
	mu         sync.Mutex
	digests    map[[2]int64]uint64 // (text, version) → answer digest
	lastVer    map[int]int64       // connection → highest version seen
	mismatches []string

	// appended counts acknowledged rows per label of the durability
	// check's column; failedBatches counts appends that were not.
	appended      map[string]float64
	failedBatches int
}

func newLedger(texts int) *ledger {
	return &ledger{digests: make(map[[2]int64]uint64, texts), lastVer: map[int]int64{}, appended: map[string]float64{}}
}

func (l *ledger) mismatch(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mismatchLocked(format, args...)
}

func (l *ledger) mismatchLocked(format string, args ...any) {
	if len(l.mismatches) < 1000 {
		l.mismatches = append(l.mismatches, fmt.Sprintf(format, args...))
	}
}

// version checks that a connection never sees the snapshot version go
// back.
func (l *ledger) versionLocked(connID int, v int64) {
	if v < l.lastVer[connID] {
		l.mismatchLocked("connection %d saw snapshot version %d after %d", connID, v, l.lastVer[connID])
	}
	l.lastVer[connID] = max(l.lastVer[connID], v)
}

// record files one served answer. Every answer to the same text on the
// same snapshot must be the same answer.
func (l *ledger) record(connID int, text int32, resp *serve.Response) {
	d := digestGroups(resp.Groups)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.versionLocked(connID, resp.SnapshotVersion)
	key := [2]int64{int64(text), resp.SnapshotVersion}
	if prev, ok := l.digests[key]; ok && prev != d {
		l.mismatchLocked("text %d on version %d answered two ways", text, resp.SnapshotVersion)
	}
	l.digests[key] = d
}

// ackBatch files an acknowledged append; tally adds its rows to the
// counts the durability check expects.
func (l *ledger) ackBatch(connID int, version int64, tally func(counts map[string]float64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.versionLocked(connID, version)
	tally(l.appended)
}

// dropAnswers releases the answer digests once they are verified.
func (l *ledger) dropAnswers() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.digests = nil
}

func (l *ledger) failBatch() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failedBatches++
}

// digestGroups hashes label-sorted groups, values by their bits.
func digestGroups(groups []serve.Group) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, g := range groups {
		h.Write([]byte(g.Label))
		h.Write([]byte{0})
		for _, v := range g.Values {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func digestResult(res *core.Result) uint64 {
	groups := make([]serve.Group, 0, len(res.Values))
	for k, v := range res.Values {
		groups = append(groups, serve.Group{Label: res.Labels[k], Values: v})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Label < groups[b].Label })
	return digestGroups(groups)
}

// verify re-runs served answers in process with System.RunCtx on the
// snapshot that answered, at the same budget, and requires the same
// answer. At most maxVerify (text, version) pairs are re-run, spread
// evenly over the sorted set so every phase is sampled.
func (l *ledger) verify(texts []string, budget float64, system func(int64) *core.System) (checked int, err error) {
	l.mu.Lock()
	keys := make([][2]int64, 0, len(l.digests))
	for k := range l.digests {
		keys = append(keys, k)
	}
	l.mu.Unlock()
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	step := max(1, (len(keys)+maxVerify-1)/maxVerify)
	for i := 0; i < len(keys); i += step {
		k := keys[i]
		sys := system(k[1])
		if sys == nil {
			l.mismatch("answer from unknown snapshot version %d", k[1])
			continue
		}
		q, _, err := sql.Parse(texts[k[0]])
		if err != nil {
			return checked, err
		}
		res, err := sys.RunCtx(context.Background(), q, budget)
		if err != nil {
			return checked, fmt.Errorf("in-process run of %q: %w", texts[k[0]], err)
		}
		checked++
		l.mu.Lock()
		want := l.digests[k]
		l.mu.Unlock()
		if digestResult(res) != want {
			l.mismatch("served answer differs from System.RunCtx on version %d: %s", k[1], texts[k[0]])
		}
	}
	return checked, nil
}
