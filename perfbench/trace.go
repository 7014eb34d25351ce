package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ps3/internal/fault"
	"ps3/internal/store"
	"ps3/internal/table"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Spans of one request share Req; Parent is the
// span that caused this one (0 for a root, unresolved when the recorder
// could not know it, as for reads issued from scan worker goroutines).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const unresolved = -1

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. Spans are recorded only while spansOn is
// set (the traced replay); the wrappers' counters only while countOn is set.
// With both off every wrapper is a plain pass-through.
type tracer struct {
	epoch   time.Time
	spansOn atomic.Bool
	countOn atomic.Bool
	req     atomic.Int64 // request the wrappers attribute their spans to
	nextID  atomic.Int64
	// httpSpan and httpEnd are the id and end of the last serve.http span,
	// which the replay's client places a query's inner spans in.
	httpSpan, httpEnd atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, req, parent, start, end int64) int64 {
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// take returns the spans recorded so far, sorted by start, longest first
// among equal starts.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End > out[j].End // a parent before a child starting with it
	})
	return out
}

// write saves every recorded span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.take())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// resolveParents gives every unresolved span of a request the smallest span
// of the same request that contains it in time. Spans no other span
// contains become roots.
func resolveParents(spans []span) {
	byReq := map[int64][]int{}
	for i, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], i)
	}
	for i := range spans {
		if spans[i].Parent != unresolved {
			continue
		}
		s := spans[i]
		best, bestDur := int64(0), int64(-1)
		for _, j := range byReq[s.Req] {
			c := spans[j]
			if j == i || c.Start > s.Start || c.End < s.End {
				continue
			}
			if c.Parent == unresolved && c.dur() == s.dur() {
				continue // an equal unresolved twin cannot be the cause
			}
			if bestDur < 0 || c.dur() < bestDur {
				best, bestDur = c.ID, c.dur()
			}
		}
		spans[i].Parent = best
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children (parallel scan workers)
// count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// exclusive splits a request tree's root interval among its spans: each
// instant goes to the deepest span open at that instant (the earliest
// started among equally deep ones), so the parts sum to the root's
// duration. tree[0] must be the root.
func exclusive(tree []span) map[string]int64 {
	depth := map[int64]int{tree[0].ID: 0}
	for _, s := range tree[1:] {
		depth[s.ID] = depth[s.Parent] + 1
	}
	cuts := make([]int64, 0, 2*len(tree))
	for _, s := range tree {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo || lo < tree[0].Start || hi > tree[0].End {
			continue
		}
		best := -1
		for j, s := range tree {
			if s.Start <= lo && s.End >= hi && (best < 0 || depth[s.ID] > depth[tree[best].ID]) {
				best = j
			}
		}
		out[tree[best].Name] += hi - lo
	}
	return out
}

// tracedSource wraps the store reader the served system is opened over. It
// records a span per partition Read and forwards the reader's optional
// capabilities (uncached reads for exact scans, cache, encoding and health
// counters) so core and serve see the store through it.
type tracedSource struct {
	table.PartitionSource
	r  *store.Reader
	tr *tracer
}

func newTracedSource(r *store.Reader, tr *tracer) *tracedSource {
	return &tracedSource{PartitionSource: r, r: r, tr: tr}
}

func (s *tracedSource) Read(i int) (*table.Partition, error) {
	if !s.tr.spansOn.Load() {
		return s.r.Read(i)
	}
	start := s.tr.now()
	p, err := s.r.Read(i)
	s.tr.add("store.read", s.tr.req.Load(), unresolved, start, s.tr.now())
	return p, err
}

func (s *tracedSource) ReadUncached(i int) (*table.Partition, error) { return s.r.ReadUncached(i) }
func (s *tracedSource) CacheStats() store.CacheStats                 { return s.r.CacheStats() }
func (s *tracedSource) EncodingStats() store.EncodingStats           { return s.r.EncodingStats() }
func (s *tracedSource) Health() store.HealthStats                    { return s.r.Health() }

// File classes and operations the FS wrapper counts.
const (
	classData = iota // the base store and flushed segments
	classWAL         // write-ahead logs
	numClasses
)

const (
	opRead = iota
	opWrite
	opSync
	opRename
	numOps
)

var opNames = [numOps]string{"fault.read", "fault.write", "fault.sync", "fault.rename"}

// fsCounter accumulates one (class, op) cell.
type fsCounter struct {
	n, bytes, ns atomic.Int64
}

// tracedFS wraps the filesystem seam under the store and ingest layers. It
// counts operations, bytes and time per file class while counting is on,
// and records a span per operation while spans are on.
type tracedFS struct {
	fault.FS
	tr *tracer
	c  [numClasses][numOps]fsCounter
}

func newTracedFS(tr *tracer) *tracedFS { return &tracedFS{FS: fault.OS, tr: tr} }

func classOf(name string) int {
	if strings.HasPrefix(filepath.Base(name), "wal-") {
		return classWAL
	}
	return classData
}

// observe runs one operation and accounts for it.
func (f *tracedFS) observe(class, op int, fn func() (int, error)) (int, error) {
	spans, count := f.tr.spansOn.Load(), f.tr.countOn.Load()
	if !spans && !count {
		return fn()
	}
	start := f.tr.now()
	n, err := fn()
	end := f.tr.now()
	if count {
		c := &f.c[class][op]
		c.n.Add(1)
		c.bytes.Add(int64(n))
		c.ns.Add(end - start)
	}
	if spans {
		f.tr.add(opNames[op], f.tr.req.Load(), unresolved, start, end)
	}
	return n, err
}

// snapshot copies the counters: [class][op] = {count, bytes, ns}.
func (f *tracedFS) snapshot() (out [numClasses][numOps][3]int64) {
	for c := range f.c {
		for o := range f.c[c] {
			x := &f.c[c][o]
			out[c][o] = [3]int64{x.n.Load(), x.bytes.Load(), x.ns.Load()}
		}
	}
	return out
}

func (f *tracedFS) wrap(name string, file fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, class: classOf(name)}, nil
}

func (f *tracedFS) Open(name string) (fault.File, error) {
	file, err := f.FS.Open(name)
	return f.wrap(name, file, err)
}

func (f *tracedFS) Create(name string) (fault.File, error) {
	file, err := f.FS.Create(name)
	return f.wrap(name, file, err)
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	return f.wrap(name, file, err)
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	_, err := f.observe(classOf(newpath), opRename, func() (int, error) { return 0, f.FS.Rename(oldpath, newpath) })
	return err
}

type tracedFile struct {
	fault.File
	fs    *tracedFS
	class int
}

func (t *tracedFile) Read(p []byte) (int, error) {
	return t.fs.observe(t.class, opRead, func() (int, error) { return t.File.Read(p) })
}

func (t *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	return t.fs.observe(t.class, opRead, func() (int, error) { return t.File.ReadAt(p, off) })
}

func (t *tracedFile) Write(p []byte) (int, error) {
	return t.fs.observe(t.class, opWrite, func() (int, error) { return t.File.Write(p) })
}

func (t *tracedFile) Sync() error {
	_, err := t.fs.observe(t.class, opSync, func() (int, error) { return 0, t.File.Sync() })
	return err
}
