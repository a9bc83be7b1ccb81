package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// Tracing. The traced run records a span around every call the benchmark
// makes into a layer, from the benchmark's own code: the program itself
// carries no tracing. A span has a kind, a start and an end, the span it
// nests in, and the id of the operation (query or update batch) it
// belongs to. Spans nest strictly because every traced call is
// synchronous on the goroutine that issued the operation; the storage
// backend, which is shared by all clients, finds the issuing client's
// track by OS thread id, since each traced client goroutine is locked to
// its thread.

type spanKind uint8

const (
	spanOp spanKind = iota // one query or one update batch as the client issues it
	spanCoreQuery
	spanCoreFetch
	spanSetCell
	spanNodeVD
	spanBackendRead
	spanBackendWrite
	spanBackendSync
	spanApplyOps
	spanRelayout
	spanNaiveBuild
	spanEngine
	spanCommit
	spanReopen
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "core.query", "core.fetch", "vstore.setcell", "vstore.nodevd",
	"backend.read", "backend.write", "backend.sync", "core.applyops",
	"vstore.relayout", "naive.build", "visibility.engine", "dbfile.commit",
	"dbfile.open",
}

type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span in the operation, -1 at the root
	kind       spanKind
	op         int64
}

// track is one client's span recorder. Only the goroutine that owns it
// touches it.
type track struct {
	tr     *tracer
	name   string
	spans  []span  // spans of the operation in progress
	stack  []int32 // open spans, innermost last
	child  []int64 // scratch: summed child durations per span
	nextOp int64

	// self and calls accumulate, per span kind, the self time (duration
	// minus the durations of directly nested spans) and the call count
	// over every finished operation.
	self  [numSpanKinds]int64
	calls [numSpanKinds]int64
	// ops and opNanos count finished operations and their total time.
	ops     int64
	opNanos int64
	// Backend reads issued by this track's operations.
	reads, pagesRead, bytesRead int64
	// kept holds the full spans of every keepEvery-th operation.
	kept []span
}

// keepEvery sets which operations keep their spans for the trace file;
// the rest are folded into the per-kind sums when they end, so memory
// stays bounded however many operations a run makes.
const keepEvery = 64

// tracer owns the tracks of one traced run.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
	// byTID maps a locked OS thread to the track of the goroutine on it;
	// replaced wholesale on bind, read lock-free by the backend.
	byTID atomic.Pointer[map[int]*track]
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	m := map[int]*track{}
	t.byTID.Store(&m)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// bind locks the calling goroutine to its OS thread and gives it a new
// track. The returned func unbinds; call it from the same goroutine.
func (t *tracer) bind(name string) (*track, func()) {
	runtime.LockOSThread()
	tid := syscall.Gettid()
	trk := &track{tr: t, name: name}
	t.mu.Lock()
	t.tracks = append(t.tracks, trk)
	old := *t.byTID.Load()
	m := make(map[int]*track, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[tid] = trk
	t.byTID.Store(&m)
	t.mu.Unlock()
	return trk, func() {
		t.mu.Lock()
		old := *t.byTID.Load()
		m := make(map[int]*track, len(old))
		for k, v := range old {
			if k != tid {
				m[k] = v
			}
		}
		t.byTID.Store(&m)
		t.mu.Unlock()
		runtime.UnlockOSThread()
	}
}

// current returns the track bound to the calling thread, or nil.
func (t *tracer) current() *track {
	if t == nil {
		return nil
	}
	return (*t.byTID.Load())[syscall.Gettid()]
}

// beginOp opens the root span of a new operation. Like begin and end,
// it does nothing on a nil track.
func (k *track) beginOp() int32 {
	if k == nil {
		return -1
	}
	k.nextOp++
	return k.begin(spanOp)
}

// active reports whether an operation is open on the track; spans
// outside operations (set-up, warm-up) are not recorded.
func (k *track) active() bool { return k != nil && len(k.stack) > 0 }

func (k *track) begin(kind spanKind) int32 {
	if k == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1]
	}
	i := int32(len(k.spans))
	k.spans = append(k.spans, span{start: k.tr.now(), parent: parent, kind: kind, op: k.nextOp})
	k.stack = append(k.stack, i)
	return i
}

func (k *track) end(i int32) {
	if k == nil {
		return
	}
	k.spans[i].end = k.tr.now()
	k.stack = k.stack[:len(k.stack)-1]
	if len(k.stack) == 0 {
		k.fold()
	}
}

// fold adds the finished operation's spans to the per-kind sums.
func (k *track) fold() {
	self := selfTimes(k.spans, k.child[:0])
	k.child = self
	for i, s := range k.spans {
		k.self[s.kind] += self[i]
		k.calls[s.kind]++
	}
	k.ops++
	k.opNanos += k.spans[0].end - k.spans[0].start
	if k.nextOp%keepEvery == 1 {
		k.kept = append(k.kept, k.spans...)
	}
	k.spans = k.spans[:0]
}

// selfTimes returns each span's self time: its duration minus the
// durations of the spans directly nested in it. spans must be one
// operation's spans in begin order (parents before children). scratch is
// reused for the result when large enough.
func selfTimes(spans []span, scratch []int64) []int64 {
	self := scratch[:0]
	for _, s := range spans {
		self = append(self, s.end-s.start)
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layer returns the summed self time and call count of a span kind
// across all tracks whose name satisfies match.
func (t *tracer) layer(kind spanKind, match func(string) bool) (nanos, calls int64) {
	for _, k := range t.tracks {
		if match(k.name) {
			nanos += k.self[kind]
			calls += k.calls[kind]
		}
	}
	return nanos, calls
}

// write saves the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Track  string `json:"track"`
		Op     int64  `json:"op"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
	}
	for _, k := range t.tracks {
		for _, s := range k.kept {
			if err := enc.Encode(rec{k.name, s.op, spanNames[s.kind], s.start, s.end, s.parent}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBackend wraps the storage backend beneath a Disk, recording a
// span around every read, write and sync issued inside a traced
// operation. Everything else passes straight through: results, errors
// and Timed() are the wrapped backend's own.
type timedBackend struct {
	storage.Backend
	tr *tracer
}

// within runs call inside a span of the given kind when k has an
// operation open, and plainly otherwise.
func within(k *track, kind spanKind, call func() error) error {
	if !k.active() {
		return call()
	}
	i := k.begin(kind)
	err := call()
	k.end(i)
	return err
}

// read counts a traced read of n pages and runs it in a span.
func (b *timedBackend) read(n int, call func() error) error {
	k := b.tr.current()
	if k.active() {
		k.reads++
		k.pagesRead += int64(n)
		k.bytesRead += int64(n * b.PageSize())
	}
	return within(k, spanBackendRead, call)
}

func (b *timedBackend) ReadPage(id storage.PageID, dst []byte) error {
	return b.read(1, func() error { return b.Backend.ReadPage(id, dst) })
}

func (b *timedBackend) ReadPages(start storage.PageID, n int, dst []byte) error {
	return b.read(n, func() error { return b.Backend.ReadPages(start, n, dst) })
}

func (b *timedBackend) WritePage(id storage.PageID, data []byte) error {
	return within(b.tr.current(), spanBackendWrite, func() error { return b.Backend.WritePage(id, data) })
}

func (b *timedBackend) Sync() error {
	return within(b.tr.current(), spanBackendSync, b.Backend.Sync)
}

// Clone keeps the clone traced.
func (b *timedBackend) Clone() (storage.Backend, error) {
	c, err := b.Backend.Clone()
	if err != nil {
		return nil, err
	}
	return &timedBackend{Backend: c, tr: b.tr}, nil
}

// timedVStore wraps a V-page storage scheme, recording spans around
// SetCell and NodeVD. A session's view is wrapped with the track of the
// goroutine that created the session, which is the one that queries it.
// It forwards View and CellPager, so a traced tree gets per-session
// cursors and prefetchable cells exactly as an untraced one does.
type timedVStore struct {
	inner core.VStore
	tr    *tracer
	trk   *track
}

func (v *timedVStore) Name() string     { return v.inner.Name() }
func (v *timedVStore) SizeBytes() int64 { return v.inner.SizeBytes() }

func (v *timedVStore) SetCell(cell cells.CellID) error {
	return within(v.trk, spanSetCell, func() error { return v.inner.SetCell(cell) })
}

func (v *timedVStore) NodeVD(id core.NodeID) (vd []core.VD, ok bool, err error) {
	err = within(v.trk, spanNodeVD, func() error {
		vd, ok, err = v.inner.NodeVD(id)
		return err
	})
	return vd, ok, err
}

// View returns a traced per-session view bound to the caller's track.
func (v *timedVStore) View(io *storage.Client) core.VStore {
	inner := v.inner
	if vv, ok := inner.(core.VStoreViewer); ok {
		inner = vv.View(io)
	}
	return &timedVStore{inner: inner, tr: v.tr, trk: v.tr.current()}
}

// CellPages forwards to the wrapped scheme.
func (v *timedVStore) CellPages(r storage.Reader, cell cells.CellID) ([]storage.PageID, error) {
	p, ok := v.inner.(core.CellPager)
	if !ok {
		return nil, fmt.Errorf("perfbench: scheme %s has no cell pager", v.inner.Name())
	}
	return p.CellPages(r, cell)
}
