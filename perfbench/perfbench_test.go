package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	hdov "repro"
	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 99, 1}, {100, 90, 10}, {1000, 99, 10}, {5, 50, 2}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{0.81, 0.79, 0.83, 0.8}, [3]float64{0.7925, 0.805, 0.825}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestSplitWindow(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5}
	end := []int64{0, 999, 1000, 9999, 12000} // ns; the last query ends after the window
	parts := splitWindow(lat, end, 10000, 10)
	if len(parts) != 10 {
		t.Fatalf("%d parts", len(parts))
	}
	if len(parts[0]) != 2 || len(parts[1]) != 1 || len(parts[9]) != 2 || parts[9][1] != 5 {
		t.Errorf("parts = %v", parts)
	}
	ws := newWindowStats(lat, end, 10000)
	if len(ws.rates) != 10 || len(ws.p50s) != 3 {
		t.Errorf("window stats over %d rates, %d non-empty parts", len(ws.rates), len(ws.p50s))
	}
	if got := spread([]float64{5, 1, 4, 2, 3}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 15, end: 25, parent: 1},
		{start: 50, end: 90, parent: 0},
	}
	got := selfTimes(spans, nil)
	want := []int64{30, 20, 10, 40}
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
		sum += got[i]
	}
	if sum != spans[0].end-spans[0].start {
		t.Errorf("self times sum to %d, root lasts %d", sum, spans[0].end-spans[0].start)
	}
}

// A track folds each finished operation into per-kind sums whose total
// is the operations' total time.
func TestTrackFoldsOperations(t *testing.T) {
	tr := newTracer()
	k := &track{tr: tr, name: "client0"}
	for i := 0; i < 3; i++ {
		root := k.beginOp()
		q := k.begin(spanCoreQuery)
		v := k.begin(spanNodeVD)
		k.end(v)
		k.end(q)
		f := k.begin(spanCoreFetch)
		k.end(f)
		k.end(root)
	}
	if k.ops != 3 || len(k.spans) != 0 || len(k.stack) != 0 {
		t.Fatalf("ops=%d spans=%d stack=%d after three operations", k.ops, len(k.spans), len(k.stack))
	}
	var sum int64
	for kind := spanKind(0); kind < numSpanKinds; kind++ {
		sum += k.self[kind]
	}
	if sum != k.opNanos {
		t.Errorf("self times sum to %d ns, operations took %d ns", sum, k.opNanos)
	}
	if k.calls[spanNodeVD] != 3 || k.calls[spanOp] != 3 {
		t.Errorf("calls: nodevd %d, op %d", k.calls[spanNodeVD], k.calls[spanOp])
	}
	if len(k.kept) != 4 { // the first operation is kept
		t.Errorf("kept %d spans, want the first operation's 4", len(k.kept))
	}
}

func drawQueries(g queryGen, n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func drawBatches(g *updateGen, n int) [][]updateOp {
	out := make([][]updateOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func equalQueries(a, b []query) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalBatches(a, b [][]updateOp) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestInputsFollowTheSeed(t *testing.T) {
	lo, hi := hdov.Pt(0, 0, 1), hdov.Pt(400, 400, 2)
	for _, c := range []struct {
		name string
		gen  func(seed int64) queryGen
	}{
		{"uniform", func(seed int64) queryGen { return newUniformGen(seed, 0, 144) }},
		{"walk", func(seed int64) queryGen { return newWalkGen(seed, 1, 12, 12) }},
	} {
		a, b, other := drawQueries(c.gen(7), 500), drawQueries(c.gen(7), 500), drawQueries(c.gen(8), 500)
		if !equalQueries(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", c.name)
		}
		if equalQueries(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", c.name)
		}
	}
	if a, b := drawQueries(newUniformGen(7, 0, 144), 500), drawQueries(newUniformGen(7, 1, 144), 500); equalQueries(a, b) {
		t.Error("two clients of one seed share a sequence")
	}
	a := drawBatches(newUpdateGen(7, 192, lo, hi), 50)
	b := drawBatches(newUpdateGen(7, 192, lo, hi), 50)
	other := drawBatches(newUpdateGen(8, 192, lo, hi), 50)
	if !equalBatches(a, b) {
		t.Error("update ops: seed 7 gave two different sequences")
	}
	if equalBatches(a, other) {
		t.Error("update ops: seeds 7 and 8 gave the same sequence")
	}
}

func TestWalkStepsAreGridNeighbours(t *testing.T) {
	for _, dims := range [][2]int{{12, 12}, {3, 2}, {1, 5}} {
		nx, ny := dims[0], dims[1]
		g := newWalkGen(3, 0, nx, ny)
		prev := g.next()
		for i := 0; i < 5000; i++ {
			q := g.next()
			if q.cell < 0 || q.cell >= nx*ny {
				t.Fatalf("%dx%d: cell %d off the grid", nx, ny, q.cell)
			}
			dx := q.cell%nx - prev.cell%nx
			dy := q.cell/nx - prev.cell/nx
			if dx*dx+dy*dy != 1 {
				t.Fatalf("%dx%d: step %d -> %d is not a 4-neighbour move", nx, ny, prev.cell, q.cell)
			}
			if etas[q.eta] != walkEta {
				t.Fatalf("walk changed eta to %v", etas[q.eta])
			}
			prev = q
		}
	}
}

// Every generated delete or move names an object that is alive at that
// point of the sequence, so no batch fails on its own inputs.
func TestUpdateOpsStayValid(t *testing.T) {
	const objects = 20
	alive := map[int64]bool{}
	for id := int64(0); id < objects; id++ {
		alive[id] = true
	}
	next := int64(objects)
	g := newUpdateGen(5, objects, hdov.Pt(0, 0, 1), hdov.Pt(100, 100, 2))
	for i := 0; i < 200; i++ {
		for _, op := range g.next() {
			switch op.kind {
			case opInsert:
				alive[next] = true
				next++
			case opDelete:
				if !alive[op.id] {
					t.Fatalf("batch %d deletes dead object %d", i, op.id)
				}
				delete(alive, op.id)
			case opMove:
				if !alive[op.id] {
					t.Fatalf("batch %d moves dead object %d", i, op.id)
				}
			}
		}
	}
}

// fakeBackend is a Backend whose reads fail with a fixed error.
type fakeBackend struct {
	storage.Backend
	timed bool
	err   error
}

func (f *fakeBackend) Timed() bool                                 { return f.timed }
func (f *fakeBackend) PageSize() int                               { return 4096 }
func (f *fakeBackend) ReadPage(storage.PageID, []byte) error       { return f.err }
func (f *fakeBackend) ReadPages(storage.PageID, int, []byte) error { return f.err }
func (f *fakeBackend) WritePage(storage.PageID, []byte) error      { return f.err }
func (f *fakeBackend) Sync() error                                 { return f.err }

func TestTimedBackendPassesThrough(t *testing.T) {
	errRead := errors.New("media read failed")
	tr := newTracer()
	k, unbind := tr.bind("client0")
	defer unbind()
	for _, timed := range []bool{false, true} {
		b := &timedBackend{Backend: &fakeBackend{timed: timed, err: errRead}, tr: tr}
		if b.Timed() != timed {
			t.Errorf("Timed() = %v, wrapped backend says %v", b.Timed(), timed)
		}
		for _, traced := range []bool{false, true} {
			var root int32
			if traced {
				root = k.beginOp()
			}
			if err := b.ReadPage(1, make([]byte, 4096)); err != errRead {
				t.Errorf("ReadPage error = %v, want the wrapped backend's", err)
			}
			if err := b.ReadPages(1, 2, make([]byte, 8192)); err != errRead {
				t.Errorf("ReadPages error = %v, want the wrapped backend's", err)
			}
			if err := b.WritePage(1, make([]byte, 4096)); err != errRead {
				t.Errorf("WritePage error = %v, want the wrapped backend's", err)
			}
			if err := b.Sync(); err != errRead {
				t.Errorf("Sync error = %v, want the wrapped backend's", err)
			}
			if traced {
				k.end(root)
			}
		}
	}
	if got := k.calls[spanBackendRead]; got != 4 {
		t.Errorf("recorded %d backend reads, want 4 (only inside operations)", got)
	}
	if k.pagesRead != 6 || k.reads != 4 {
		t.Errorf("counted %d reads / %d pages, want 4 / 6", k.reads, k.pagesRead)
	}
	if got := (&timedBackend{Backend: storage.NewMemBackend(0), tr: tr}).Timed(); got {
		t.Error("wrapped memory backend reports Timed")
	}
}

// fakeVStore fails every call with a fixed error and implements the
// optional viewer and pager interfaces.
type fakeVStore struct {
	err   error
	views int
}

func (f *fakeVStore) Name() string                                { return "fake" }
func (f *fakeVStore) SizeBytes() int64                            { return 42 }
func (f *fakeVStore) SetCell(cells.CellID) error                  { return f.err }
func (f *fakeVStore) NodeVD(core.NodeID) ([]core.VD, bool, error) { return nil, false, f.err }
func (f *fakeVStore) View(*storage.Client) core.VStore {
	f.views++
	return f
}
func (f *fakeVStore) CellPages(storage.Reader, cells.CellID) ([]storage.PageID, error) {
	return []storage.PageID{7}, f.err
}

func TestTimedVStorePassesThrough(t *testing.T) {
	errV := errors.New("v-page unreadable")
	tr := newTracer()
	k, unbind := tr.bind("client0")
	defer unbind()
	inner := &fakeVStore{err: errV}
	base := &timedVStore{inner: inner, tr: tr}
	v := base.View(nil).(*timedVStore)
	if inner.views != 1 || v.trk != k {
		t.Fatalf("View: inner views %d, bound to %v", inner.views, v.trk)
	}
	root := k.beginOp()
	if err := v.SetCell(3); err != errV {
		t.Errorf("SetCell error = %v", err)
	}
	if _, _, err := v.NodeVD(1); err != errV {
		t.Errorf("NodeVD error = %v", err)
	}
	k.end(root)
	if k.calls[spanSetCell] != 1 || k.calls[spanNodeVD] != 1 {
		t.Errorf("recorded setcell %d, nodevd %d", k.calls[spanSetCell], k.calls[spanNodeVD])
	}
	pages, err := v.CellPages(nil, 3)
	if err != errV || len(pages) != 1 || pages[0] != 7 {
		t.Errorf("CellPages = %v, %v", pages, err)
	}
	if v.Name() != "fake" || v.SizeBytes() != 42 {
		t.Error("Name/SizeBytes not forwarded")
	}
}

// The public and the layer-level digests agree on the same answer.
func TestDigestsAgree(t *testing.T) {
	cr := &core.QueryResult{Items: []core.ResultItem{
		{ObjectID: 4, NodeID: core.NilNode, DoV: 0.25, Detail: 0.5, Level: 1, Polygons: 120.5, Extent: core.Extent{NominalBytes: 9000}},
		{ObjectID: -1, NodeID: 3, DoV: 0.001, Detail: 0.1, Level: 2, Polygons: 40, Extent: core.Extent{NominalBytes: 300}},
	}}
	pr := &hdov.Result{Items: []hdov.Item{
		{ObjectID: 4, NodeID: int32(core.NilNode), DoV: 0.25, Detail: 0.5, Level: 1, Polygons: 120.5, Bytes: 9000},
		{ObjectID: -1, NodeID: 3, DoV: 0.001, Detail: 0.1, Level: 2, Polygons: 40, Bytes: 300},
	}}
	if coreDigest(cr) != resultDigest(pr) {
		t.Fatal("digests of one answer differ")
	}
	pr.Items[1].Level = 1
	if coreDigest(cr) == resultDigest(pr) {
		t.Fatal("digests of different answers agree")
	}
}

// BENCHMARK.json at the repository root names exactly the workloads and
// metrics this command runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, specs[i].name)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) here", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cells-pooled", "--seconds", "0"},
		{"--workload", "cells-pooled", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// A short run of every workload, measured and traced, answers correctly
// and reports every metric.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full dataset several times")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			out, err := measure(sp, 3, 300*time.Millisecond, traced, t.TempDir(), &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", sp.name, traced, err, log.String())
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", sp.name, traced, out.Correct, out.Failed, out.Attempted, log.String())
			}
		}
	}
}
