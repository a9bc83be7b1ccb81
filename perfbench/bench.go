package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	hdov "repro"
)

// spec describes a workload: the database configuration and the load.
type spec struct {
	name    string
	clients int  // closed-loop query clients
	file    bool // pages in a real file (hdov.BackendFile)
	codec   bool // compressed V-page layout
	pool    int  // buffer-pool pages (0: none)
	walk    bool // 4-neighbour walks through QueryCellCoherent
	mixed   bool // a writer applies update batches during the window
}

// The workloads. README.md says why each exists.
var specs = []spec{
	{name: "cells-pooled", clients: 2, pool: 65536},
	{name: "walk-file", clients: 2, file: true, codec: true, pool: 16, walk: true},
	{name: "update-mix", clients: 1, codec: true, mixed: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// writePhaseBatches is how many update batches a read-only workload
// applies after its query window, so that every workload prices the
// write path on its own storage configuration.
const writePhaseBatches = 40

// gen returns client c's query generator.
func (sp spec) gen(seed int64, c, side int) queryGen {
	if sp.walk {
		return newWalkGen(seed, c, side, side)
	}
	return newUniformGen(seed, c, side*side)
}

// passConfig carries the inputs of one pass.
type passConfig struct {
	sp      spec
	seed    int64
	side    int // cells per grid side
	objects int // objects at epoch 0
	lo, hi  hdov.Point
	window  time.Duration
	ref     []uint64 // epoch-0 reference answers
	tr      *tracer  // nil: untraced
	// replay, when set, repeats an earlier pass's inputs exactly: each
	// read-only client runs as many queries as it did there and the
	// writer as many batches, instead of running for the window.
	replay *passResult
	// afterWindow, when set, runs as soon as the query window ends.
	afterWindow func()
	// beforeClose, when set, runs on the live database's final epoch
	// just before runPass closes it.
	beforeClose func(*passResult)
}

// bindTrack binds the calling goroutine to a new track when tracing.
func (pc *passConfig) bindTrack(name string) (*track, func()) {
	if pc.tr == nil {
		return nil, func() {}
	}
	return pc.tr.bind(name)
}

// passResult is what one pass measured and checked.
type passResult struct {
	// Query window.
	latUS     []float64 // every query's latency, all clients
	endNS     []int64   // when each query completed, from the window's start
	queries   int64
	failed    int64      // query errors and wrong answers
	perClient []int      // queries each client ran
	digests   [][]uint64 // per client, per query (read-only workloads)
	pinUS     []float64  // mixed reader: time to pin each new epoch
	wall      time.Duration
	mem       memDelta
	rt        rtDelta

	// Updates: the concurrent writer or the write phase.
	updMS      []float64
	writeBytes []int64
	updFailed  int64
	lastEpoch  int

	// Answers of the final epoch, from a serial session.
	final []uint64
	// Failed end-of-run checks.
	checkFailed []string
}

func (r *passResult) attempted() int64 { return r.queries + int64(len(r.updMS)) + r.updFailed }
func (r *passResult) failures() int64  { return r.failed + r.updFailed }

func (r *passResult) failf(format string, args ...any) {
	r.checkFailed = append(r.checkFailed, fmt.Sprintf(format, args...))
}

// runPass runs one workload over sys: the query window (with the
// concurrent writer on a mixed workload), the write phase of a read-only
// one, and the end-of-run checks.
func runPass(sys system, pc passConfig) (*passResult, error) {
	res := &passResult{}
	ug := newUpdateGen(pc.seed, pc.objects, pc.lo, pc.hi)
	recs := make([]*clientRec, pc.sp.clients)
	wrec := &writerRec{keepRefs: pc.sp.mixed}
	writerDone := make(chan struct{})

	runtime.GC()
	memBefore, rtBefore := readMem(), readRuntime()
	start := time.Now()
	deadline := start.Add(pc.window)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &clientRec{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			trk, unbind := pc.bindTrack(fmt.Sprintf("client%d", c))
			defer unbind()
			r, g := recs[c], pc.sp.gen(pc.seed, c, pc.side)
			switch {
			case pc.sp.mixed:
				stop := func(t time.Time) bool { return !t.Before(deadline) }
				if pc.replay != nil {
					stop = func(time.Time) bool {
						select {
						case <-writerDone:
							return true
						default:
							return false
						}
					}
				}
				r.readMixed(sys, trk, g, stop)
			case pc.replay != nil:
				r.read(sys, trk, g, time.Time{}, pc.replay.perClient[c], pc.ref)
			default:
				r.read(sys, trk, g, deadline, -1, pc.ref)
			}
		}(c)
	}
	if pc.sp.mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(writerDone)
			trk, unbind := pc.bindTrack("writer")
			defer unbind()
			n := -1
			if pc.replay != nil {
				n = len(pc.replay.updMS)
			}
			wrec.write(sys, trk, ug, deadline, n)
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.mem, res.rt = readMem().sub(memBefore), readRuntime().sub(rtBefore)
	if pc.afterWindow != nil {
		pc.afterWindow()
	}

	for _, r := range recs {
		res.latUS = append(res.latUS, r.latUS...)
		res.endNS = append(res.endNS, r.endNS...)
		res.queries += int64(len(r.latUS))
		res.failed += r.failed
		res.perClient = append(res.perClient, len(r.latUS))
		res.digests = append(res.digests, r.digests)
		res.pinUS = append(res.pinUS, r.pinUS...)
	}

	// The write phase of a read-only workload.
	if !pc.sp.mixed {
		trk, unbind := pc.bindTrack("writer")
		wrec.write(sys, trk, ug, time.Time{}, writePhaseBatches)
		unbind()
	}
	res.updMS, res.writeBytes, res.updFailed, res.lastEpoch = wrec.latMS, wrec.bytes, wrec.failed, wrec.epoch

	// Every answer the mixed reader saw must equal a serial session's on
	// the same epoch.
	if pc.sp.mixed {
		for _, r := range recs {
			wrong, err := r.verifyMixed(wrec.refs, pc.ref)
			if err != nil {
				res.failf("%v", err)
			}
			res.failed += wrong
		}
	}

	wrec.refs = nil

	// Durability: the committed directory reopens at the last
	// acknowledged epoch and answers like the live database, which is
	// released first so the two never share memory.
	live, _ := sys.pin(nil)
	var err error
	if res.final, err = answers(live, pc.side*pc.side); err != nil {
		return nil, fmt.Errorf("final answers: %w", err)
	}
	if pc.beforeClose != nil {
		pc.beforeClose(res)
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	debug.FreeOSMemory()
	trk, unbind := pc.bindTrack("reopen")
	epoch, reopened, err := sys.reopen(trk)
	unbind()
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if epoch != res.lastEpoch {
		res.failf("durability: reopened at epoch %d, last acknowledged %d", epoch, res.lastEpoch)
	}
	for k := range reopened {
		if reopened[k] != res.final[k] {
			res.failf("durability: reopened answer %d differs from the live one", k)
			break
		}
	}
	return res, nil
}

// clientRec is one query client's record.
type clientRec struct {
	start   time.Time // the window's start
	latUS   []float64
	endNS   []int64
	digests []uint64
	failed  int64

	// Mixed reader: how long each epoch pin took, and the first digest
	// seen per (epoch, answer key); a later answer that differs from it
	// counts as wrong on the spot.
	pinUS []float64
	seen  map[[2]int]uint64
}

func (r *clientRec) record(t0, t1 time.Time) {
	r.latUS = append(r.latUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	r.endNS = append(r.endNS, t1.Sub(r.start).Nanoseconds())
}

// read runs a closed loop of queries on one session: until the deadline,
// or exactly n queries when n >= 0. Each answer must equal the epoch-0
// reference.
func (r *clientRec) read(sys system, trk *track, g queryGen, deadline time.Time, n int, ref []uint64) {
	s, _ := sys.pin(trk)
	for i := 0; n < 0 || i < n; i++ {
		q := g.next()
		t0 := time.Now()
		err := s.run(q)
		t1 := time.Now()
		r.record(t0, t1)
		var d uint64
		if err == nil {
			d = s.digest()
		}
		r.digests = append(r.digests, d)
		if err != nil || d != ref[answerKey(q)] {
			r.failed++
		}
		if n < 0 && !t1.Before(deadline) {
			return
		}
	}
}

// readMixed is the reader beside the writer. It takes a fresh session
// whenever the epoch moves, and a query's time includes that check and
// pin. It stops when stop says so after a query.
func (r *clientRec) readMixed(sys system, trk *track, g queryGen, stop func(time.Time) bool) {
	r.seen = map[[2]int]uint64{}
	var s session
	cur := -1
	for {
		q := g.next()
		t0 := time.Now()
		if sys.epoch() != cur {
			p0 := time.Now()
			s, cur = sys.pin(trk)
			r.pinUS = append(r.pinUS, float64(time.Since(p0).Nanoseconds())/1e3)
		}
		err := s.run(q)
		t1 := time.Now()
		r.record(t0, t1)
		if err != nil {
			r.failed++
		} else {
			key := [2]int{cur, answerKey(q)}
			d := s.digest()
			if prev, ok := r.seen[key]; !ok {
				r.seen[key] = d
			} else if prev != d {
				r.failed++
			}
		}
		if stop(t1) {
			return
		}
	}
}

// verifyMixed checks each distinct (epoch, cell, η) answer the reader
// saw against the reference for that epoch: the epoch-0 table, or a
// serial session the writer pinned right after committing the epoch. It
// returns how many were wrong.
func (r *clientRec) verifyMixed(refs map[int]session, ref0 []uint64) (int64, error) {
	var wrong int64
	for key, d := range r.seen {
		epoch, k := key[0], key[1]
		want := uint64(0)
		if epoch == 0 {
			want = ref0[k]
		} else {
			s, ok := refs[epoch]
			if !ok {
				return wrong, fmt.Errorf("mixed reader: no reference session for epoch %d", epoch)
			}
			if err := s.run(query{cell: k / len(etas), eta: k % len(etas)}); err != nil {
				return wrong, fmt.Errorf("mixed reader: reference at epoch %d: %w", epoch, err)
			}
			want = s.digest()
		}
		if d != want {
			wrong++
		}
	}
	return wrong, nil
}

// writerRec is the writer's record.
type writerRec struct {
	latMS  []float64
	bytes  []int64
	failed int64
	epoch  int
	// keepRefs keeps, per committed epoch, a serial session pinned on it.
	keepRefs bool
	refs     map[int]session
}

// write applies update batches: until the deadline, or exactly n batches
// when n >= 0. A batch is timed from Update to the end of CommitEpoch;
// its write bytes are what the commit added to the database directory.
func (w *writerRec) write(sys system, trk *track, g *updateGen, deadline time.Time, n int) {
	w.refs = map[int]session{}
	dir := sys.directory()
	for i := 0; n < 0 || i < n; i++ {
		if n < 0 && !time.Now().Before(deadline) {
			return
		}
		batch := g.next()
		b0, err := dirBytes(dir)
		if err != nil {
			w.failed++
			continue
		}
		t0 := time.Now()
		e, err := sys.apply(trk, batch)
		lat := time.Since(t0)
		if err != nil {
			w.failed++
			continue
		}
		b1, err := dirBytes(dir)
		if err != nil {
			w.failed++
			continue
		}
		w.latMS = append(w.latMS, float64(lat.Nanoseconds())/1e6)
		w.bytes = append(w.bytes, b1-b0)
		w.epoch = e
		if w.keepRefs {
			// This goroutine is the only writer, so the epoch cannot
			// move before the pin.
			s, _ := sys.pin(nil)
			w.refs[e] = s
		}
	}
}
