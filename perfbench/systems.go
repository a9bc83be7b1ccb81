package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	hdov "repro"
	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/dbfile"
	"repro/internal/naive"
	"repro/internal/scene"
	"repro/internal/storage"
	"repro/internal/storage/filestore"
	"repro/internal/visibility"
	"repro/internal/vstore"
)

// A system is what a pass drives: the public hdov API (the measured,
// untraced run) or the same stack assembled from the layers' own
// functions with spans around every layer call (the traced run).
type system interface {
	// pin returns a new session and the epoch it answers from. A
	// session pinned with a track records spans on it.
	pin(trk *track) (session, int)
	// epoch returns the current epoch.
	epoch() int
	// directory is the committed database directory.
	directory() string
	// apply runs one update batch and commits it to the database
	// directory, returning the committed epoch.
	apply(trk *track, batch []updateOp) (int, error)
	// reopen opens the committed directory and returns its epoch and the
	// digest of every (cell, η) answer on it.
	reopen(trk *track) (int, []uint64, error)
	// close releases the live database; only reopen may follow.
	close() error
}

// session is one client's query handle.
type session interface {
	// run answers q and fetches the answer's payloads: one query as a
	// walker entering a cell blocks on it.
	run(q query) error
	// digest digests the last answer run produced.
	digest() uint64
}

// answers digests every (cell, η) answer of a serial session.
func answers(s session, numCells int) ([]uint64, error) {
	out := make([]uint64, numCells*len(etas))
	for c := 0; c < numCells; c++ {
		for e := range etas {
			q := query{cell: c, eta: e}
			if err := s.run(q); err != nil {
				return nil, fmt.Errorf("cell %d eta %g: %w", c, etas[e], err)
			}
			out[answerKey(q)] = s.digest()
		}
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	es, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range es {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// The public API.

type pubSystem struct {
	db       *hdov.DB
	dir      string // committed database directory
	coherent bool
}

type pubSession struct {
	s        *hdov.Session
	coherent bool
	last     *hdov.Result
}

func (p *pubSession) run(q query) error {
	var r *hdov.Result
	var err error
	if p.coherent {
		r, err = p.s.QueryCellCoherent(q.cell, etas[q.eta])
	} else {
		r, err = p.s.QueryCell(q.cell, etas[q.eta])
	}
	if err == nil {
		err = p.s.Fetch(r)
	}
	p.last = r
	return err
}

func (p *pubSession) digest() uint64 { return resultDigest(p.last) }

// pin takes a session and reads the epoch on both sides of NewSession:
// when the two agree, the session pinned that epoch.
func (p *pubSystem) pin(*track) (session, int) {
	for {
		e := p.db.Epoch()
		s := p.db.NewSession()
		if p.db.Epoch() == e {
			return &pubSession{s: s, coherent: p.coherent}, e
		}
	}
}

func (p *pubSystem) epoch() int        { return p.db.Epoch() }
func (p *pubSystem) directory() string { return p.dir }

func (p *pubSystem) apply(_ *track, batch []updateOp) (int, error) {
	if _, err := p.db.Update(func(u *hdov.Updater) { stage(u, batch) }); err != nil {
		return 0, err
	}
	return p.db.CommitEpoch(p.dir)
}

func (p *pubSystem) reopen(*track) (int, []uint64, error) {
	db, err := hdov.Open(p.dir)
	if err != nil {
		return 0, nil, err
	}
	defer db.Close()
	a, err := answers(&pubSession{s: db.NewSession()}, db.NumCells())
	return db.Epoch(), a, err
}

func (p *pubSystem) close() error {
	err := p.db.Close()
	p.db = nil
	return err
}

// The layer stack.

// layerSystem is hdov.DB rebuilt from the layers' functions — the same
// build, the same epoch publication, the same commit — with a timing
// backend under the disk and a timing scheme over the V-pages.
type layerSystem struct {
	tr       *tracer
	disk     *storage.Disk
	media    storage.Backend // the backend under the timing wrapper
	dir      string
	codec    bool
	coherent bool

	mu   sync.RWMutex
	tree *core.Tree
	vis  *core.VisData
	h    *vstore.Horizontal
	v    *vstore.Vertical
	iv   *vstore.IndexedVertical
	nv   *naive.Store
	cur  int // epoch
	ops  []scene.Op

	// sessions made by pin with a track; close folds their counters.
	sessMu   sync.Mutex
	sessions []*layerSession
	counters sessionCounters
	// media's counters when close ran.
	mediaAtClose storage.BackendStats
	// Per-batch update-path counters.
	updates []*core.UpdateStats
}

// buildLayers assembles the stack for cfg, saving the base database to
// dir. pageDir, when non-empty, puts the pages in a real file there.
func buildLayers(cfg hdov.Config, pageDir, dir string, pool int, coherent bool, tr *tracer) (*layerSystem, error) {
	cp := scene.DefaultCityParams()
	cp.Seed = cfg.Scene.Seed
	cp.BlocksX, cp.BlocksY = cfg.Scene.Blocks, cfg.Scene.Blocks
	cp.BuildingsPerBlock = cfg.Scene.BuildingsPerBlock
	cp.BlobsPerBlock = cfg.Scene.BlobsPerBlock
	cp.NominalBytes = cfg.Scene.NominalBytes
	sc := scene.Generate(cp)

	var media storage.Backend = storage.NewMemBackend(0)
	if pageDir != "" {
		if err := os.MkdirAll(pageDir, 0o755); err != nil {
			return nil, err
		}
		fs, err := filestore.Create(filepath.Join(pageDir, dbfile.PagesFileName), 0, filestore.Options{})
		if err != nil {
			return nil, err
		}
		media = fs
	}
	disk := storage.NewDiskOn(&timedBackend{Backend: media, tr: tr}, storage.DefaultCostModel())
	l := &layerSystem{tr: tr, disk: disk, media: media, dir: dir, codec: cfg.Codec, coherent: coherent}

	bp := core.DefaultBuildParams()
	bp.Grid = cells.NewGrid(sc.ViewRegion, cfg.GridCells, cfg.GridCells)
	bp.DirsPerViewpoint = cfg.DoVRays
	bp.SamplesPerCell = cfg.SamplesPerCell
	tree, vis, err := core.Build(sc, disk, bp)
	if err != nil {
		disk.Close()
		return nil, err
	}
	opts := vstore.Options{Codec: cfg.Codec}
	if l.h, err = vstore.BuildHorizontalOpts(disk, vis, opts); err == nil {
		if l.v, err = vstore.BuildVerticalOpts(disk, vis, opts); err == nil {
			if l.iv, err = vstore.BuildIndexedVerticalOpts(disk, vis, opts); err == nil {
				l.nv, err = naive.Build(tree, vis, 0)
			}
		}
	}
	if err != nil {
		disk.Close()
		return nil, err
	}
	tree.SetVStore(&timedVStore{inner: l.iv, tr: tr})
	l.tree, l.vis = tree, vis
	disk.SetCacheSize(pool)
	if err := dbfile.Save(dir, l.database()); err != nil {
		disk.Close()
		return nil, err
	}
	return l, nil
}

// database is the dbfile view of the current epoch. Callers are the
// single writer or hold mu.
func (l *layerSystem) database() *dbfile.Database {
	return &dbfile.Database{
		Scene: l.tree.Scene, Disk: l.disk, Tree: l.tree,
		Horizontal: l.h, Vertical: l.v, Indexed: l.iv, Naive: l.nv,
		Epoch: l.cur, Ops: l.ops,
	}
}

func (l *layerSystem) pin(trk *track) (session, int) {
	l.mu.RLock()
	t, e := l.tree.Session(), l.cur
	l.mu.RUnlock()
	s := &layerSession{t: t, trk: trk, coherent: l.coherent}
	if trk != nil {
		l.sessMu.Lock()
		l.sessions = append(l.sessions, s)
		l.sessMu.Unlock()
	}
	return s, e
}

func (l *layerSystem) epoch() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cur
}

func (l *layerSystem) directory() string { return l.dir }

func toSceneOps(batch []updateOp) []scene.Op {
	out := make([]scene.Op, len(batch))
	for i, op := range batch {
		switch op.kind {
		case opInsert:
			ins := scene.InsertSpec{Seed: op.ins.Seed, X: op.ins.X, Y: op.ins.Y, Radius: op.ins.Radius, Detail: op.ins.Detail}
			out[i] = scene.Op{Kind: scene.OpInsert, Insert: &ins}
		case opDelete:
			out[i] = scene.Op{Kind: scene.OpDelete, ID: op.id}
		default:
			out[i] = scene.Op{Kind: scene.OpMove, ID: op.id, DX: op.dx, DY: op.dy}
		}
	}
	return out
}

// apply is DB.Update followed by DB.CommitEpoch, one span per layer
// call. trk must be the calling goroutine's bound track.
func (l *layerSystem) apply(trk *track, batch []updateOp) (int, error) {
	ops := toSceneOps(batch)
	root := trk.beginOp()
	defer trk.end(root)

	i := trk.begin(spanApplyOps)
	t2, vis2, _, cs, err := core.ApplyOps(l.tree, l.vis, ops)
	trk.end(i)
	if err != nil {
		return 0, err
	}
	opts := vstore.Options{Codec: l.codec}
	i = trk.begin(spanRelayout)
	h, err := vstore.BuildHorizontalOpts(l.disk, vis2, opts)
	var v *vstore.Vertical
	var iv *vstore.IndexedVertical
	if err == nil {
		if v, err = vstore.BuildVerticalOpts(l.disk, vis2, opts); err == nil {
			iv, err = vstore.BuildIndexedVerticalOpts(l.disk, vis2, opts)
		}
	}
	trk.end(i)
	if err != nil {
		return 0, err
	}
	i = trk.begin(spanNaiveBuild)
	nv, err := naive.Build(t2, vis2, 0)
	trk.end(i)
	if err != nil {
		return 0, err
	}
	t2.SetVStore(&timedVStore{inner: iv, tr: l.tr})
	i = trk.begin(spanEngine)
	_ = visibility.NewEngine(t2.Scene, t2.Params.DirsPerViewpoint)
	trk.end(i)

	l.mu.Lock()
	l.tree, l.vis = t2, vis2
	l.h, l.v, l.iv, l.nv = h, v, iv, nv
	l.cur++
	l.ops = append(l.ops, ops...)
	db := l.database()
	l.mu.Unlock()
	l.updates = append(l.updates, cs)

	i = trk.begin(spanCommit)
	e, err := dbfile.CommitEpoch(l.dir, db)
	trk.end(i)
	return e, err
}

// reopen opens the committed directory under a dbfile.open span (trk
// must have no operation open) and digests every answer on it.
func (l *layerSystem) reopen(trk *track) (int, []uint64, error) {
	root := trk.beginOp()
	i := trk.begin(spanReopen)
	d, err := dbfile.Open(l.dir)
	trk.end(i)
	trk.end(root)
	if err != nil {
		return 0, nil, err
	}
	defer d.Close()
	d.Tree.SetVStore(d.Indexed)
	a, err := answers(&layerSession{t: d.Tree.Session()}, d.Tree.Grid.NumCells())
	return d.Epoch, a, err
}

// close folds the client sessions' counters into l.counters and drops
// the live stack, so a reopen does not hold two databases in memory.
func (l *layerSystem) close() error {
	for _, s := range l.sessions {
		l.counters.add(s)
	}
	l.sessions = nil
	l.mediaAtClose = l.media.Stats()
	l.tree, l.vis, l.h, l.v, l.iv, l.nv = nil, nil, nil, nil, nil, nil
	err := l.disk.Close()
	l.disk, l.media = nil, nil
	return err
}

// sessionCounters sums the client sessions' own counters.
type sessionCounters struct {
	nodes, stops, items int64
	coherence           core.CoherenceStats
	io                  storage.Stats
}

func (c *sessionCounters) add(s *layerSession) {
	c.nodes += s.nodes
	c.stops += s.stops
	c.items += s.items
	cs := s.t.CoherenceStats()
	c.coherence.NodesReused += cs.NodesReused
	c.coherence.Expanded += cs.Expanded
	c.coherence.Full += cs.Full
	c.io = c.io.Add(s.t.IO.Stats())
}

// layerSession queries one core.Tree session. With a track it records
// an operation per query: a core.query span around Tree.Query (or
// QueryCoherent) and a core.fetch span around FetchPayloads.
type layerSession struct {
	t        *core.Tree
	trk      *track // nil: untraced
	coherent bool
	last     *core.QueryResult

	nodes, stops, items int64
}

func (s *layerSession) run(q query) error {
	k := s.trk
	root := k.beginOp()
	defer k.end(root)
	i := k.begin(spanCoreQuery)
	var res *core.QueryResult
	var err error
	if s.coherent {
		res, err = s.t.QueryCoherent(cells.CellID(q.cell), etas[q.eta])
	} else {
		res, err = s.t.Query(cells.CellID(q.cell), etas[q.eta])
	}
	k.end(i)
	s.last = res
	if err != nil {
		return err
	}
	i = k.begin(spanCoreFetch)
	_, err = s.t.FetchPayloads(res, nil)
	k.end(i)
	if err == nil {
		s.nodes += int64(res.Stats.NodesVisited)
		s.stops += int64(res.Stats.EarlyStops)
		s.items += int64(len(res.Items))
	}
	return err
}

func (s *layerSession) digest() uint64 { return coreDigest(s.last) }
