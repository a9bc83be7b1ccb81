package hdov

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/render"
	"repro/internal/storage"
	"repro/internal/walkthrough"
)

// Concurrent serving: one open DB can answer many clients at once. Each
// client holds a Session — same tree, same disk, same buffer pool, but
// private I/O accounting and a private storage-scheme cursor — so queries
// from different sessions run concurrently and each session's Result
// carries exactly its own cost. See DESIGN.md §10 for the model.

// Session is an independent query handle on an open DB. Sessions are
// cheap to create and need no teardown. A single Session serves one
// logical client: do not share one between goroutines (create more
// instead — different Sessions are safe to use concurrently).
//
// A Session pins the database epoch current when it was created: queries
// keep answering from that consistent snapshot even while Update installs
// later epochs (the update path only ever appends to the disk, so the
// pinned tree's pages stay valid forever). Create a fresh Session to see
// the newest epoch.
type Session struct {
	tree *core.Tree
}

// Query answers the visibility query at viewpoint p with DoV threshold
// eta, like DB.Query, charged to this session alone.
func (s *Session) Query(p Point, eta float64) (*Result, error) {
	cell, err := locate(s.tree.Grid, p)
	if err != nil {
		return nil, err
	}
	return s.QueryCell(cell, eta)
}

// QueryCell is Query for an explicit cell index.
func (s *Session) QueryCell(cell int, eta float64) (*Result, error) {
	c, err := checkCell(s.tree.Grid, cell)
	if err != nil {
		return nil, err
	}
	r, err := s.tree.Query(c, eta)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// QueryMany answers one QueryCell per entry of cellIDs, fanned out over
// min(GOMAXPROCS, len(cellIDs)) worker sessions of this session's pinned
// epoch. Results come back in input order, byte-identical to a serial
// QueryCell loop, and the workers' I/O is charged to this session's
// Stats. Out-of-range cells are rejected before any query runs.
func (s *Session) QueryMany(cellIDs []int, eta float64) ([]*Result, error) {
	for _, c := range cellIDs {
		if _, err := checkCell(s.tree.Grid, c); err != nil {
			return nil, err
		}
	}
	out := make([]*Result, len(cellIDs))
	errs := make([]error, len(cellIDs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cellIDs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := s.tree.Session()
			defer func() { s.tree.IO.Absorb(t.IO.Stats()) }()
			// Cells are claimed in input order, so when a query fails
			// every earlier cell has been claimed and still completes:
			// the first error in input order is the serial loop's.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cellIDs) {
					return
				}
				r, err := t.Query(cells.CellID(cellIDs[i]), eta)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = wrapResult(r)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// QueryCoherent answers like Query but through the session's retained
// traversal cut: when consecutive queries come from neighboring cells —
// a walkthrough's workload — the previous query's frontier is
// re-evaluated against the new cell's visibility data instead of
// descending from the root. The answer is byte-identical to Query's
// (degraded mode included; any fault on the warm path falls back to a
// full traversal); only the I/O accounting differs. The cut is
// per-session state, which is why the method lives here and not on DB.
func (s *Session) QueryCoherent(p Point, eta float64) (*Result, error) {
	cell, err := locate(s.tree.Grid, p)
	if err != nil {
		return nil, err
	}
	return s.QueryCellCoherent(cell, eta)
}

// QueryCellCoherent is QueryCoherent for an explicit cell index.
func (s *Session) QueryCellCoherent(cell int, eta float64) (*Result, error) {
	c, err := checkCell(s.tree.Grid, cell)
	if err != nil {
		return nil, err
	}
	r, err := s.tree.QueryCoherent(c, eta)
	if err != nil {
		return nil, err
	}
	return wrapResult(r), nil
}

// CoherenceStats reports how a session's QueryCoherent calls resolved.
type CoherenceStats struct {
	// Incremental counts queries served through the cut machinery — the
	// first query and eta changes are included (their seed cut is the
	// bare root, so the whole descent shows up in Expanded); Full counts
	// fallbacks to a from-root traversal after a fault on the warm path.
	Incremental, Full int64
	// NodesReused counts node records served from the cut without a read;
	// Expanded and Collapsed count cut-frontier nodes added and removed.
	NodesReused, Expanded, Collapsed int64
}

// CoherenceStats returns the session's cumulative warm-path accounting.
func (s *Session) CoherenceStats() CoherenceStats {
	return coherenceStatsFrom(s.tree.CoherenceStats())
}

// coherenceStatsFrom mirrors a core coherence snapshot into the public
// type.
func coherenceStatsFrom(cs core.CoherenceStats) CoherenceStats {
	return CoherenceStats{
		Incremental: cs.Incremental, Full: cs.Full,
		NodesReused: cs.NodesReused, Expanded: cs.Expanded, Collapsed: cs.Collapsed,
	}
}

// Fetch charges the heavy-weight I/O of retrieving every item's payload,
// like DB.Fetch, charged to this session alone.
func (s *Session) Fetch(r *Result) error {
	return fetchOn(s.tree, r)
}

// Stats returns the session's own cumulative I/O accounting: only reads
// this session issued, regardless of how many other sessions share the
// disk.
func (s *Session) Stats() DiskStats {
	return diskStatsFrom(s.tree.IO.Stats())
}

// ResetStats zeroes the session's counters (global disk counters are
// untouched).
func (s *Session) ResetStats() {
	s.tree.IO.ResetStats()
}

// NewSession returns a fresh query session on the database. The session
// sees the scheme, parallelism settings and scene epoch in effect now;
// SetScheme, SetParallel or Update calls after creation affect only
// future sessions.
func (db *DB) NewSession() *Session {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &Session{tree: db.tree.Session()}
}

// SetCacheSize installs a shared buffer pool of n disk pages in front of
// the simulated disk (n <= 0 removes it; the default is none, matching
// the paper's uncached prototype — §5.4). Cached reads charge no seek or
// transfer: the cost model bills only pool misses, so a hot working set
// serves many sessions at memory speed.
func (db *DB) SetCacheSize(n int) {
	db.disk.SetCacheSize(n)
}

// PoolStats reports the shared buffer pool's accounting (zeros when no
// pool is installed).
type PoolStats struct {
	// Hits and Misses split by I/O class: light (index: node records,
	// V-pages) and heavy (model payload).
	LightHits, LightMisses int64
	HeavyHits, HeavyMisses int64
	Evictions              int64
	// Pages is the current resident page count; Capacity the configured
	// limit.
	Pages, Capacity int
}

// poolStatsFrom mirrors a storage pool snapshot into the public type.
func poolStatsFrom(s storage.PoolStats) PoolStats {
	return PoolStats{
		LightHits: s.LightHits, LightMisses: s.LightMisses,
		HeavyHits: s.HeavyHits, HeavyMisses: s.HeavyMisses,
		Evictions: s.Evictions,
		Pages:     s.Pages, Capacity: s.Capacity,
	}
}

// PoolStats returns the current buffer-pool counters.
func (db *DB) PoolStats() PoolStats {
	return poolStatsFrom(db.disk.PoolStats())
}

// SetParallel bounds the per-query traversal fan-out: each query descends
// up to n child subtrees concurrently (n <= 1 restores the strictly
// serial Figure 3 traversal; the answer set is identical either way).
// Affects DB queries and sessions created afterwards.
func (db *DB) SetParallel(n int) {
	t, _ := db.snapshot()
	t.SetParallel(n)
}

// ServeStats summarizes a concurrent multi-client walkthrough run.
type ServeStats struct {
	// Clients is how many walkers played; Errors how many aborted.
	Clients, Errors int
	// Queries is the total database queries served; Elapsed the wall-clock
	// span; Throughput the ratio in queries per second.
	Queries    int
	Elapsed    time.Duration
	Throughput float64
	// Degradations totals absorbed media faults across clients.
	Degradations int
	// Rejected totals admission rejections and BudgetMisses frames that
	// blew their FrameBudget, summed across clients; both are deliberate
	// shedding outcomes, not errors. Shed counts the load shedder's level
	// transitions over the run (0 when no shedder was configured).
	Rejected     int
	BudgetMisses int
	Shed         int64
	// PerClient is each client's playback summary (nil entries for aborted
	// clients) and own retry count.
	PerClient []ClientStats
}

// ClientStats is one client's share of a serving run.
type ClientStats struct {
	Queries      int
	Frames       int
	AvgFrameMS   float64
	Degradations int
	// Rejected and BudgetMisses are this client's shed frames (admission
	// rejections and frame-budget expiries respectively).
	Rejected     int
	BudgetMisses int
	// Reads and Retries are this client's own disk traffic.
	Reads, Retries int64
	SimTime        time.Duration
	Err            string
}

// Serve plays n concurrent walkthrough clients against the database, each
// with its own recorded motion path (seeded from opts.Seed + client
// index), and returns the aggregate and per-client accounting. It is the
// multi-client form of Walkthrough; opts.UseREVIEW is not supported here.
func (db *DB) Serve(opts WalkOptions, n int) (*ServeStats, error) {
	return db.ServeContext(context.Background(), opts, n)
}

// ServeContext is Serve bounded by ctx and is the overload-resilient
// serve path: opts.Admission gates cell-entry queries through a bounded
// admission controller, opts.Shed installs fidelity-aware load shedding,
// and opts.FrameBudget bounds each client frame. Cancellation aborts all
// clients; shed and rejected work is counted in the returned stats, not
// reported as errors.
func (db *DB) ServeContext(ctx context.Context, opts WalkOptions, n int) (*ServeStats, error) {
	if n < 1 {
		n = 1
	}
	if opts.UseREVIEW {
		return nil, fmt.Errorf("hdov: Serve supports only the VISUAL system")
	}
	if opts.Frames <= 0 {
		opts.Frames = 600
	}
	tree, sc := db.snapshot()
	sessions := make([]walkthrough.Session, n)
	for i := range sessions {
		sessions[i] = recordSession(sc, opts.Session, opts.Frames, opts.Seed+int64(i))
	}
	m := &walkthrough.SessionManager{
		Base:        tree,
		Eta:         opts.Eta,
		Delta:       opts.Delta,
		Prefetch:    opts.Prefetch,
		CacheBudget: opts.CacheBudget,
		Render:      render.DefaultConfig(),
		FrameBudget: opts.FrameBudget,
	}
	if opts.Admission != nil {
		m.Admission = overload.New(overload.Config{
			MaxConcurrent: opts.Admission.MaxConcurrent,
			MaxQueue:      opts.Admission.MaxQueue,
			MaxPerClient:  opts.Admission.MaxPerClient,
		})
	}
	if opts.Shed != nil {
		m.Shedder = overload.NewShedder(overload.ShedConfig{
			Target: opts.Shed.Target,
			Upper:  opts.Shed.Upper,
			Lower:  opts.Shed.Lower,
		})
	}
	run := m.PlayContext(ctx, sessions)
	out := &ServeStats{
		Clients:      n,
		Errors:       run.Errs,
		Queries:      run.Queries,
		Elapsed:      run.Elapsed,
		Rejected:     run.Rejected,
		BudgetMisses: run.BudgetMisses,
		Shed:         run.Shed,
		PerClient:    make([]ClientStats, n),
	}
	out.Throughput = run.Throughput()
	for i, p := range run.Players {
		cs := ClientStats{Reads: p.IO.Reads, Retries: p.IO.Retries, SimTime: p.IO.SimTime}
		if p.Err != nil {
			cs.Err = p.Err.Error()
		} else {
			cs.Queries = p.Result.Queries
			cs.Frames = len(p.Result.Frames)
			cs.AvgFrameMS = p.Result.AvgFrameTime()
			cs.Degradations = p.Result.Degradations
			cs.Rejected = p.Result.Rejected
			cs.BudgetMisses = p.Result.BudgetMisses
			out.Degradations += p.Result.Degradations
		}
		out.PerClient[i] = cs
	}
	return out, nil
}

// fetchOn is Fetch against an explicit tree session.
func fetchOn(t *core.Tree, r *Result) error {
	return fetchOnContext(context.Background(), t, r)
}

// fetchOnContext is fetchOn bounded by ctx: items fetched before the
// deadline expired keep their accounting; the rest are abandoned.
func fetchOnContext(ctx context.Context, t *core.Tree, r *Result) error {
	before := t.IO.Stats()
	_, ferr := t.FetchPayloadsContext(ctx, r.inner, nil)
	if ferr != nil && ctx.Err() == nil {
		// Media fault: same contract as the unbounded path — the caller
		// gets the error and the Result stays untouched.
		return ferr
	}
	d := t.IO.Stats().Sub(before)
	r.HeavyIO += d.HeavyReads
	r.SimTime += d.SimTime
	r.Retries += d.Retries
	if ferr != nil {
		return ferr
	}
	// Payload faults absorbed during the fetch may have degraded items to
	// coarser levels and appended degradation records: re-mirror both.
	if len(r.inner.Degradations) > len(r.Degradations) {
		fresh := wrapResult(r.inner)
		r.Items = fresh.Items
		r.Degradations = fresh.Degradations
	}
	return nil
}

// diskStatsFrom mirrors a storage.Stats snapshot into the public type.
func diskStatsFrom(s storage.Stats) DiskStats {
	return DiskStats{
		Reads: s.Reads, Seeks: s.Seeks,
		LightReads: s.LightReads, HeavyReads: s.HeavyReads,
		Retries:        s.Retries,
		SimTime:        s.SimTime,
		MeasuredTime:   s.MeasuredTime,
		PoolHits:       s.PoolLightHits + s.PoolHeavyHits,
		PoolMisses:     s.PoolLightMisses + s.PoolHeavyMisses,
		PrefetchHits:   s.PrefetchHits,
		PrefetchWasted: s.PrefetchWasted,
		VDCacheHits:    s.VDCacheHits,
		CoalescedReads: s.CoalescedReads,
	}
}
