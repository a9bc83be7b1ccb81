package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	hdov "repro"
	"repro/internal/storage"
)

// tracedRun replays the untraced pass's inputs through the layer stack
// with tracing on, checks that it answers exactly as the untraced pass
// did, and reports the per-layer metrics through put. The untraced pass
// supplies the runtime and epoch-pin figures, which tracing would
// distort. It returns the traced pass, whose checks include the
// comparison with the untraced one.
func tracedRun(sp spec, pc passConfig, untraced *passResult, traceDir string, put func(name string, v float64)) (*passResult, error) {
	work, err := os.MkdirTemp("", "perfbench-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg := hdov.DefaultConfig()
	cfg.Codec = sp.codec
	pageDir := ""
	if sp.file {
		pageDir = filepath.Join(work, "pages")
	}
	debug.FreeOSMemory() // drop the untraced pass's database first
	tr := newTracer()
	l, err := buildLayers(cfg, pageDir, filepath.Join(work, "db"), sp.pool, sp.walk, tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	warm, _ := l.pin(nil)
	if _, err := answers(warm, pc.side*pc.side); err != nil {
		return nil, fmt.Errorf("traced warm-up: %w", err)
	}

	// The pool charges evictions to the disk, not to the session that
	// caused them.
	mediaBefore, evictBefore := l.media.Stats(), l.disk.Stats().PoolEvictions
	var evictions int64
	pc.afterWindow = func() { evictions = l.disk.Stats().PoolEvictions - evictBefore }
	pc.tr, pc.replay = tr, untraced
	res, err := runPass(l, pc)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	media := subMedia(l.mediaAtClose, mediaBefore)

	// The traced run must answer as the untraced one did.
	if !sp.mixed {
		for c := range untraced.digests {
			if !equalDigests(untraced.digests[c], res.digests[c]) {
				res.failf("traced run: client %d answers differ from the untraced run", c)
			}
		}
	}
	if res.lastEpoch != untraced.lastEpoch || !equalDigests(res.final, untraced.final) {
		res.failf("traced run: final epoch %d answers differ from the untraced run's (epoch %d)", res.lastEpoch, untraced.lastEpoch)
	}

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, pc.seed))); err != nil {
		return nil, err
	}

	isClient := func(name string) bool { return strings.HasPrefix(name, "client") }
	isWriter := func(name string) bool { return name == "writer" }
	isReopen := func(name string) bool { return name == "reopen" }
	q := float64(res.queries)
	b := float64(len(res.updMS))
	us := func(kind spanKind) (float64, float64) {
		ns, calls := tr.layer(kind, isClient)
		return float64(ns) / 1e3 / q, float64(calls) / q
	}
	msPerUpdate := func(kind spanKind) float64 {
		ns, _ := tr.layer(kind, isWriter)
		return float64(ns) / 1e6 / b
	}

	// Sample counts behind the end-to-end percentiles.
	put("query.samples", float64(untraced.queries))
	put("update.samples", float64(len(untraced.updMS)))

	// core: traversal and payload fetch.
	v, _ := us(spanCoreQuery)
	put("core.query_self_us", v)
	v, _ = us(spanCoreFetch)
	put("core.fetch_self_us", v)
	sc := l.counters
	nodes, stops, items, coh, io := sc.nodes, sc.stops, sc.items, sc.coherence, sc.io
	put("core.nodes_visited_per_query", float64(nodes)/q)
	put("core.early_stops_per_query", float64(stops)/q)
	put("core.items_per_query", float64(items)/q)
	put("core.cut_reuse_frac", ratio(float64(coh.NodesReused), float64(coh.NodesReused+coh.Expanded)))
	put("core.cut_full_fallbacks", float64(coh.Full))

	// vstore: cell flips and per-node V-data lookups.
	v, c := us(spanSetCell)
	put("vstore.setcell_us_per_query", v)
	put("vstore.setcell_calls_per_query", c)
	v, c = us(spanNodeVD)
	put("vstore.nodevd_us_per_query", v)
	put("vstore.nodevd_calls_per_query", c)

	// storage: the Disk, its pool and the sessions' Clients.
	hits := io.PoolLightHits + io.PoolHeavyHits
	misses := io.PoolLightMisses + io.PoolHeavyMisses
	put("storage.light_reads_per_query", float64(io.LightReads)/q)
	put("storage.heavy_reads_per_query", float64(io.HeavyReads)/q)
	put("storage.pool_hit_frac", ratio(float64(hits), float64(hits+misses)))
	put("storage.pool_evictions_per_query", float64(evictions)/q)
	put("storage.coalesced_reads_per_query", float64(io.CoalescedReads)/q)
	put("storage.sim_us_per_query", float64(io.SimTime.Nanoseconds())/1e3/q)

	// backend: the media under the Disk.
	v, _ = us(spanBackendRead)
	put("backend.read_us_per_query", v)
	var reads, pages, bytes int64
	for _, k := range tr.tracks {
		if isClient(k.name) {
			reads, pages, bytes = reads+k.reads, pages+k.pagesRead, bytes+k.bytesRead
		}
	}
	put("backend.reads_per_query", float64(reads)/q)
	put("backend.pages_per_read", ratio(float64(pages), float64(reads)))
	put("backend.bytes_read_per_query", float64(bytes)/q)
	put("backend.mmap_read_frac", ratio(float64(media.MmapReads), float64(media.Reads)))
	wns, _ := tr.layer(spanBackendWrite, isWriter)
	put("backend.write_us_per_update", float64(wns)/1e3/b)
	_, syncs := tr.layer(spanBackendSync, isWriter)
	put("backend.syncs_per_update", float64(syncs)/b)

	// The update path.
	var touched, total, reused, rebuilt, appended int64
	for _, u := range l.updates {
		touched += int64(u.TouchedCells)
		total += int64(u.TotalCells)
		reused += int64(u.LoDReused)
		rebuilt += int64(u.LoDRebuilt)
		appended += u.PagesAppended
	}
	put("core.applyops_ms_per_update", msPerUpdate(spanApplyOps))
	put("core.touched_cell_frac", ratio(float64(touched), float64(total)))
	put("core.lod_reuse_frac", ratio(float64(reused), float64(reused+rebuilt)))
	put("core.pages_appended_per_update", float64(appended)/b)
	put("vstore.relayout_ms_per_update", msPerUpdate(spanRelayout))
	put("naive.build_ms_per_update", msPerUpdate(spanNaiveBuild))
	put("visibility.engine_ms_per_update", msPerUpdate(spanEngine))
	put("dbfile.commit_ms_per_update", msPerUpdate(spanCommit))
	reopen, _ := tr.layer(spanReopen, isReopen)
	put("dbfile.reopen_s", float64(reopen)/1e9)

	// hdov: the mixed reader's epoch pins (untraced).
	put("hdov.newsession_us", mean(untraced.pinUS))

	// runtime, over the untraced window.
	uq := float64(untraced.queries)
	put("runtime.gc_cycles_per_kquery", float64(untraced.rt.gcCycles)/uq*1000)
	put("runtime.gc_pause_us_per_query", untraced.rt.gcPauseS*1e6/uq)
	put("runtime.sched_wait_p99_us", untraced.rt.schedP99S*1e6)

	// Tracing itself: the traced time per query, the part of it no layer
	// span covers (the benchmark's own bookkeeping between spans), and
	// the difference from the untraced run's time per query.
	var ops, opNanos, rootSelf int64
	for _, k := range tr.tracks {
		if isClient(k.name) {
			ops, opNanos, rootSelf = ops+k.ops, opNanos+k.opNanos, rootSelf+k.self[spanOp]
		}
	}
	tracedUS := float64(opNanos) / 1e3 / float64(ops)
	put("trace.query_us", tracedUS)
	put("trace.unattributed_us_per_query", float64(rootSelf)/1e3/float64(ops))
	put("trace.overhead_us_per_query", tracedUS-mean(untraced.latUS))
	return res, nil
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func subMedia(a, b storage.BackendStats) storage.BackendStats {
	return storage.BackendStats{
		Reads: a.Reads - b.Reads, PagesRead: a.PagesRead - b.PagesRead, BytesRead: a.BytesRead - b.BytesRead,
		MmapReads: a.MmapReads - b.MmapReads, Writes: a.Writes - b.Writes, Syncs: a.Syncs - b.Syncs,
	}
}
