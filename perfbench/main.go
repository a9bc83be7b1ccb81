// Command perfbench is the wall-clock benchmark of the hdov module. It
// runs one workload through the public hdov API with tracing off, checks
// every answer, and prints the end-to-end metrics as one JSON line. With
// -trace 1 it then replays the same generated inputs through the same
// stack assembled from the layers' own functions, with spans around every
// layer call, and prints the per-layer metrics instead.
//
//	perfbench --workload cells-pooled --seed 7 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics and the host facts each
// run prints. The dataset is fixed (hdov.DefaultConfig, scene seed 1);
// the seed only shapes the generated queries and update ops.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	hdov "repro"
)

// setupReps is how many times a measured run sets up; setup_s is the
// median.
const setupReps = 3

// fidelityCells is how many seeded cells the η=0 fidelity oracle checks.
const fidelityCells = 4

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: cells-pooled, walk-file or update-mix")
	seed := fs.Int64("seed", 1, "seed of the generated queries and update ops")
	seconds := fs.Int("seconds", 10, "length of the measured query window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: replay traced and print per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its sampled spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*workload)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traced)
		return 2
	}
	out, err := measure(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *traceDir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is a set-up workload on the public API.
type env struct {
	sys     *pubSystem
	ref     []uint64 // epoch-0 answers of a serial, pool-less simulated session
	warm    []uint64 // the warm-up pass's answers
	side    int
	objects int
	lo, hi  hdov.Point
}

// setupPublic builds the workload's database in work, computes the
// reference answers, saves the base database for later commits, and
// warms the workload's query path.
func setupPublic(sp spec, work string) (*env, error) {
	cfg := hdov.DefaultConfig()
	cfg.Codec = sp.codec
	if sp.file {
		cfg.Storage = hdov.StorageConfig{Backend: hdov.BackendFile, Dir: filepath.Join(work, "pages")}
	}
	db, err := hdov.Build(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{sys: &pubSystem{db: db, dir: filepath.Join(work, "db"), coherent: sp.walk}, side: cfg.GridCells}
	fail := func(err error) (*env, error) {
		db.Close()
		return nil, err
	}
	refDB := db
	if sp.file || sp.codec {
		if refDB, err = hdov.Build(hdov.DefaultConfig()); err != nil {
			return fail(err)
		}
		defer refDB.Close()
	}
	if e.ref, err = answers(&pubSession{s: refDB.NewSession()}, refDB.NumCells()); err != nil {
		return fail(fmt.Errorf("reference answers: %w", err))
	}
	db.SetCacheSize(sp.pool)
	if err := db.Save(e.sys.dir); err != nil {
		return fail(err)
	}
	if e.warm, err = answers(&pubSession{s: db.NewSession(), coherent: sp.walk}, db.NumCells()); err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	e.objects = db.NumObjects()
	e.lo, e.hi = db.ViewRegion()
	return e, nil
}

// measure runs the workload and assembles its metrics.
func measure(sp spec, seed int64, window time.Duration, traced bool, traceDir string, log io.Writer) (*output, error) {
	base, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	fmt.Fprintln(log, hostFacts(base))

	reps := setupReps
	if traced {
		reps = 1 // setup_s is not reported by a traced run
	}
	var e *env
	var setupS []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			e.sys.close()
			e = nil
		}
		work := filepath.Join(base, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if e, err = setupPublic(sp, work); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	heapMB := liveHeapMB()

	pc := passConfig{sp: sp, seed: seed, side: e.side, objects: e.objects, lo: e.lo, hi: e.hi, window: window, ref: e.ref}
	sys, warm := e.sys, e.warm
	e = nil // runPass closes the database; nothing else may keep it alive
	pc.beforeClose = func(res *passResult) { checkFidelity(sys.db, seed, pc.side*pc.side, res) }
	res, err := runPass(sys, pc)
	if err != nil {
		return nil, err
	}
	for k := range warm {
		if warm[k] != pc.ref[k] {
			res.failf("warm-up answer %d differs from the reference", k)
			break
		}
	}

	out := &output{Metrics: map[string]metric{}}
	want := endToEnd
	if traced {
		want = perLayer
	}
	put := func(name string, v float64) { out.Metrics[name] = metric{v, unitOf(want, name)} }
	if !traced {
		put("setup_s", median(setupS))
		ws := newWindowStats(res.latUS, res.endNS, window)
		put("query_p50_us", median(ws.p50s))
		put("query_p99_us", median(ws.p99s))
		put("queries_per_s", median(ws.rates))
		put("alloc_bytes_per_query", float64(res.mem.allocBytes)/float64(res.queries))
		put("allocs_per_query", float64(res.mem.allocs)/float64(res.queries))
		put("live_heap_mb", heapMB)
		put("update_p50_ms", percentile(res.updMS, 50))
		put("update_p90_ms", percentile(res.updMS, 90))
		put("write_bytes_per_update", meanInt(res.writeBytes))
	}
	checks := res.checkFailed
	out.Attempted, out.Failed = res.attempted(), res.failures()
	if traced {
		pc.beforeClose = nil
		tres, err := tracedRun(sp, pc, res, traceDir, put)
		if err != nil {
			return nil, err
		}
		checks = append(checks, tres.checkFailed...)
		out.Attempted += tres.attempted()
		out.Failed += tres.failures()
	}
	if err := checkMetrics(out.Metrics, want); err != nil {
		return nil, err
	}
	summarize(log, sp, res, window)
	out.Correct = out.Failed == 0 && len(checks) == 0
	for _, f := range checks {
		fmt.Fprintln(log, "check failed:", f)
	}
	return out, nil
}

// checkFidelity is the independent oracle: on a seeded sample of cells,
// an η=0 answer must cover every truly visible object at the cell's
// viewpoint.
func checkFidelity(db *hdov.DB, seed int64, numCells int, res *passResult) {
	rng := newRand(seed, streamSample)
	s := db.NewSession()
	for _, c := range rng.Perm(numCells)[:fidelityCells] {
		r, err := s.QueryCell(c, 0)
		if err != nil {
			res.failf("fidelity: cell %d: %v", c, err)
			continue
		}
		if f := db.Fidelity(db.CellViewpoint(c), r); f.Coverage != 1 {
			res.failf("fidelity: cell %d: eta=0 coverage %v", c, f.Coverage)
		}
	}
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// summarize logs the sample counts behind the percentiles and how much
// the window's parts disagreed.
func summarize(log io.Writer, sp spec, res *passResult, window time.Duration) {
	fmt.Fprintf(log, "%s: %d queries (%d beyond p99 in each of %d parts) in %.2fs, %d update batches (%d beyond p90), %d failed, epoch %d\n",
		sp.name, res.queries, beyond(len(res.latUS)/subWindows, 99), subWindows, res.wall.Seconds(),
		len(res.updMS), beyond(len(res.updMS), 90), res.failures(), res.lastEpoch)
	ws := newWindowStats(res.latUS, res.endNS, window)
	fmt.Fprintf(log, "%s: quartile spread across parts: p50 %.3f, p99 %.3f, queries/s %.3f\n",
		sp.name, spread(ws.p50s), spread(ws.p99s), spread(ws.rates))
}
