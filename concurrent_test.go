package hdov

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSessionsDeterministic: with the pool disabled, every
// session must see the paper's exact single-client accounting (Figure 8
// page counts) no matter how many run at once, and identical answers;
// a parallel QueryMany batch must answer like a serial loop.
func TestConcurrentSessionsDeterministic(t *testing.T) {
	db := testDB(t)
	p := centerPoint(db)
	cell := db.CellOf(p)

	ref, err := db.NewSession().QueryCell(cell, 0.001)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	results := make([]*Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			results[i], errs[i] = s.QueryCell(cell, 0.001)
			if errs[i] != nil {
				return
			}
			st := s.Stats()
			if st.LightReads != ref.LightIO {
				errs[i] = fmt.Errorf("session light reads = %d, single-client reference = %d",
					st.LightReads, ref.LightIO)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !reflect.DeepEqual(results[i].Items, ref.Items) {
			t.Fatalf("client %d items differ from reference", i)
		}
		if results[i].LightIO != ref.LightIO {
			t.Fatalf("client %d query light IO = %d, want %d", i, results[i].LightIO, ref.LightIO)
		}
	}

	// QueryMany fans a batch out over worker sessions of the caller's
	// epoch: answers match a serial QueryCell loop byte for byte and in
	// input order, for a shuffled batch too, and the workers' I/O is
	// billed to the calling session — on this otherwise idle DB it is
	// exactly what the disk counted.
	n := db.NumCells()
	want := make([]string, n)
	serial := db.NewSession()
	inOrder := make([]int, n)
	shuffled := make([]int, n)
	for c := 0; c < n; c++ {
		r, err := serial.QueryCell(c, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = publicFingerprint(r)
		inOrder[c] = c
		shuffled[c] = (c*7 + 3) % n // 7 is coprime to the 36-cell grid
	}
	for _, batch := range [][]int{inOrder, shuffled} {
		s := db.NewSession()
		before := db.DiskStats()
		got, err := s.QueryMany(batch, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) {
			t.Fatalf("QueryMany returned %d results for %d cells", len(got), len(batch))
		}
		for i, c := range batch {
			if publicFingerprint(got[i]) != want[c] {
				t.Fatalf("QueryMany slot %d (cell %d) differs from the serial answer", i, c)
			}
		}
		if d, st := diskStatsDelta(db.DiskStats(), before), s.Stats(); d != st {
			t.Fatalf("session stats %+v, disk delta %+v", st, d)
		}
	}

	// An out-of-range cell rejects the whole batch before any query runs.
	s := db.NewSession()
	before := db.DiskStats()
	for _, bad := range [][]int{{0, n}, {-1, 0}} {
		if _, err := s.QueryMany(bad, 0.001); err == nil {
			t.Fatalf("QueryMany(%v) accepted an out-of-range cell", bad)
		}
	}
	if db.DiskStats() != before || s.Stats() != (DiskStats{}) {
		t.Fatal("a rejected QueryMany batch charged I/O")
	}
}

// TestConcurrentSessionsShareRecordTable: the sessions of one epoch share
// its decoded node records, so eight of them sweeping every cell at once,
// with and without a buffer pool, must each answer exactly like a serial
// session while the race detector watches.
func TestConcurrentSessionsShareRecordTable(t *testing.T) {
	db := testDB(t)
	n := db.NumCells()
	want := make([]string, n)
	serial := db.NewSession()
	for c := 0; c < n; c++ {
		r, err := serial.QueryCell(c, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = publicFingerprint(r)
	}
	defer db.SetCacheSize(0)
	for _, pool := range []int{0, 1 << 12} {
		db.SetCacheSize(pool)
		const clients = 8
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := db.NewSession()
				for k := 0; k < n; k++ {
					c := (k + i*n/clients) % n
					r, err := s.QueryCell(c, 0.001)
					if err == nil {
						err = s.Fetch(r)
					}
					if err != nil {
						errs[i] = err
						return
					}
					if publicFingerprint(r) != want[c] {
						errs[i] = fmt.Errorf("cell %d differs from the serial answer", c)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("pool %d, client %d: %v", pool, i, err)
			}
		}
	}
}

// diskStatsDelta returns a - b field by field.
func diskStatsDelta(a, b DiskStats) DiskStats {
	return DiskStats{
		Reads: a.Reads - b.Reads, Seeks: a.Seeks - b.Seeks,
		LightReads: a.LightReads - b.LightReads, HeavyReads: a.HeavyReads - b.HeavyReads,
		Retries:        a.Retries - b.Retries,
		SimTime:        a.SimTime - b.SimTime,
		MeasuredTime:   a.MeasuredTime - b.MeasuredTime,
		PoolHits:       a.PoolHits - b.PoolHits,
		PoolMisses:     a.PoolMisses - b.PoolMisses,
		PrefetchHits:   a.PrefetchHits - b.PrefetchHits,
		PrefetchWasted: a.PrefetchWasted - b.PrefetchWasted,
		VDCacheHits:    a.VDCacheHits - b.VDCacheHits,
		CoalescedReads: a.CoalescedReads - b.CoalescedReads,
	}
}

// publicFingerprint renders a public Result's answer bytes.
func publicFingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell=%d eta=%g\n", r.Cell, r.Eta)
	for _, it := range r.Items {
		fmt.Fprintf(&b, "%d %d %x %x %d %x %d\n",
			it.ObjectID, it.NodeID, it.DoV, it.Detail, it.Level, it.Polygons, it.Bytes)
	}
	for _, dg := range r.Degradations {
		fmt.Fprintf(&b, "deg %d %d %s\n", dg.Node, dg.Object, dg.Cause)
	}
	return b.String()
}

// TestConcurrentQueriesAndSave hammers one open DB from many goroutines —
// query+fetch traffic, concurrent crash-safe Saves, and pool
// reconfiguration — while the race detector watches. The saved snapshots
// must reopen to byte-identical answers.
func TestConcurrentQueriesAndSave(t *testing.T) {
	db := testDB(t)
	p := centerPoint(db)
	cell := db.CellOf(p)
	tmp := t.TempDir()

	ref, err := db.NewSession().QueryCell(cell, 0.001)
	if err != nil {
		t.Fatal(err)
	}

	db.SetCacheSize(1 << 12)
	defer db.SetCacheSize(0)

	const clients = 6
	const perClient = 12
	var wg sync.WaitGroup
	errs := make([]error, clients+3)

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			for q := 0; q < perClient; q++ {
				c := (cell + i + q) % db.NumCells()
				r, err := s.QueryCell(c, 0.001)
				if err != nil {
					errs[i] = err
					return
				}
				if q == 0 {
					if err := s.Fetch(r); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i)
	}
	// Two concurrent savers snapshotting mid-traffic.
	dirs := []string{filepath.Join(tmp, "a"), filepath.Join(tmp, "b")}
	for j, dir := range dirs {
		wg.Add(1)
		go func(j int, dir string) {
			defer wg.Done()
			errs[clients+j] = db.Save(dir)
		}(j, dir)
	}
	// One goroutine resizing the pool under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range []int{1 << 10, 0, 1 << 12} {
			db.SetCacheSize(n)
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Snapshots taken under live read traffic must reopen cleanly and
	// answer exactly like the live database.
	for _, dir := range dirs {
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		got, err := re.QueryCell(cell, 0.001)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if !reflect.DeepEqual(got.Items, ref.Items) {
			t.Fatalf("%s: reopened answer differs from live database", dir)
		}
	}
}

// TestServeAPI plays concurrent walkthrough clients through the public
// serving entry point and sanity-checks the aggregate accounting.
func TestServeAPI(t *testing.T) {
	db := testDB(t)
	db.SetCacheSize(1 << 12)
	defer db.SetCacheSize(0)

	stats, err := db.Serve(WalkOptions{Frames: 15, Eta: 0.001, Delta: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors > 0 {
		t.Fatalf("%d clients aborted: %+v", stats.Errors, stats.PerClient)
	}
	if stats.Clients != 3 || len(stats.PerClient) != 3 {
		t.Fatalf("clients = %d, per-client = %d", stats.Clients, len(stats.PerClient))
	}
	if stats.Queries <= 0 || stats.Throughput <= 0 {
		t.Fatalf("no served throughput: %+v", stats)
	}
	sum := 0
	for i, c := range stats.PerClient {
		if c.Queries <= 0 || c.Frames != 15 {
			t.Fatalf("client %d: %+v", i, c)
		}
		if c.Reads <= 0 {
			t.Fatalf("client %d charged no reads (per-session accounting broken)", i)
		}
		sum += c.Queries
	}
	if sum != stats.Queries {
		t.Fatalf("per-client queries sum %d != aggregate %d", sum, stats.Queries)
	}

	if ps := db.PoolStats(); ps.LightHits == 0 {
		t.Fatalf("shared pool saw no hits across 3 walkthrough clients: %+v", ps)
	}

	if _, err := db.Serve(WalkOptions{UseREVIEW: true}, 2); err == nil {
		t.Fatal("Serve accepted UseREVIEW")
	}
}
