package hdov

// Backend differential suite: the same saved database, reopened on the
// simulated in-memory disk and on the real file backend, must answer
// every query mode identically — all three V-page schemes, raw and codec
// layouts, serial, parallel and coherent traversal. The file backend may
// only differ in wall-clock accounting (MeasuredTime).

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// sameItems fails the test unless both results carry identical item
// lists.
func sameItems(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d vs %d items", label, len(want.Items), len(got.Items))
	}
	for i := range want.Items {
		a, b := want.Items[i], got.Items[i]
		if a.ObjectID != b.ObjectID || a.NodeID != b.NodeID || a.Level != b.Level ||
			math.Abs(a.DoV-b.DoV) > 1e-12 {
			t.Fatalf("%s item %d: %+v vs %+v", label, i, a, b)
		}
	}
}

// runDifferential drives one saved database through every scheme and
// traversal mode on both backends.
func runDifferential(t *testing.T, dir string) {
	sim, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	fb, err := OpenWith(dir, StorageConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	cells := []int{0, sim.NumCells() / 3, sim.NumCells() - 1}
	for _, scheme := range []Scheme{SchemeIndexedVertical, SchemeVertical, SchemeHorizontal} {
		sim.SetScheme(scheme)
		fb.SetScheme(scheme)

		// Serial.
		for _, c := range cells {
			a, err := sim.QueryCell(c, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fb.QueryCell(c, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			sameItems(t, scheme.String()+"/serial", a, b)
		}

		// Parallel traversal fan-out.
		sim.SetParallel(4)
		fb.SetParallel(4)
		for _, c := range cells {
			a, err := sim.QueryCell(c, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fb.QueryCell(c, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			sameItems(t, scheme.String()+"/parallel", a, b)
		}
		sim.SetParallel(1)
		fb.SetParallel(1)

		// Coherent session walk (delta/complement against the previous
		// cell's cut).
		ss, fs := sim.NewSession(), fb.NewSession()
		for _, c := range cells {
			a, err := ss.QueryCellCoherent(c, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fs.QueryCellCoherent(c, 0.002)
			if err != nil {
				t.Fatal(err)
			}
			sameItems(t, scheme.String()+"/coherent", a, b)
		}
	}

	// Only the measured wall-clock diverges between the backends.
	if ms := sim.DiskStats().MeasuredTime; ms != 0 {
		t.Fatalf("simulated backend charged MeasuredTime %v", ms)
	}
	if fb.DiskStats().MeasuredTime <= 0 {
		t.Fatal("file backend charged no MeasuredTime")
	}
}

func TestBackendDifferentialRaw(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	runDifferential(t, dir)
}

func TestBackendDifferentialCodec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 128
	cfg.Scene.NominalBytes = 4 << 20
	cfg.Codec = true
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	runDifferential(t, dir)
}

// TestQueryManyFileBacked runs the parallel QueryMany batch on the file
// backend: every worker session reads the one real page file, and the
// answers, in reversed input order, must match a serial loop.
func TestQueryManyFileBacked(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenWith(dir, StorageConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	n := fb.NumCells()
	batch := make([]int, n)
	for i := range batch {
		batch[i] = n - 1 - i
	}
	got, err := fb.NewSession().QueryMany(batch, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	s := fb.NewSession()
	for i, c := range batch {
		want, err := s.QueryCell(c, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		if publicFingerprint(got[i]) != publicFingerprint(want) {
			t.Fatalf("slot %d (cell %d): file-backed QueryMany diverged from the serial answer", i, c)
		}
	}
	if fb.DiskStats().MeasuredTime <= 0 {
		t.Fatal("file-backed QueryMany charged no MeasuredTime")
	}
}

// TestBuildFileBacked exercises the other entry point: Build directly
// onto the file backend, with the page file in a caller-named directory,
// then Save and a file-backed reopen.
func TestBuildFileBacked(t *testing.T) {
	pagesDir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Scene.Blocks = 2
	cfg.GridCells = 4
	cfg.DoVRays = 128
	cfg.Scene.NominalBytes = 4 << 20
	cfg.Storage = StorageConfig{Backend: BackendFile, Dir: pagesDir}
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := os.Stat(filepath.Join(pagesDir, "pages.dat")); err != nil {
		t.Fatalf("page file not created: %v", err)
	}
	res, err := db.QueryCell(0, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Fetch(res); err != nil {
		t.Fatal(err)
	}
	if db.DiskStats().MeasuredTime <= 0 {
		t.Fatal("file-backed build charged no MeasuredTime")
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWith(dir, StorageConfig{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	a, err := db.QueryCell(1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.QueryCell(1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "file-backed save/reopen", a, b)
}
