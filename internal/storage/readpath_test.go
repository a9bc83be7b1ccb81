package storage_test

// Allocation guards and layer benchmarks for the steady-state read path:
// a pool hit hands out the frame itself, and an out-of-cache extent
// streams through a recycled transfer buffer, so neither allocates.

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/filestore"
)

// extentPages is the payload extent size the guards and benchmarks read:
// several transfer chunks, like a nominal-size heavy LoD payload.
const extentPages = 200

// fileDisk returns a disk over a real page file holding one written
// extentPages-page extent, and the extent's first page.
func fileDisk(tb testing.TB) (*storage.Disk, storage.PageID) {
	tb.Helper()
	fs, err := filestore.Create(filepath.Join(tb.TempDir(), "pages.dat"), storage.DefaultPageSize, filestore.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	d := storage.NewDiskOn(fs, storage.DefaultCostModel())
	tb.Cleanup(func() { _ = d.Close() })
	return d, writeExtent(tb, d)
}

// writeExtent allocates and fills an extentPages-page extent.
func writeExtent(tb testing.TB, d *storage.Disk) storage.PageID {
	tb.Helper()
	start := d.AllocPages(extentPages)
	page := make([]byte, d.PageSize())
	for i := 0; i < extentPages; i++ {
		page[0] = byte(i)
		if err := d.WritePage(start+storage.PageID(i), page); err != nil {
			tb.Fatal(err)
		}
	}
	return start
}

func TestPooledReadBytesHitAllocFree(t *testing.T) {
	d := storage.NewDisk(0, storage.DefaultCostModel())
	start := writeExtent(t, d)
	d.SetCacheSize(16)
	c := d.NewClient()
	if _, err := c.ReadBytes(start, 600, storage.ClassLight); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = c.ReadBytes(start, 600, storage.ClassLight)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("pooled single-page ReadBytes hit: %v allocs, want 0", allocs)
	}
}

func TestReadExtentFileAllocFree(t *testing.T) {
	d, start := fileDisk(t)
	c := d.NewClient()
	if err := c.ReadExtent(start, extentPages, storage.ClassHeavy); err != nil {
		t.Fatal(err)
	}
	before := d.MediaStats()
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		err = c.ReadExtent(start, extentPages, storage.ClassHeavy)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm %d-page ReadExtent on the file backend: %v allocs, want 0", extentPages, allocs)
	}
	// The guard must not pass by skipping the transfer: every run still
	// moves the whole extent across from the media.
	if got := d.MediaStats().PagesRead - before.PagesRead; got != 101*extentPages {
		t.Fatalf("media read %d pages over 101 runs, want %d", got, 101*extentPages)
	}
}

// TestReadPathConcurrent shares the recycled transfer chunks and the
// pool frames between goroutines: payload extents on the file backend and
// pooled single-page reads run side by side, every pooled result must be
// the page's content, and every extent must be charged exactly once.
func TestReadPathConcurrent(t *testing.T) {
	d, start := fileDisk(t)
	d.SetCacheSize(16)
	want, err := d.PeekPage(start + 3)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 25
	before := d.Stats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.NewClient()
			for i := 0; i < rounds; i++ {
				if err := c.ReadExtent(start, extentPages, storage.ClassHeavy); err != nil {
					t.Error(err)
					return
				}
				b, err := c.ReadBytes(start+3, 100, storage.ClassLight)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b, want[:100]) {
					t.Error("pooled read returned wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := d.Stats().Sub(before).HeavyReads; got != workers*rounds*extentPages {
		t.Fatalf("heavy pages charged %d, want %d", got, workers*rounds*extentPages)
	}
}

func benchmarkReadExtent(b *testing.B, d *storage.Disk, start storage.PageID) {
	c := d.NewClient()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadExtent(start, extentPages, storage.ClassHeavy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadExtentMem is the simulated backend's payload charge: the
// check pass and cost accounting, with no bytes moved.
func BenchmarkReadExtentMem(b *testing.B) {
	d := storage.NewDisk(0, storage.DefaultCostModel())
	benchmarkReadExtent(b, d, writeExtent(b, d))
}

// BenchmarkReadExtentFile adds the real transfer from the page file's
// mmap window through the recycled chunk buffer.
func BenchmarkReadExtentFile(b *testing.B) {
	d, start := fileDisk(b)
	benchmarkReadExtent(b, d, start)
}
