package storage_test

// Backend differential coverage: the same Disk workload over the
// simulated in-memory media and the real file media must be
// byte-identical — page reads, serialized images, epoch deltas, clones —
// with the only divergence being MeasuredTime (zero on simulated media,
// positive on real I/O).

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/filestore"
)

// diskPair builds an in-memory disk and a file-backed disk with the same
// geometry.
func diskPair(t *testing.T, pageSize int) (*storage.Disk, *storage.Disk) {
	t.Helper()
	mem := storage.NewDisk(pageSize, storage.DefaultCostModel())
	fs, err := filestore.Create(filepath.Join(t.TempDir(), "pages.dat"), pageSize, filestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewDiskOn(fs, storage.DefaultCostModel())
	t.Cleanup(func() { _ = fd.Close() })
	return mem, fd
}

// fill writes the same page workload to both disks.
func fill(t *testing.T, disks ...*storage.Disk) {
	t.Helper()
	for _, d := range disks {
		base := d.AllocPages(64)
		for i := 0; i < 64; i += 2 {
			buf := bytes.Repeat([]byte{byte(i + 1)}, d.PageSize())
			if err := d.WritePage(base+storage.PageID(i), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBackendsReadIdentical(t *testing.T) {
	mem, fd := diskPair(t, 128)
	fill(t, mem, fd)
	for i := storage.PageID(0); i < 64; i++ {
		a, err := mem.ReadPage(i, storage.ClassLight)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fd.ReadPage(i, storage.ClassLight)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs across backends", i)
		}
	}
	a, err := mem.ReadBytes(3, 20*128, storage.ClassLight)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fd.ReadBytes(3, 20*128, storage.ClassLight)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("extent read differs across backends")
	}
	// Simulated accounting is identical; only MeasuredTime diverges.
	ms, fsx := mem.Stats(), fd.Stats()
	if ms.MeasuredTime != 0 {
		t.Fatalf("simulated backend charged MeasuredTime %v", ms.MeasuredTime)
	}
	if fsx.MeasuredTime <= 0 {
		t.Fatal("file backend charged no MeasuredTime")
	}
	ms.MeasuredTime, fsx.MeasuredTime = 0, 0
	if ms != fsx {
		t.Fatalf("simulated accounting diverged:\nmem  %+v\nfile %+v", ms, fsx)
	}
	if mem.Timed() || !fd.Timed() {
		t.Fatal("Timed misreported")
	}
}

func TestBackendsImageIdentical(t *testing.T) {
	mem, fd := diskPair(t, 128)
	fill(t, mem, fd)
	var a, b bytes.Buffer
	if _, err := mem.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialized images differ across backends")
	}
	// The delta writer must agree too.
	a.Reset()
	b.Reset()
	if _, err := mem.WriteDeltaTo(&a, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteDeltaTo(&b, 32); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialized deltas differ across backends")
	}
}

func TestImageRoundTripIntoFileBackend(t *testing.T) {
	mem, _ := diskPair(t, 128)
	fill(t, mem)
	var img bytes.Buffer
	if _, err := mem.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fd, err := storage.ReadImageInto(bytes.NewReader(img.Bytes()), storage.DefaultCostModel(),
		func(pageSize int, pages int64) (storage.Backend, error) {
			return filestore.Create(filepath.Join(dir, "pages.dat"), pageSize, filestore.Options{})
		})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if fd.NumPages() != mem.NumPages() {
		t.Fatalf("allocation %d, want %d", fd.NumPages(), mem.NumPages())
	}
	var img2 bytes.Buffer
	if _, err := fd.WriteTo(&img2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), img2.Bytes()) {
		t.Fatal("image round trip through file backend not byte-identical")
	}
}

// TestCloneFileBacked holds Backend.Clone to one contract on both media:
// the clone starts with the source's page content, and writes on either
// side afterwards stay invisible to the other.
func TestCloneFileBacked(t *testing.T) {
	fs, err := filestore.Create(filepath.Join(t.TempDir(), "pages.dat"), 128, filestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fs.Close() })
	first := func(b storage.Backend, id storage.PageID) byte {
		buf := make([]byte, b.PageSize())
		if err := b.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		return buf[0]
	}
	for _, src := range []storage.Backend{storage.NewMemBackend(128), fs} {
		if err := src.Allocate(4); err != nil {
			t.Fatal(err)
		}
		for id := storage.PageID(0); id < 3; id++ {
			if err := src.WritePage(id, bytes.Repeat([]byte{byte(id + 1)}, 128)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := src.Clone()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.StoredCount() != 3 || first(c, 2) != 3 {
			t.Fatalf("%T clone: %d stored pages, page 2 starts %#x", src, c.StoredCount(), first(c, 2))
		}
		if err := src.WritePage(0, bytes.Repeat([]byte{0xEE}, 128)); err != nil {
			t.Fatal(err)
		}
		if err := c.WritePage(1, bytes.Repeat([]byte{0xDD}, 128)); err != nil {
			t.Fatal(err)
		}
		if first(c, 0) != 1 || first(src, 1) != 2 {
			t.Fatalf("%T: a write leaked across the clone boundary", src)
		}
	}
}

// TestPrefetcherQuiesceDrainsRealIO is the race test for the Quiesce
// fix: on a timed backend warms run on background workers, and Quiesce
// must fence their real-I/O completions, not just the resolver. Run
// under -race this also exercises the warm fan-out for data races.
func TestPrefetcherQuiesceDrainsRealIO(t *testing.T) {
	_, fd := diskPair(t, 128)
	fill(t, fd)
	fd.SetCacheSize(256)
	p := storage.NewPrefetcher(fd, 64)
	defer p.Close()

	const jobs = 24
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < jobs/3; j++ {
				pages := make([]storage.PageID, 8)
				for i := range pages {
					pages[i] = storage.PageID((g*8 + j + i) % 64)
				}
				p.Enqueue(func(r storage.Reader) ([]storage.PageID, error) {
					return pages, nil
				})
			}
		}(g)
	}
	wg.Wait()
	p.Quiesce()
	// Every accepted job's warms must have completed by now: pending is
	// zero and the warm counter is final. Dropped jobs never warmed.
	warmedAt := p.Warmed()
	if warmedAt == 0 && p.Dropped() < jobs {
		t.Fatal("no pages warmed despite accepted jobs")
	}
	p.Quiesce()
	if got := p.Warmed(); got != warmedAt {
		t.Fatalf("warms completed after Quiesce returned: %d -> %d", warmedAt, got)
	}
}
