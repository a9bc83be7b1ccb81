package hdov

import (
	"bytes"
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/storage"
)

// TestPooledFramesStayPristine pins the read path's buffer contract:
// ReadPage and single-page pooled ReadBytes hand out the buffer pool's
// frames themselves, so no reader may ever write into a returned slice.
// Every (cell, η) is queried on each scheme, raw and codec, through plain
// and coherent sessions and the naive baseline, with every result
// fetched and one mesh per result decoded; afterwards each resident pool
// frame must still equal the page's unmetered PeekPage bytes.
func TestPooledFramesStayPristine(t *testing.T) {
	for _, codec := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Scene.Blocks = 2
		cfg.GridCells = 4
		cfg.DoVRays = 128
		cfg.Scene.NominalBytes = 4 << 20
		cfg.Codec = codec
		db, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db.SetCacheSize(65536)
		for _, scheme := range []Scheme{SchemeIndexedVertical, SchemeVertical, SchemeHorizontal} {
			db.SetScheme(scheme)
			plain, coherent := db.NewSession(), db.NewSession()
			for cell := 0; cell < db.NumCells(); cell++ {
				for _, eta := range []float64{0, 0.0005, 0.001, 0.004} {
					for _, s := range []*Session{plain, coherent} {
						query := s.QueryCell
						if s == coherent {
							query = s.QueryCellCoherent
						}
						r, err := query(cell, eta)
						if err != nil {
							t.Fatal(err)
						}
						if err := s.Fetch(r); err != nil {
							t.Fatal(err)
						}
						if len(r.Items) > 0 {
							if _, err := db.LoadMesh(r.Items[0]); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if _, err := db.QueryNaive(db.CellViewpoint(cell)); err != nil {
					t.Fatal(err)
				}
			}
		}

		// ReadPage of a resident page returns its frame: compare every
		// one against the media.
		hits := 0
		for id := storage.PageID(0); id < storage.PageID(db.disk.NumPages()); id++ {
			before := db.disk.Stats()
			frame, err := db.disk.ReadPage(id, storage.ClassLight)
			if err != nil {
				t.Fatal(err)
			}
			if db.disk.Stats().Sub(before).PoolLightHits != 1 {
				continue
			}
			hits++
			want, err := db.disk.PeekPage(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, want) {
				t.Fatalf("codec=%v: pool frame of page %d was written by a reader", codec, id)
			}
		}
		if hits == 0 {
			t.Fatalf("codec=%v: no resident pool frames to check", codec)
		}

		// A single-page pooled ReadBytes is the frame itself, capped at
		// the requested length so an append reallocates instead of
		// writing into it.
		tr, _ := db.snapshot()
		c := db.disk.NewClient()
		if tr.NodeStride() != 1 {
			t.Fatalf("codec=%v: node stride %d, want single-page records", codec, tr.NodeStride())
		}
		for id := 0; id < tr.NumNodes(); id++ {
			size := tr.Nodes[id].RecordSize()
			b, err := c.ReadBytes(tr.NodePage(core.NodeID(id)), size, storage.ClassLight)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != size || cap(b) != size {
				t.Fatalf("codec=%v: node %d record len %d cap %d, want %d", codec, id, len(b), cap(b), size)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmQueryAllocs gates the allocations of a warm pooled query, the
// path the cells-pooled benchmark measures: QueryCell plus Fetch on the
// default database, every cell at the default η, after one sweep has
// filled the buffer pool. Every read is then a pool hit and node records
// come from the record table, so the count is deterministic and pinned
// exactly; a change that moves it updates the literal. The one part that
// is not deterministic is the cell flip, which decodes the cell's index
// segment into a Go map: what a map costs depends on the toolchain's map
// implementation, and before Go 1.24 on the hash seed. So each cell is
// flipped to before its query is measured.
func TestWarmQueryAllocs(t *testing.T) {
	cfg := DefaultConfig()
	db, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetCacheSize(65536)
	s := db.NewSession()
	query := func(cell int) {
		r, err := s.QueryCell(cell, cfg.Eta)
		if err == nil {
			err = s.Fetch(r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for cell := 0; cell < db.NumCells(); cell++ {
		query(cell)
	}
	const want = 2466 // allocations over all cells: 17.1 per query
	got := 0.0
	for cell := 0; cell < db.NumCells(); cell++ {
		if err := s.tree.VStoreScheme().SetCell(cells.CellID(cell)); err != nil {
			t.Fatal(err)
		}
		got += testing.AllocsPerRun(1, func() { query(cell) })
	}
	if got != want {
		t.Fatalf("warm queries of %d cells: %v allocs (%.1f per query), want %d",
			db.NumCells(), got, got/float64(db.NumCells()), want)
	}
}
