package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cells"
	"repro/internal/geom"
	"repro/internal/storage"
)

// TestQueryCorruptNodePage verifies that a bad sector under a node record
// surfaces as an error (never a panic or a silent wrong answer).
func TestQueryCorruptNodePage(t *testing.T) {
	tr, _ := withMemStore(t)
	page := tr.NodePage(0)
	tr.Disk.CorruptPage(page)
	defer tr.Disk.HealPage(page)
	if _, err := tr.Query(0, 0.001); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestQueryCorruptChildPage(t *testing.T) {
	tr, _ := withMemStore(t)
	// Corrupt a non-root node: only queries whose traversal reaches it
	// fail; the root read still succeeds.
	child := tr.Root().Entries[0].ChildID
	page := tr.NodePage(child)
	tr.Disk.CorruptPage(page)
	defer tr.Disk.HealPage(page)
	failed := false
	for c := 0; c < tr.Grid.NumCells(); c++ {
		if _, err := tr.Query(0, 0); err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			failed = true
			break
		}
	}
	if !failed {
		t.Skip("corrupted subtree never visited (fully hidden)")
	}
}

func TestFetchPayloadsCorruptExtent(t *testing.T) {
	tr, _ := withMemStore(t)
	res, err := tr.Query(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) == 0 {
		t.Skip("empty cell")
	}
	page := res.Items[0].Extent.Start
	tr.Disk.CorruptPage(page)
	defer tr.Disk.HealPage(page)
	if _, err := tr.FetchPayloads(res, nil); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := tr.LoadMesh(res.Items[0]); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("LoadMesh err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeNodeRecordNeverPanics feeds structured garbage to the record
// decoder: every outcome must be a clean error or a valid node, never a
// panic or runaway allocation.
func TestDecodeNodeRecordNeverPanics(t *testing.T) {
	tr, _ := fixture(t)
	good := tr.Root().EncodeRecord()
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		buf := append([]byte(nil), good...)
		// Random truncation and byte flips.
		if r.Intn(2) == 0 && len(buf) > 1 {
			buf = buf[:r.Intn(len(buf))]
		}
		for j := 0; j < 1+r.Intn(8); j++ {
			if len(buf) == 0 {
				break
			}
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		n, err := DecodeNodeRecord(buf)
		if err == nil && n == nil {
			t.Fatal("nil node with nil error")
		}
	}
	// Pure random noise.
	for i := 0; i < 500; i++ {
		buf := make([]byte, r.Intn(512))
		r.Read(buf)
		_, _ = DecodeNodeRecord(buf)
	}
}

// TestMemStoreShortVPage: a V-page shorter than the node's entry count is
// a hard error, not an index panic, in every traversal mode.
func TestMemStoreShortVPage(t *testing.T) {
	tr, vis := fixture(t)
	saved := tr.VStoreScheme()
	tr.SetVStore(&shortVStore{vis: vis})
	defer tr.SetVStore(saved)
	f := geom.NewFrustum(tr.Grid.Center(0), geom.V(1, 0, 0), geom.V(0, 0, 1), math.Pi/3, 4.0/3, 0.5, 1000)
	for _, m := range []struct {
		name  string
		query func(s *Tree) (*QueryResult, error)
	}{
		{"serial", func(s *Tree) (*QueryResult, error) { return s.Query(0, 0.001) }},
		{"parallel", func(s *Tree) (*QueryResult, error) {
			s.SetParallel(4)
			return s.Query(0, 0.001)
		}},
		{"coherent", func(s *Tree) (*QueryResult, error) { return s.QueryCoherent(0, 0.001) }},
		{"prioritized", func(s *Tree) (*QueryResult, error) { return s.QueryPrioritized(0, 0.001, f) }},
	} {
		t.Run(m.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("short V-page panicked: %v", r)
				}
			}()
			if _, err := m.query(tr.Session()); err == nil {
				t.Fatal("short V-page accepted")
			}
		})
	}
}

// shortVStore truncates every V-page to a single entry, simulating a
// layout/decoding mismatch between node records and visibility data.
type shortVStore struct {
	vis *VisData
	cur cells.CellID
}

func (s *shortVStore) Name() string     { return "short" }
func (s *shortVStore) SizeBytes() int64 { return 0 }
func (s *shortVStore) SetCell(c cells.CellID) error {
	s.cur = c
	return nil
}
func (s *shortVStore) NodeVD(id NodeID) ([]VD, bool, error) {
	vd := s.vis.PerCell[s.cur][id]
	if vd == nil {
		return nil, false, nil
	}
	return vd[:1], true, nil
}
