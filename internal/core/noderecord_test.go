package core

import "testing"

// internalNode returns an internal node of the fixture with at least one
// internal LoD, so its record carries per-entry LoD refs.
func internalNode(tb testing.TB, tr *Tree) *Node {
	tb.Helper()
	for _, n := range tr.Nodes {
		if !n.Leaf && len(n.Entries) > 1 && len(n.InternalExtents) > 0 {
			return n
		}
	}
	tb.Fatal("fixture has no internal node with LoD refs")
	return nil
}

// TestNodeRecordAllocs guards the flat node decode: a node costs the Node,
// its Entries, and one shared array each for LoD refs and polygon counts,
// whatever its fan-out. Read through a warm buffer pool, the record bytes
// are the pool frame itself, so ReadNodeRecord adds nothing on top.
func TestNodeRecordAllocs(t *testing.T) {
	tr, _ := fixture(t)
	n := internalNode(t, tr)
	buf := n.EncodeRecord()
	var err error
	if got := testing.AllocsPerRun(100, func() { _, err = DecodeNodeRecord(buf) }); got != 4 {
		t.Fatalf("DecodeNodeRecord of a %d-entry internal node: %v allocs, want 4", len(n.Entries), got)
	}
	if err != nil {
		t.Fatal(err)
	}

	tr.Disk.SetCacheSize(64)
	defer tr.Disk.SetCacheSize(0)
	s := tr.Session()
	if _, err := s.ReadNodeRecord(n.ID); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _, err = s.ReadNodeRecord(n.ID) }); got != 4 {
		t.Fatalf("pooled ReadNodeRecord: %v allocs, want 4", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNodeRecordCapLimited: the shared LoD arrays are handed out as
// capacity-limited windows, so appending to one entry's refs can never
// overwrite its neighbor's.
func TestDecodeNodeRecordCapLimited(t *testing.T) {
	tr, _ := fixture(t)
	n := internalNode(t, tr)
	got, err := DecodeNodeRecord(n.EncodeRecord())
	if err != nil {
		t.Fatal(err)
	}
	e0, e1 := got.Entries[0], got.Entries[1]
	if cap(e0.LoDRefs) != len(e0.LoDRefs) || cap(e0.LoDPolys) != len(e0.LoDPolys) {
		t.Fatalf("entry refs len %d cap %d, polys len %d cap %d",
			len(e0.LoDRefs), cap(e0.LoDRefs), len(e0.LoDPolys), cap(e0.LoDPolys))
	}
	_ = append(e0.LoDRefs, Extent{Start: -7})
	_ = append(e0.LoDPolys, -7)
	if e1.LoDRefs[0] != n.Entries[1].LoDRefs[0] || e1.LoDPolys[0] != n.Entries[1].LoDPolys[0] {
		t.Fatal("append to one entry's LoD refs overwrote the next entry's")
	}
}

// BenchmarkReadNodeRecordPooled is the node-record layer of a warm query:
// a pool hit on the record's page plus the flat decode, cycling over
// every node of the fixture.
func BenchmarkReadNodeRecordPooled(b *testing.B) {
	tr, _ := fixture(b)
	tr.Disk.SetCacheSize(65536)
	defer tr.Disk.SetCacheSize(0)
	s := tr.Session()
	for id := range tr.Nodes {
		if _, err := s.ReadNodeRecord(NodeID(id)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadNodeRecord(NodeID(i % len(tr.Nodes))); err != nil {
			b.Fatal(err)
		}
	}
}
