package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cells"
)

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
// are the pool frame itself and they match the record table, so
// ReadNodeRecord allocates nothing at all.
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
	if got := testing.AllocsPerRun(100, func() { _, err = s.ReadNodeRecord(n.ID) }); got != 0 {
		t.Fatalf("pooled ReadNodeRecord: %v allocs, want 0", got)
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
// a pool hit on the record's page plus the record-table lookup, cycling
// over every node of the fixture.
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

// TestNodeRecordTamper: the record table never hides what the media
// holds. After a warm query, a node's record page is overwritten (a) with
// garbage — ReadNodeRecord fails with ErrBadRecord and a fault-tolerant
// query degrades exactly as one that decodes every read afresh — and (b)
// with a different valid record — ReadNodeRecord returns that record's
// decode, not the kept node. Rewriting the original bytes brings the
// kept node back.
func TestNodeRecordTamper(t *testing.T) {
	tr, _ := withMemStore(t)
	cleanFaults(t, tr)
	tr.Disk.SetCacheSize(4096)
	t.Cleanup(func() { tr.Disk.SetCacheSize(0) })
	child := tr.Root().Entries[0].ChildID
	page := tr.NodePage(child)
	orig := tr.Nodes[child].EncodeRecord()
	t.Cleanup(func() {
		if err := tr.Disk.WriteBytes(page, orig); err != nil {
			t.Error(err)
		}
	})

	tr.FaultTolerant = true
	s := tr.Session()
	for c := 0; c < tr.Grid.NumCells(); c++ {
		if _, err := s.Query(cells.CellID(c), 0); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := s.ReadNodeRecord(child)
	if err != nil {
		t.Fatal(err)
	}
	if kept != tr.recs[child].node {
		t.Fatal("warm read of an untouched record did not return the kept node")
	}

	// (a) Garbage: ErrBadRecord, and the same degraded answer as a
	// session without the record table.
	if err := tr.Disk.WriteBytes(page, bytes.Repeat([]byte{0xa5}, len(orig))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadNodeRecord(child); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("garbage record: err = %v, want ErrBadRecord", err)
	}
	// Park the record as a degrading query would, which drops its pool
	// frame: each query below then reads the garbage from the media.
	tr.quarantineNodeRecord(child)
	// A table of empty rows never matches, so this session decodes every
	// record it reads, as before the table existed.
	decodeAll := tr.Session()
	decodeAll.recs = make([]nodeRec, len(tr.Nodes))
	degraded := 0
	for c := 0; c < tr.Grid.NumCells(); c++ {
		cell := cells.CellID(c)
		tr.Disk.ClearQuarantine()
		got, err := s.Query(cell, 0)
		if err != nil {
			t.Fatalf("cell %d: %v", c, err)
		}
		tr.Disk.ClearQuarantine()
		want, err := decodeAll.Query(cell, 0)
		if err != nil {
			t.Fatalf("cell %d without the table: %v", c, err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.Degradations, want.Degradations) ||
			got.Stats.NodesVisited != want.Stats.NodesVisited || got.Stats.LightIO != want.Stats.LightIO {
			t.Fatalf("cell %d: degraded answer differs from the decode-every-read answer:\n%+v %+v\nwant %+v %+v",
				c, got.Stats, got.Degradations, want.Stats, want.Degradations)
		}
		for _, d := range got.Degradations {
			if d.Node != child || d.Cause != CauseNodeRecord {
				t.Fatalf("cell %d: unexpected degradation %+v", c, d)
			}
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no query reached the tampered record")
	}
	tr.Disk.ClearQuarantine()

	// (b) A different valid record: its own decode, not the kept node.
	mod, err := DecodeNodeRecord(orig)
	if err != nil {
		t.Fatal(err)
	}
	mod.Entries[0].DescPolys++
	modRaw := mod.EncodeRecord()
	if err := tr.Disk.WriteBytes(page, modRaw); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadNodeRecord(child)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeNodeRecord(modRaw)
	if err != nil {
		t.Fatal(err)
	}
	if got == kept || !reflect.DeepEqual(got, want) {
		t.Fatal("tampered valid record: ReadNodeRecord did not return the new bytes' decode")
	}
	if kept.Entries[0].DescPolys != tr.Nodes[child].Entries[0].DescPolys {
		t.Fatal("the kept node changed")
	}

	if err := tr.Disk.WriteBytes(page, orig); err != nil {
		t.Fatal(err)
	}
	if n, err := s.ReadNodeRecord(child); err != nil || n != kept {
		t.Fatalf("restored record: node %p err %v, want the kept node", n, err)
	}
}
