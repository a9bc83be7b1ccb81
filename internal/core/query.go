package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cells"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/storage"
)

// ResultItem is one element of a visibility-query answer set: either an
// object LoD (line 5 of Figure 3, equation 6) or an internal LoD of a node
// whose branch the traversal terminated (line 8, equation 5).
type ResultItem struct {
	// ObjectID >= 0 for object items; -1 for internal-LoD items.
	ObjectID int64
	// NodeID >= 0 for internal-LoD items; NilNode for object items.
	NodeID NodeID
	// DoV is the entry's degree of visibility.
	DoV float64
	// Detail is the continuous detail coefficient k of equations 5/6.
	Detail float64
	// Level is the discrete LoD level selected for retrieval.
	Level int
	// Polygons is the interpolated polygon count (the render-cost model
	// input).
	Polygons float64
	// Extent locates the payload of the selected level on disk.
	Extent Extent
}

// IsInternal reports whether the item is an internal LoD.
func (it ResultItem) IsInternal() bool { return it.NodeID != NilNode }

// QueryStats summarizes the cost of one visibility query.
type QueryStats struct {
	NodesVisited  int // node records read (light)
	BranchesCut   int // entries pruned with DoV == 0 (line 3)
	EarlyStops    int // branches answered by an internal LoD (line 8)
	LightIO       int64
	HeavyIO       int64
	Retries       int64 // transient read faults absorbed by the disk
	SimTime       time.Duration
	TotalPolygons float64
	TotalBytes    int64 // nominal payload bytes of the answer set
}

// QueryResult is the answer set of a visibility query.
type QueryResult struct {
	Cell  cells.CellID
	Eta   float64
	Items []ResultItem
	Stats QueryStats
	// Degradations lists the media faults absorbed while answering (empty
	// unless Tree.FaultTolerant and faults fired; see degrade.go).
	Degradations []Degradation

	// substituted dedups internal-LoD stand-ins: when several siblings
	// fail, their shared ancestor's LoD appears in Items once.
	substituted map[NodeID]bool
}

// ErrNoVStore is returned by Query before SetVStore.
var ErrNoVStore = errors.New("core: no storage scheme attached (call SetVStore)")

// QueryContext runs the threshold-based traversal of Figure 3 for the
// given cell and DoV threshold η. It charges light I/O for node records
// and V-pages (via the attached VStore); payload retrieval is separate
// (FetchPayloadsContext) so experiments can account light-weight and
// total I/O independently, as Figures 8(a) and 8(b) do.
//
// The context bounds the traversal: cancellation and deadline expiry are
// observed within one node expansion (and before any further disk read),
// aborting with an error wrapping ctx.Err(). With an installed ShedPolicy
// the query answers at relaxed fidelity, recording CauseShed
// Degradations. With a background context and no policy the behavior —
// and the answer — is byte-identical to Query's.
func (t *Tree) QueryContext(ctx context.Context, cell cells.CellID, eta float64) (*QueryResult, error) {
	return t.query(ctx, cell, eta, nil)
}

// QueryPrioritized is the DESIGN.md D5 extension (the paper's §6 future
// work): the same answer set as Query, but each node's entries are
// visited in frustum order (see visitOrder), so the renderer receives
// in-view geometry earliest. Only the emission order (and with it the
// simulated seek time) differs: the answer set, the traversal
// counters and the shed semantics are Query's. It has no Context form.
func (t *Tree) QueryPrioritized(cell cells.CellID, eta float64, f geom.Frustum) (*QueryResult, error) {
	return t.query(bgContext, cell, eta, &f)
}

// query is the from-root traversal behind QueryContext and
// QueryPrioritized; front, when non-nil, is the prioritized visit order's
// view frustum.
func (t *Tree) query(ctx context.Context, cell cells.CellID, eta float64, front *geom.Frustum) (*QueryResult, error) {
	if t.vstore == nil {
		return nil, ErrNoVStore
	}
	if eta < 0 {
		eta = 0
	}
	tc, eff, done := t.begin(ctx, eta)
	defer done()
	tc.front = front
	before := t.statsNow()
	res := t.getResult(cell, eta)
	if err := t.vstore.SetCell(cell); err != nil {
		if !t.rootFallback(res, err, CauseCellFlip) {
			return nil, fmt.Errorf("core: cell flip: %w", err)
		}
	} else if err := t.searchNode(tc, 0, eff, res, nil); err != nil {
		// Only the root's own record/V-page failures reach here; deeper
		// faults are absorbed at their recursion sites.
		if !t.rootFallback(res, err, CauseNodeRecord) {
			return nil, err
		}
	}
	tc.shedMark(res)
	t.finish(res, before)
	return res, nil
}

// finish fills in the totals of a completed traversal: the session's I/O
// since before, and the answer set's polygons and payload bytes.
func (t *Tree) finish(res *QueryResult, before storage.Stats) {
	d := t.statsNow().Sub(before)
	res.Stats.LightIO = d.LightReads
	res.Stats.HeavyIO = d.HeavyReads
	res.Stats.Retries = d.Retries
	res.Stats.SimTime = d.SimTime
	for _, it := range res.Items {
		res.Stats.TotalPolygons += it.Polygons
		res.Stats.TotalBytes += it.Extent.NominalBytes
	}
}

// decision is the outcome of Figure 3 for one entry of an expanded node.
type decision uint8

const (
	decDescend   decision = iota // line 10: recurse into the child
	decCut                       // line 3: hidden branch, pruned
	decObject                    // lines 4-5: the visible object's LoD
	decEarlyStop                 // line 8: the child's internal LoD answers the branch
	decShed                      // the shed policy's depth limit: the child's internal LoD
)

// decide is the per-entry policy of Figure 3, the one place it is
// written down. For entry e (of a leaf when leaf is set) with view data v
// at threshold eta it returns the decision, the answer item of every
// decision but decCut and decDescend, and the detail k of equation 5 or 6,
// which a descent keeps for fault substitution. truncate is the shed
// policy's verdict for the node's depth.
//
// hdov:hot-path
func (t *Tree) decide(e *NodeEntry, v VD, leaf bool, eta float64, truncate bool) (decision, ResultItem, float64) {
	// Line 3: completely hidden branch.
	if v.DoV <= 0 {
		return decCut, ResultItem{}, 0
	}
	// Lines 4-5: visible object, at the equation-6 detail.
	if leaf {
		k := LeafDetail(v.DoV)
		lvl := chooseLevel(k, len(t.ObjExtents[e.ObjectID]))
		return decObject, ResultItem{
			ObjectID: e.ObjectID,
			NodeID:   NilNode,
			DoV:      v.DoV,
			Detail:   k,
			Level:    lvl,
			Polygons: t.Scene.Object(e.ObjectID).LoDs.PolygonsFor(k),
			Extent:   t.ObjExtents[e.ObjectID][lvl],
		}, k
	}
	// Line 7: the equation-5 detail k is computed first because the guard
	// compares costs at the internal-LoD level that would actually be
	// retrieved (see TerminateHeuristic).
	k := InternalDetail(v.DoV, eta)
	internalPolys := interpolatePolys(e.LoDPolys, k)
	avgObjPolys := 0.0
	if e.DescCount > 0 {
		avgObjPolys = float64(e.DescPolys) / float64(e.DescCount)
	}
	d := decDescend
	switch {
	case len(e.LoDRefs) == 0:
		// No internal LoD to answer with (possible only in hand-built
		// trees): always recurse.
	case v.DoV <= eta && (t.DisableTerminationHeuristic ||
		TerminateHeuristic(internalPolys, avgObjPolys, t.RhoMeasured, v.NVO)):
		// Line 8: the child's internal-LoD references are co-located in
		// the entry, so no child record is read.
		d = decEarlyStop
	case truncate:
		// At the shed depth limit the branch answers with the child's
		// internal LoD even though η says descend.
		d = decShed
	}
	if d == decDescend {
		return d, ResultItem{}, k
	}
	lvl := chooseLevel(k, len(e.LoDRefs))
	return d, ResultItem{
		ObjectID: -1,
		NodeID:   e.ChildID,
		DoV:      v.DoV,
		Detail:   k,
		Level:    lvl,
		Polygons: internalPolys,
		Extent:   e.LoDRefs[lvl],
	}, k
}

// record adds a decision other than decDescend to the answer: its item,
// its counter, and for decShed the CauseShed Degradation that keeps
// shedding visible (never silent).
func (res *QueryResult) record(d decision, it ResultItem) {
	switch d {
	case decCut:
		res.Stats.BranchesCut++
		return
	case decEarlyStop:
		res.Stats.EarlyStops++
	case decShed:
		res.Stats.EarlyStops++
		res.Degradations = append(res.Degradations, Degradation{
			Cell: res.Cell, Node: it.NodeID, Object: -1,
			Cause: CauseShed, Page: storage.NilPage,
			SubstituteNode: it.NodeID, SubstituteLevel: it.Level,
		})
	}
	res.Items = append(res.Items, it)
}

// searchNode is Algorithm Search(Node) of Figure 3. anc is the ancestor
// ladder of internal-LoD sources used by fault-tolerant substitution (nil
// at the root; see degrade.go). tc carries the cancellation checkpoint
// (polled here, once per node expansion), the shed policy and the visit
// order.
//
// hdov:hot-path
func (t *Tree) searchNode(tc travCtx, id NodeID, eta float64, res *QueryResult, anc []lodSource) error {
	if err := tc.err(); err != nil {
		return err
	}
	node, err := t.ReadNodeRecord(id)
	if err != nil {
		return err
	}
	res.Stats.NodesVisited++
	if len(anc) == 0 {
		// The root allocates the query's one ancestor ladder, with a rung
		// for every level: serial descents append into it in place, and a
		// sibling reuses a rung only after the previous child returned.
		anc = make([]lodSource, 1, node.SubtreeHeight+1)
		anc[0] = lodSource{node: id, refs: node.InternalExtents, polys: node.InternalPolys}
	}
	vd, ok, err := t.vstore.NodeVD(id)
	if err != nil {
		return err
	}
	if !ok {
		return nil // whole node invisible in this cell
	}
	if len(vd) < len(node.Entries) {
		return fmt.Errorf("core: node %d has %d entries but V-page has %d", id, len(node.Entries), len(vd))
	}
	order := tc.visitOrder(node)
	if t.parSem != nil && !node.Leaf {
		return t.searchEntriesParallel(tc, node, vd, order, eta, res, anc)
	}
	truncate := tc.truncate(len(anc))
	for i := range node.Entries {
		ei := entryAt(order, i)
		e := &node.Entries[ei]
		d, it, k := t.decide(e, vd[ei], node.Leaf, eta, truncate)
		if d != decDescend {
			res.record(d, it)
			continue
		}
		// Line 10: recurse. The child's internal-LoD references (already
		// in hand from this entry) extend the substitution ladder.
		childAnc := append(anc, lodSource{node: e.ChildID, refs: e.LoDRefs, polys: e.LoDPolys})
		if err := t.searchNode(tc, e.ChildID, eta, res, childAnc); err != nil {
			cause, page, ok := t.absorbFault(err, e.ChildID)
			if !ok {
				return err
			}
			t.substitute(res, childAnc, e.ChildID, vd[ei].DoV, k, cause, page)
		}
	}
	return nil
}

// visitOrder is the order in which node's entries are visited: nil,
// meaning index order, unless the query is prioritized. Then entries
// intersecting the view frustum come first, then those whose bulk lies
// ahead of the viewer (an intersecting box centered behind the eye mostly
// holds behind-geometry), then nearest first.
func (tc travCtx) visitOrder(node *Node) []int {
	f := tc.front
	if f == nil {
		return nil
	}
	type key struct {
		inView, ahead bool
		dist          float64
	}
	keys := make([]key, len(node.Entries))
	order := make([]int, len(node.Entries))
	for i, e := range node.Entries {
		order[i] = i
		keys[i] = key{
			inView: f.IntersectsAABB(e.MBR),
			ahead:  e.MBR.Center().Sub(f.Apex).Dot(f.Look) >= 0,
			dist:   e.MBR.Dist2ToPoint(f.Apex),
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka.inView != kb.inView {
			return ka.inView
		}
		if ka.ahead != kb.ahead {
			return ka.ahead
		}
		return ka.dist < kb.dist
	})
	return order
}

// entryAt is the index of the entry visited i-th under order.
func entryAt(order []int, i int) int {
	if order == nil {
		return i
	}
	return order[i]
}

// entryPlan is one entry of a parallel fan-out: its decision and item,
// and for a descent the child subtree's sub-result, merged back in visit
// order.
type entryPlan struct {
	dec      decision
	item     ResultItem
	child    NodeID
	dov, k   float64
	childAnc []lodSource
	sub      *QueryResult
	err      error
}

// searchEntriesParallel is the bounded-fan-out form of the entry loop of
// searchNode for internal nodes. A planning pass makes the per-entry
// decisions (which need only the already-read node record and V-page),
// then child descents run on up to Parallel workers, then every decision
// merges serially in visit order — so the answer set, degradation events,
// and traversal stats are identical to the serial traversal's.
//
// hdov:hot-path
func (t *Tree) searchEntriesParallel(tc travCtx, node *Node, vd []VD, order []int, eta float64, res *QueryResult, anc []lodSource) error {
	plans := make([]entryPlan, len(node.Entries))
	truncate := tc.truncate(len(anc))
	for i := range plans {
		ei := entryAt(order, i)
		e := &node.Entries[ei]
		p := &plans[i]
		p.dec, p.item, p.k = t.decide(e, vd[ei], false, eta, truncate)
		if p.dec != decDescend {
			continue
		}
		p.child, p.dov = e.ChildID, vd[ei].DoV
		// The three-index slice caps capacity so concurrent appends cannot
		// alias one backing array across sibling subtrees.
		p.childAnc = append(anc[:len(anc):len(anc)],
			lodSource{node: e.ChildID, refs: e.LoDRefs, polys: e.LoDPolys})
		p.sub = t.getResult(res.Cell, res.Eta)
	}
	// Fan out: claim a worker slot per descent, or descend inline on this
	// goroutine when all slots are busy (which also bounds recursion depth
	// of waiters — no goroutine ever blocks holding work).
	var wg sync.WaitGroup
	for i := range plans {
		p := &plans[i]
		if p.dec != decDescend {
			continue
		}
		select {
		case t.parSem <- struct{}{}:
			wg.Add(1)
			//lint:ignore hotalloc one closure per claimed worker slot, amortized by the page reads the descent performs
			go func(p *entryPlan) {
				defer wg.Done()
				defer func() { <-t.parSem }()
				p.err = t.searchNode(tc, p.child, eta, p.sub, p.childAnc)
			}(p)
		default:
			p.err = t.searchNode(tc, p.child, eta, p.sub, p.childAnc)
		}
	}
	wg.Wait()
	// Merge in visit order; fault absorption runs here, on one goroutine,
	// so quarantine marks, substitutions and shed records land in the same
	// order a serial traversal would produce.
	for i := range plans {
		p := &plans[i]
		if p.dec != decDescend {
			res.record(p.dec, p.item)
			continue
		}
		if p.err != nil {
			cause, page, ok := t.absorbFault(p.err, p.child)
			if !ok {
				return p.err
			}
			t.substitute(res, p.childAnc, p.child, p.dov, p.k, cause, page)
			t.Recycle(p.sub)
			continue
		}
		res.absorb(p.sub)
		t.Recycle(p.sub)
	}
	return nil
}

// absorb merges a completed subtree sub-result into res: items and
// degradations append in order, traversal stats sum, and internal-LoD
// substitution stand-ins dedup against the substitutions already merged —
// exactly the answer the serial traversal builds in place.
func (res *QueryResult) absorb(sub *QueryResult) {
	for _, it := range sub.Items {
		if it.IsInternal() && sub.substituted[it.NodeID] {
			if res.substituted[it.NodeID] {
				continue
			}
			if res.substituted == nil {
				res.substituted = make(map[NodeID]bool)
			}
			res.substituted[it.NodeID] = true
		}
		res.Items = append(res.Items, it)
	}
	res.Stats.NodesVisited += sub.Stats.NodesVisited
	res.Stats.BranchesCut += sub.Stats.BranchesCut
	res.Stats.EarlyStops += sub.Stats.EarlyStops
	res.Degradations = append(res.Degradations, sub.Degradations...)
}

// chooseLevel maps a continuous detail k in [0,1] (1 = finest) to a
// discrete level index among n levels, mirroring mesh.LoDChain.LevelFor.
func chooseLevel(k float64, n int) int {
	if n <= 1 {
		return 0
	}
	if k >= 1 {
		return 0
	}
	if k <= 0 {
		return n - 1
	}
	idx := int((1 - k) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// interpolatePolys evaluates the equation-5 polygon interpolation between
// the finest and coarsest internal LoD levels.
func interpolatePolys(polys []int, k float64) float64 {
	if len(polys) == 0 {
		return 0
	}
	hi := float64(polys[0])
	lo := float64(polys[len(polys)-1])
	if k >= 1 {
		return hi
	}
	if k <= 0 {
		return lo
	}
	return k*hi + (1-k)*lo
}

// FetchPayloadsContext charges the heavy-weight I/O of retrieving every
// item's payload extent, skipping items for which skip returns true (the
// delta search of §5.4 passes a cache-hit predicate). It returns the
// number of items actually fetched. The context is checked before each
// item's extent read; an expired deadline aborts with the items fetched
// so far counted.
func (t *Tree) FetchPayloadsContext(ctx context.Context, res *QueryResult, skip func(ResultItem) bool) (int, error) {
	tc, _, done := t.begin(ctx, 0)
	defer done()
	fetched := 0
	for i := range res.Items {
		if err := tc.err(); err != nil {
			return fetched, err
		}
		it := res.Items[i]
		if skip != nil && skip(it) {
			continue
		}
		ext := it.Extent
		err := t.reader().ReadExtent(ext.Start, ext.Pages(t.Disk), storage.ClassHeavy)
		if err == nil {
			fetched++
			continue
		}
		if !t.FaultTolerant || !degradable(err) {
			return fetched, err
		}
		if n, ok := t.degradePayload(res, i); ok {
			fetched += n
		}
	}
	return fetched, nil
}

// degradePayload handles a media fault on res.Items[i]'s extent: the
// failing pages are quarantined, a sibling LoD level of the same object or
// node stands in (coarser preferred), the item is rewritten to the level
// actually fetched, and a CausePayload Degradation is recorded. Returns
// the number of extents fetched (0 when no level was readable — the item's
// geometry is simply absent from the frame).
func (t *Tree) degradePayload(res *QueryResult, i int) (int, bool) {
	it := res.Items[i]
	deg := Degradation{
		Cell: res.Cell, Node: it.NodeID, Object: it.ObjectID,
		Cause: CausePayload, Page: storage.NilPage,
		SubstituteNode: NilNode, SubstituteLevel: -1,
	}
	// Quarantine the failing pages so later frames skip the seek.
	for p, n := 0, it.Extent.Pages(t.Disk); p < n; p++ {
		t.Disk.Quarantine(it.Extent.Start + storage.PageID(p))
	}
	deg.Page = it.Extent.Start
	var refs []Extent
	var polys []int
	if it.ObjectID >= 0 && int(it.ObjectID) < len(t.ObjExtents) {
		refs = t.ObjExtents[it.ObjectID]
	} else if it.NodeID != NilNode && int(it.NodeID) < len(t.Nodes) {
		refs = t.Nodes[it.NodeID].InternalExtents
		polys = t.Nodes[it.NodeID].InternalPolys
	}
	// Prefer the coarser neighbors of the lost level, then finer ones.
	lvl, ok := t.pickReadableLevel(refs, it.Level+1)
	if ok {
		ext := refs[lvl]
		if err := t.reader().ReadExtent(ext.Start, ext.Pages(t.Disk), storage.ClassHeavy); err == nil {
			res.Items[i].Level = lvl
			res.Items[i].Extent = ext
			if lvl < len(polys) {
				res.Items[i].Polygons = float64(polys[lvl])
			}
			if it.NodeID != NilNode {
				deg.SubstituteNode = it.NodeID
			}
			deg.SubstituteLevel = lvl
			res.Degradations = append(res.Degradations, deg)
			return 1, true
		}
		// The fallback level failed too (fresh fault): quarantine it and
		// give up on this item rather than looping.
		for p, n := 0, ext.Pages(t.Disk); p < n; p++ {
			t.Disk.Quarantine(ext.Start + storage.PageID(p))
		}
	}
	res.Degradations = append(res.Degradations, deg)
	return 0, true
}

// LoadMesh decodes the actual mesh payload of a result item (the real
// bytes prefix of its extent), charging heavy I/O for the full nominal
// extent. Examples and the fidelity renderer use this.
func (t *Tree) LoadMesh(it ResultItem) (*mesh.Mesh, error) {
	buf, err := t.reader().ReadBytes(it.Extent.Start, int(it.Extent.RealBytes), storage.ClassHeavy)
	if err != nil {
		return nil, err
	}
	return mesh.Decode(buf)
}
