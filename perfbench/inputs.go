package main

import (
	"math/rand"

	hdov "repro"
)

// Inputs. Every sequence below is a pure function of the workload seed
// and a stream number, so a run and its traced re-run see identical
// cells, η values and update ops. The program under test receives only
// these generated values.

// etas is the DoV-threshold menu a query draws from: the exact answer
// (0), the paper's default (0.001), and one step finer and coarser.
var etas = [...]float64{0, 0.0005, 0.001, 0.004}

// walkEta is the fixed threshold of a walk: the coherent cut is reset
// whenever η changes, so a walker keeps one.
const walkEta = 0.001

// Stream numbers keep each client's draws independent of the others'.
const (
	streamClient = 1 // + client index
	streamWriter = 100
	streamSample = 200
)

// newRand returns the random stream for (seed, stream).
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// query is one generated request: a viewing cell and a threshold index
// into etas.
type query struct {
	cell int
	eta  int
}

// queryGen yields a client's query sequence.
type queryGen interface {
	next() query
}

// uniformGen draws a uniform random cell and a uniform η per query.
type uniformGen struct {
	rng   *rand.Rand
	cells int
}

func newUniformGen(seed int64, client, cells int) *uniformGen {
	return &uniformGen{rng: newRand(seed, streamClient+int64(client)), cells: cells}
}

func (g *uniformGen) next() query {
	return query{cell: g.rng.Intn(g.cells), eta: g.rng.Intn(len(etas))}
}

// walkGen is a 4-neighbour random walk over an nx×ny cell grid (cell =
// y*nx + x): one step to a uniformly chosen in-grid neighbour per query,
// at a fixed η.
type walkGen struct {
	rng     *rand.Rand
	nx, ny  int
	cur     int
	started bool
}

func newWalkGen(seed int64, client, nx, ny int) *walkGen {
	rng := newRand(seed, streamClient+int64(client))
	return &walkGen{rng: rng, nx: nx, ny: ny, cur: rng.Intn(nx * ny)}
}

func (w *walkGen) next() query {
	if w.started && w.nx*w.ny > 1 {
		x, y := w.cur%w.nx, w.cur/w.nx
		for {
			nx, ny := x, y
			switch w.rng.Intn(4) {
			case 0:
				nx++
			case 1:
				nx--
			case 2:
				ny++
			default:
				ny--
			}
			if nx >= 0 && nx < w.nx && ny >= 0 && ny < w.ny {
				w.cur = ny*w.nx + nx
				break
			}
		}
	}
	w.started = true
	return query{cell: w.cur, eta: etaIndex(walkEta)}
}

func etaIndex(eta float64) int {
	for i, e := range etas {
		if e == eta {
			return i
		}
	}
	panic("eta not in menu")
}

// Update ops.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opMove
)

// updateOp is one generated scene mutation.
type updateOp struct {
	kind   opKind
	id     int64 // delete/move target
	dx, dy float64
	ins    hdov.InsertSpec
}

// updateGen yields update batches of three ops each: an insert of a
// procedural blob at a random spot inside the view region, a move of a
// random live object by up to 8 m on each axis, and a delete of a random
// live object. A fixed mix keeps the cost of a batch from swinging with
// which kinds the draw happened to pick. The generator tracks the live
// set, so every op is valid when the batches apply in order. Object IDs
// are dense: the database has ids 0..objects-1 and assigns inserts the
// next ids in batch order.
type updateGen struct {
	rng    *rand.Rand
	alive  []int64
	nextID int64
	lo, hi hdov.Point
}

func newUpdateGen(seed int64, objects int, lo, hi hdov.Point) *updateGen {
	g := &updateGen{rng: newRand(seed, streamWriter), nextID: int64(objects), lo: lo, hi: hi}
	for id := 0; id < objects; id++ {
		g.alive = append(g.alive, int64(id))
	}
	return g
}

func (g *updateGen) next() []updateOp {
	ins := updateOp{kind: opInsert, ins: hdov.InsertSpec{
		Seed:   g.rng.Int63(),
		X:      g.lo.X + 2 + g.rng.Float64()*(g.hi.X-g.lo.X-4),
		Y:      g.lo.Y + 2 + g.rng.Float64()*(g.hi.Y-g.lo.Y-4),
		Radius: 1 + 2*g.rng.Float64(),
	}}
	g.alive = append(g.alive, g.nextID)
	g.nextID++
	dx := (g.rng.Float64()*2 - 1) * 8
	dy := (g.rng.Float64()*2 - 1) * 8
	if dx == 0 && dy == 0 {
		dx = 1
	}
	mv := updateOp{kind: opMove, id: g.alive[g.rng.Intn(len(g.alive))], dx: dx, dy: dy}
	i := g.rng.Intn(len(g.alive))
	del := updateOp{kind: opDelete, id: g.alive[i]}
	g.alive[i] = g.alive[len(g.alive)-1]
	g.alive = g.alive[:len(g.alive)-1]
	return []updateOp{ins, mv, del}
}

// stage records a batch on a public-API Updater.
func stage(u *hdov.Updater, batch []updateOp) {
	for _, op := range batch {
		switch op.kind {
		case opInsert:
			u.Insert(op.ins)
		case opDelete:
			u.Delete(op.id)
		default:
			u.Move(op.id, op.dx, op.dy, 0)
		}
	}
}
