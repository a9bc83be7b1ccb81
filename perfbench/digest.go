package main

import (
	"math"

	hdov "repro"
	"repro/internal/core"
)

// An answer digest folds every field of a query answer that the public
// Result exposes for its items and degradations into one word, so the
// benchmark can compare answers without keeping them. The public and the
// layer-level forms below hash the same fields in the same order.

type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) word(x uint64) {
	v := (uint64(*h) ^ x) * 1099511628211
	*h = hasher(v ^ v>>29)
}

func (h *hasher) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

func (h *hasher) item(obj int64, node int32, dov, detail float64, level int, polys float64, bytes int64) {
	h.word(uint64(obj))
	h.word(uint64(int64(node)))
	h.word(math.Float64bits(dov))
	h.word(math.Float64bits(detail))
	h.word(uint64(level))
	h.word(math.Float64bits(polys))
	h.word(uint64(bytes))
}

func (h *hasher) degradation(node int32, obj int64, cause string, page int64, subNode int32, subLevel int) {
	h.word(uint64(int64(node)))
	h.word(uint64(obj))
	h.str(cause)
	h.word(uint64(page))
	h.word(uint64(int64(subNode)))
	h.word(uint64(subLevel))
}

// resultDigest digests a public-API answer.
func resultDigest(r *hdov.Result) uint64 {
	h := newHasher()
	h.word(uint64(len(r.Items)))
	for _, it := range r.Items {
		h.item(it.ObjectID, it.NodeID, it.DoV, it.Detail, it.Level, it.Polygons, it.Bytes)
	}
	h.word(uint64(len(r.Degradations)))
	for _, d := range r.Degradations {
		h.degradation(d.Node, d.Object, d.Cause, d.Page, d.SubstituteNode, d.SubstituteLevel)
	}
	return uint64(h)
}

// coreDigest digests a layer-level answer; it equals resultDigest of the
// public Result the same answer is wrapped into.
func coreDigest(r *core.QueryResult) uint64 {
	h := newHasher()
	h.word(uint64(len(r.Items)))
	for _, it := range r.Items {
		h.item(it.ObjectID, int32(it.NodeID), it.DoV, it.Detail, it.Level, it.Polygons, it.Extent.NominalBytes)
	}
	h.word(uint64(len(r.Degradations)))
	for _, d := range r.Degradations {
		h.degradation(int32(d.Node), d.Object, d.Cause.String(), int64(d.Page), int32(d.SubstituteNode), d.SubstituteLevel)
	}
	return uint64(h)
}

// answerKey indexes a (cell, η) pair in a per-epoch answer table.
func answerKey(q query) int { return q.cell*len(etas) + q.eta }
