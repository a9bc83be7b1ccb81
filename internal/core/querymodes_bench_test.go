package core_test

import (
	"testing"

	"repro/internal/cells"
	"repro/internal/core"
	"repro/internal/geom"
)

// BenchmarkQueryModes measures one query per op in each traversal mode on
// the differential fixture (indexed-vertical scheme, η = 0.001). Every
// mode cycles through the same 2×2 block of neighbouring cells, so the
// coherent mode runs its warm 4-neighbour walk; results are recycled as a
// walkthrough session does.
func BenchmarkQueryModes(b *testing.B) {
	e := diffFixture(b)
	e.tree.SetVStore(e.schemes[2].vs)
	const eta = 0.001
	walk := []cells.CellID{0, 1, 5, 4}
	fronts := make([]geom.Frustum, len(walk))
	for i, c := range walk {
		fronts[i] = prioFrustum(e.tree, c)
	}
	for _, m := range []struct {
		name     string
		parallel int
		query    func(s *core.Tree, i int) (*core.QueryResult, error)
	}{
		{"serial", 1, func(s *core.Tree, i int) (*core.QueryResult, error) { return s.Query(walk[i], eta) }},
		{"parallel", 4, func(s *core.Tree, i int) (*core.QueryResult, error) { return s.Query(walk[i], eta) }},
		{"coherent", 1, func(s *core.Tree, i int) (*core.QueryResult, error) { return s.QueryCoherent(walk[i], eta) }},
		{"prioritized", 1, func(s *core.Tree, i int) (*core.QueryResult, error) {
			return s.QueryPrioritized(walk[i], eta, fronts[i])
		}},
	} {
		b.Run(m.name, func(b *testing.B) {
			s := e.tree.Session()
			s.SetParallel(m.parallel)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := m.query(s, i%len(walk))
				if err != nil {
					b.Fatal(err)
				}
				s.Recycle(r)
			}
		})
	}
}
