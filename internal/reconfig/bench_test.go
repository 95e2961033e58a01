package reconfig

import (
	"fmt"
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// BenchmarkMapInto measures the run-time replacement module per task
// instance on compiled Plans: MapInto, ResidentInto and the Commit
// that carries the tile state to the next instance. One op is one
// instance; the ops rotate over eight 14-subtask schedules whose
// configurations come from one pool of 24, so every instance sees a
// mix of reuse matches, empty tiles and evictions. Under the
// whole-fabric claim (Allowed nil) the schedules span every tile, as
// the simulator's serial admission schedules them; under the partition
// claim they span half the tiles and claim half the fabric.
func BenchmarkMapInto(b *testing.B) {
	for _, tiles := range []int{8, 16} {
		for _, claim := range []string{"fabric", "partition"} {
			b.Run(fmt.Sprintf("tiles=%d/%s", tiles, claim), func(b *testing.B) {
				width := tiles
				var allowed []int
				if claim == "partition" {
					width = tiles / 2
					for t := 0; t < width; t++ {
						allowed = append(allowed, t)
					}
				}
				rng := rand.New(rand.NewSource(3))
				plans := make([]*Plan, 8)
				for i := range plans {
					g := graph.Generate(rng, graph.GenSpec{
						Name: "bench", Subtasks: 14, MaxWidth: 4,
						MinExec: model.MS(1), MaxExec: model.MS(9), EdgeProb: 0.2, SharedCfg: 24,
					})
					s, err := assign.List(g, platform.Default(width), assign.Options{})
					if err != nil {
						b.Fatal(err)
					}
					plans[i] = NewPlan(s, func(id graph.SubtaskID) bool { return id%3 == 0 })
				}
				st := NewState(tiles)
				var sc MapScratch
				var res []bool
				execEnd := make([]model.Time, 14)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl := plans[i%len(plans)]
					m, err := pl.MapInto(st, MapOptions{Allowed: allowed}, &sc)
					if err != nil {
						b.Fatal(err)
					}
					res, _ = pl.ResidentInto(res, st, m)
					for id := range execEnd {
						execEnd[id] = model.Time(i) * model.Time(model.Millisecond)
					}
					pl.Commit(st, m, res, execEnd)
				}
			})
		}
	}
}
