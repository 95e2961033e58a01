package prefetch

import (
	"fmt"
	"math/rand"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// BenchmarkListBound measures the run-time list heuristic
// (List.ScheduleScratch, the run-time approaches' scheduler) on one
// schedule per op, with the bounds of an instance that starts on busy
// tiles. "program" evaluates on the schedule.Program compiled once up
// front, as the simulator does with each prepared artifact; "bind"
// compiles the schedule on every call, as a fresh caller does.
func BenchmarkListBound(b *testing.B) {
	for _, n := range []int{14, 56} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.Generate(rng, graph.GenSpec{
			Name: fmt.Sprintf("bench%d", n), Subtasks: n, MaxWidth: 4,
			MinExec: model.MS(1), MaxExec: model.MS(9), EdgeProb: 0.2,
		})
		p := platform.Default(8)
		s, err := assign.List(g, p, assign.Options{})
		if err != nil {
			b.Fatal(err)
		}
		in := s.EngineInput(p, nil)
		prog, err := schedule.Compile(&in)
		if err != nil {
			b.Fatal(err)
		}
		loads := s.AllLoads()
		tileFree := make([]model.Time, s.Tiles+s.ISPs)
		for t := range tileFree {
			tileFree[t] = model.Time(t) * model.Time(model.Millisecond)
		}
		bounds := Bounds{ExecFloor: model.Time(2 * model.Millisecond), TileFree: tileFree}
		for _, mode := range []string{"program", "bind"} {
			pg := prog
			if mode == "bind" {
				pg = nil
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				var sc Scratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := (List{}).ScheduleScratch(s, p, loads, bounds, pg, &sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
