package sim_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/stats"
)

// TestSequentialTailsWithinSketchAlpha checks the kernel's own tail
// sketches on the sequential path: every IterMakespan and IterOverhead
// percentile of a golden-corpus run must lie within the sketch's
// relative-error bound of the exact quantile of the per-iteration
// values the Observer saw (rank floor(q*(n-1)), the sketch's
// convention).
func TestSequentialTailsWithinSketchAlpha(t *testing.T) {
	exact := func(xs []float64, q float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[int(math.Floor(q*float64(len(s)-1)))]
	}
	for _, c := range goldenRuns() {
		t.Run(fmt.Sprintf("%s/%s/seed%d", c.wl, c.opt.Approach, c.opt.Seed), func(t *testing.T) {
			p := platform.Default(8)
			p.ISPs = 1
			var makespan, overhead []float64
			opt := c.opt
			opt.Observer = func(r sim.IterationRecord) {
				makespan = append(makespan, r.Makespan.Milliseconds())
				overhead = append(overhead, r.Overhead.Milliseconds())
			}
			r, err := sim.Run(goldenMix(c.wl), p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r.Execution != "sequential" || len(makespan) != c.opt.Iterations {
				t.Fatalf("execution %q with %d records, want sequential with %d", r.Execution, len(makespan), c.opt.Iterations)
			}
			for _, m := range []struct {
				name string
				xs   []float64
				tail sim.Tail
			}{{"IterMakespan", makespan, r.IterMakespan}, {"IterOverhead", overhead, r.IterOverhead}} {
				for _, pct := range []struct {
					q   float64
					got float64
				}{{0.5, m.tail.P50}, {0.95, m.tail.P95}, {0.99, m.tail.P99}} {
					want := exact(m.xs, pct.q)
					if math.Abs(pct.got-want) > stats.DefaultSketchAlpha*math.Abs(want) {
						t.Errorf("%s P%g = %v, exact %v: outside the %v relative-error bound",
							m.name, 100*pct.q, pct.got, want, stats.DefaultSketchAlpha)
					}
				}
			}
		})
	}
}
