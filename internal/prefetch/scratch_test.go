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

// randomSched builds a random DAG schedule for equivalence checks.
func randomSched(t *testing.T, rng *rand.Rand, n, tiles int) (*assign.Schedule, platform.Platform) {
	t.Helper()
	g := graph.New(fmt.Sprintf("rand%d", n))
	ids := make([]graph.SubtaskID, n)
	for i := range ids {
		ids[i] = g.AddSubtask("s", model.Dur(1+rng.Intn(20))*model.Millisecond)
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.3 {
				g.AddEdge(ids[j], ids[i])
			}
		}
	}
	p := platform.Default(tiles)
	s, err := assign.List(g, p, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// TestScratchSchedulersMatchAllocating pins the scratch entry points to
// the allocating ones: identical port orders, makespans and overheads
// on a spread of random schedules and boundary conditions, on a
// precompiled schedule.Program (odd trials) and compiling per call.
func TestScratchSchedulersMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := &Scratch{} // deliberately reused across every case
	var err error
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		tiles := 2 + rng.Intn(3)
		s, p := randomSched(t, rng, n, tiles)
		b := Bounds{
			ExecFloor: model.Time(rng.Intn(50)) * model.Time(model.Millisecond),
		}
		b.LoadFloor = b.ExecFloor - model.Time(rng.Intn(10))*model.Time(model.Millisecond)
		loads := s.AllLoads()
		var prog *schedule.Program
		if trial%2 == 1 {
			in := s.EngineInput(p, nil)
			if prog, err = schedule.Compile(&in); err != nil {
				t.Fatal(err)
			}
		}

		want, err := (OnDemand{}).Schedule(s, p, loads, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (OnDemand{}).ScheduleScratch(s, p, loads, b, prog, sc)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "on-demand", trial, want, got)

		want, err = (List{}).Schedule(s, p, loads, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err = (List{}).ScheduleScratch(s, p, loads, b, prog, sc)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "list", trial, want, got)

		want, err = Evaluate(s, p, loads, b, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err = EvaluateScratch(s, p, loads, b, false, prog, sc)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "evaluate", trial, want, got)
	}
}

// TestScratchRejectsForeignProgram: a Program compiled from another
// schedule is refused, not evaluated.
func TestScratchRejectsForeignProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s, p := randomSched(t, rng, 6, 3)
	other, _ := randomSched(t, rng, 6, 3)
	in := other.EngineInput(p, nil)
	prog, err := schedule.Compile(&in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (List{}).ScheduleScratch(s, p, s.AllLoads(), Bounds{}, prog, &Scratch{}); err == nil {
		t.Fatal("list scheduled on a foreign program")
	}
}

func compareResults(t *testing.T, name string, trial int, want, got *Result) {
	t.Helper()
	if got.Makespan != want.Makespan || got.Ideal != want.Ideal || got.Overhead != want.Overhead {
		t.Fatalf("%s trial %d: scratch (mk %v, ideal %v, ov %v) != allocating (mk %v, ideal %v, ov %v)",
			name, trial, got.Makespan, got.Ideal, got.Overhead, want.Makespan, want.Ideal, want.Overhead)
	}
	if len(got.PortOrder) != len(want.PortOrder) {
		t.Fatalf("%s trial %d: port order lengths differ", name, trial)
	}
	for i := range want.PortOrder {
		if got.PortOrder[i] != want.PortOrder[i] {
			t.Fatalf("%s trial %d: port order differs at %d: %v vs %v", name, trial, i, got.PortOrder, want.PortOrder)
		}
	}
	for i := range want.Timeline.ExecStart {
		if got.Timeline.ExecStart[i] != want.Timeline.ExecStart[i] ||
			got.Timeline.LoadStart[i] != want.Timeline.LoadStart[i] {
			t.Fatalf("%s trial %d: timelines differ at subtask %d", name, trial, i)
		}
	}
}
