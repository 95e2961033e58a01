package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// randomStatic builds the static part of a random decision set: a random
// DAG on 1–4 tiles, sometimes with ISPs, 1–3 reconfiguration ports,
// per-subtask load latencies, tile orders in topological order (one row
// occasionally shuffled, which may make the schedule cyclic on its own)
// and sometimes a communication-delay model.
func randomStatic(rng *rand.Rand) Input {
	g := graph.Generate(rng, graph.GenSpec{
		Name:     "diff",
		Subtasks: 1 + rng.Intn(20),
		MaxWidth: 1 + rng.Intn(4),
		MinExec:  model.MS(0.1),
		MaxExec:  model.MS(12),
		EdgeProb: 0.4 * rng.Float64(),
	})
	p := platform.Default(1 + rng.Intn(4))
	p.Ports = 1 + rng.Intn(3)
	if rng.Intn(4) == 0 {
		p.ISPs = 1 + rng.Intn(2)
	}
	for i := 0; i < g.Len(); i++ {
		id := graph.SubtaskID(i)
		if rng.Intn(4) == 0 {
			g.SetLoad(id, model.Dur(1+rng.Intn(8000)))
		}
		if p.ISPs > 0 && rng.Intn(5) == 0 {
			g.SetOnISP(id, true)
		}
	}
	topo, _ := g.TopoOrder()
	assignment := make([]int, g.Len())
	rows := make([][]graph.SubtaskID, p.Processors())
	for _, id := range topo {
		a := rng.Intn(p.Tiles)
		if g.Subtask(id).OnISP {
			a = p.Tiles + rng.Intn(p.ISPs)
		}
		assignment[id] = a
		rows[a] = append(rows[a], id)
	}
	if rng.Intn(8) == 0 {
		row := rows[rng.Intn(len(rows))]
		rng.Shuffle(len(row), func(a, b int) { row[a], row[b] = row[b], row[a] })
	}
	in := Input{G: g, P: p, Assignment: assignment, TileOrder: rows}
	if rng.Intn(3) == 0 {
		in.CommDelay = func(e graph.Edge, from, to int) model.Dur {
			if from == to {
				return 0
			}
			return model.Dur((int(e.From)*7+int(e.To)*3+from*5+to)%11) * 100
		}
	}
	return in
}

// randomCandidate draws one candidate for a bound static part: a random
// load subset in topological port order, often shuffled (and then often
// cyclic) or with one adjacent swap, on-demand or prefetching, with
// random floors, TileFree, PortFree and LoadEarliest.
func randomCandidate(rng *rand.Rand, static Input) Input {
	in := static
	n := in.G.Len()
	topo, _ := in.G.TopoOrder()
	in.NeedLoad = make([]bool, n)
	in.PortOrder = nil
	for _, id := range topo {
		if !in.G.Subtask(id).OnISP && rng.Float64() < 0.75 {
			in.NeedLoad[id] = true
			in.PortOrder = append(in.PortOrder, id)
		}
	}
	switch m := len(in.PortOrder); {
	case m > 1 && rng.Intn(3) == 0:
		rng.Shuffle(m, func(a, b int) { in.PortOrder[a], in.PortOrder[b] = in.PortOrder[b], in.PortOrder[a] })
	case m > 1 && rng.Intn(2) == 0:
		k := rng.Intn(m - 1)
		in.PortOrder[k], in.PortOrder[k+1] = in.PortOrder[k+1], in.PortOrder[k]
	}
	half := model.Time(model.Millisecond / 2)
	in.OnDemand = rng.Intn(3) == 0
	in.ExecFloor = model.Time(rng.Intn(40)) * half
	in.LoadFloor = in.ExecFloor - model.Time(rng.Intn(20))*half
	if rng.Intn(3) == 0 {
		in.TileFree = make([]model.Time, in.P.Processors())
		for i := range in.TileFree {
			in.TileFree[i] = model.Time(rng.Intn(60)) * half
		}
	}
	if rng.Intn(3) == 0 {
		in.PortFree = make([]model.Time, in.P.Ports)
		for i := range in.PortFree {
			in.PortFree[i] = model.Time(rng.Intn(60)) * half
		}
	}
	if rng.Intn(4) == 0 {
		in.LoadEarliest = make([]model.Time, n)
		for i := range in.LoadEarliest {
			if rng.Intn(2) == 0 {
				in.LoadEarliest[i] = model.Time(rng.Intn(80)) * half
			}
		}
	}
	return in
}

// diffTimelines describes the first difference between two evaluation
// outcomes, or returns "" when they are identical.
func diffTimelines(got *Timeline, gotErr error, want *Timeline, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
		}
		return ""
	}
	if got.Start != want.Start || got.End != want.End || got.LastLoadEnd != want.LastLoadEnd {
		return fmt.Sprintf("summary start/end/lastLoad %v/%v/%v, reference %v/%v/%v",
			got.Start, got.End, got.LastLoadEnd, want.Start, want.End, want.LastLoadEnd)
	}
	for name, pair := range map[string][2][]model.Time{
		"LoadStart": {got.LoadStart, want.LoadStart}, "LoadEnd": {got.LoadEnd, want.LoadEnd},
		"ExecStart": {got.ExecStart, want.ExecStart}, "ExecEnd": {got.ExecEnd, want.ExecEnd},
		"PortFreeAfter": {got.PortFreeAfter, want.PortFreeAfter},
	} {
		if !slices.Equal(pair[0], pair[1]) {
			return fmt.Sprintf("%s %v, reference %v", name, pair[0], pair[1])
		}
	}
	if !slices.Equal(got.LoadPort, want.LoadPort) {
		return fmt.Sprintf("LoadPort %v, reference %v", got.LoadPort, want.LoadPort)
	}
	return ""
}

// checkAgainstReference binds sc to a random schedule drawn from rng and
// compares evals candidates with the constraint-DAG reference, the first
// through Compute and the rest through Eval on the bound scratch. Each
// candidate is also evaluated on a second scratch that uses a Program
// compiled from the first candidate; where Compile fails, Compute must
// fail the same way. It returns the number of feasible and cyclic
// candidates.
func checkAgainstReference(t testing.TB, rng *rand.Rand, sc *Scratch, evals int) (feasible, cyclic int) {
	t.Helper()
	static := randomStatic(rng)
	var shared Scratch
	var progErr error
	for k := 0; k < evals; k++ {
		in := randomCandidate(rng, static)
		want, wantErr := refCompute(in)
		var got *Timeline
		var err error
		if k == 0 {
			got, err = sc.Compute(in)
			var prog *Program
			prog, progErr = Compile(&in)
			shared.Use(prog)
		} else {
			got, err = sc.Eval(&in)
		}
		if d := diffTimelines(got, err, want, wantErr); d != "" {
			t.Fatalf("candidate %d of %d subtasks, %d ports, on-demand %v, port order %v, tiles %v: %s",
				k, in.G.Len(), in.P.Ports, in.OnDemand, in.PortOrder, in.TileOrder, d)
		}
		if progErr != nil {
			if k == 0 && (err == nil || err.Error() != progErr.Error()) {
				t.Fatalf("Compile failed with %v, Compute with %v", progErr, err)
			}
			continue
		}
		got, err = shared.Eval(&in)
		if d := diffTimelines(got, err, want, wantErr); d != "" {
			t.Fatalf("candidate %d on a compiled Program: %s", k, d)
		}
		if wantErr == nil {
			feasible++
		} else {
			cyclic++
		}
	}
	return feasible, cyclic
}

// TestEvalMatchesReference pins the direct evaluator to the constraint-DAG
// reference on 100k seeded random candidates: identical timelines,
// PortFreeAfter and error text, feasible and cyclic alike.
func TestEvalMatchesReference(t *testing.T) {
	const schedules, evals = 25000, 4
	rng := rand.New(rand.NewSource(20240613))
	sc := &Scratch{} // reused across every schedule size, as schedulers do
	feasible, cyclic := 0, 0
	for i := 0; i < schedules; i++ {
		f, c := checkAgainstReference(t, rng, sc, evals)
		feasible += f
		cyclic += c
	}
	t.Logf("%d feasible, %d cyclic candidates", feasible, cyclic)
	if feasible < schedules*evals/4 || cyclic < schedules*evals/10 {
		t.Fatalf("unbalanced corpus: %d feasible, %d cyclic", feasible, cyclic)
	}
}

// FuzzCompute compares the direct evaluator with the reference on the
// schedules a seed generates. Plain `go test` runs the seed corpus;
// `go test -fuzz=FuzzCompute ./internal/schedule` explores from there.
func FuzzCompute(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1337, 99991, -5, 1 << 40} {
		f.Add(seed, uint8(4))
	}
	f.Fuzz(func(t *testing.T, seed int64, evals uint8) {
		checkAgainstReference(t, rand.New(rand.NewSource(seed)), &Scratch{}, 1+int(evals%8))
	})
}

// TestEvalRejectsForeignStatic: Eval refuses inputs whose graph,
// platform, assignment, tile orders or communication model are not the
// bound ones, and inputs before any Bind; equal contents in other
// slices are accepted.
func TestEvalRejectsForeignStatic(t *testing.T) {
	_, base := fig3()
	sc := &Scratch{}
	if _, err := sc.Eval(&base); !errors.Is(err, errMismatch) {
		t.Fatalf("Eval before Bind: got %v", err)
	}
	if err := sc.Bind(&base); err != nil {
		t.Fatal(err)
	}
	copied := base
	copied.Assignment = slices.Clone(base.Assignment)
	copied.TileOrder = [][]graph.SubtaskID{{0}, {1, 3}, {2}}
	if _, err := sc.Eval(&copied); err != nil {
		t.Fatalf("equal static part in fresh slices: %v", err)
	}
	_, other := fig3()
	cases := map[string]func(*Input){
		"graph":      func(in *Input) { in.G = other.G },
		"platform":   func(in *Input) { in.P.Tiles = 4 },
		"latency":    func(in *Input) { in.P.ReconfigLatency++ },
		"assignment": func(in *Input) { in.Assignment = []int{0, 1, 2, 2} },
		"tile order": func(in *Input) { in.TileOrder = [][]graph.SubtaskID{{0}, {3, 1}, {2}} },
		"tile rows":  func(in *Input) { in.TileOrder = [][]graph.SubtaskID{{0}, {1, 3}} },
		"comm": func(in *Input) {
			in.CommDelay = func(graph.Edge, int, int) model.Dur { return 0 }
		},
	}
	for name, mutate := range cases {
		in := base
		mutate(&in)
		if _, err := sc.Eval(&in); !errors.Is(err, errMismatch) {
			t.Errorf("%s: got %v, want mismatch", name, err)
		}
	}
	// Use points the scratch at a compiled Program; nil unbinds.
	prog, err := Compile(&base)
	if err != nil {
		t.Fatal(err)
	}
	var used Scratch
	used.Use(prog)
	if _, err := used.Eval(&copied); err != nil {
		t.Fatalf("Eval on a compiled Program: %v", err)
	}
	used.Use(nil)
	if _, err := used.Eval(&base); !errors.Is(err, errMismatch) {
		t.Fatalf("Eval after Use(nil): got %v", err)
	}
	// A failed Bind leaves nothing bound.
	bad := base
	bad.Assignment = []int{0}
	if err := sc.Bind(&bad); err == nil {
		t.Fatal("short assignment bound")
	}
	if _, err := sc.Eval(&base); !errors.Is(err, errMismatch) {
		t.Fatalf("Eval after failed Bind: got %v", err)
	}
}

// TestProgramSharedAcrossGoroutines evaluates one compiled Program from
// several goroutines, each on its own Scratch, and pins every timeline
// to Compute: a Program is read-only after Compile (run under -race).
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	static := randomStatic(rng)
	for static.G.Len() < 8 {
		static = randomStatic(rng)
	}
	cands := make([]Input, 64)
	for i := range cands {
		cands[i] = randomCandidate(rng, static)
	}
	prog, err := Compile(&cands[0])
	if err != nil {
		t.Skipf("static part does not compile: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc, fresh Scratch
			sc.Use(prog)
			for _, in := range cands {
				got, gotErr := sc.Eval(&in)
				want, wantErr := fresh.Compute(in)
				if d := diffTimelines(got, gotErr, want, wantErr); d != "" {
					errs <- d
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for d := range errs {
		t.Fatal(d)
	}
}
