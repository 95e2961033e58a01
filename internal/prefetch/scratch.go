package prefetch

import (
	"slices"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/schedule"
)

// Scratch carries every reusable buffer the prefetch schedulers need,
// so the simulator's per-instance loop runs them without allocating.
// Each entry point binds the schedule into the evaluator once — by
// using the schedule.Program its caller compiled at design time, or by
// compiling one when it is given none — and then evaluates every
// candidate load order on it. The Result returned by
// the *Scratch entry points — including its Timeline — is owned by the
// scratch and valid until the next call on the same scratch. The zero
// value is ready to use; a Scratch must not be shared between
// goroutines.
type Scratch struct {
	eval      schedule.Scratch
	in        schedule.Input // the bound schedule and bounds; NeedLoad is need
	loadFloor model.Time     // the bounds' LoadFloor, before on-demand raises it
	need      []bool
	ideal     model.Dur // zero-overhead makespan of the bound schedule

	order []graph.SubtaskID
	next  []graph.SubtaskID
	ready []model.Time // per subtask, on-demand readiness
	res   Result

	repair repairScratch
}

// bind binds s on p under bounds b into the evaluator — prog, compiled
// from s.EngineInput(p, …), or, when prog is nil, a fresh compile — and
// evaluates the ideal reference (no loads at all) that every
// candidate's overhead is measured against.
func (sc *Scratch) bind(s *assign.Schedule, p platform.Platform, b Bounds, prog *schedule.Program) error {
	n := s.G.Len()
	if cap(sc.need) < n {
		sc.need = make([]bool, n)
	}
	sc.in = s.EngineInputNeed(p, nil, sc.need[:n])
	sc.in.ExecFloor, sc.in.LoadFloor = b.ExecFloor, b.LoadFloor
	sc.in.TileFree, sc.in.PortFree = b.TileFree, b.PortFree
	sc.loadFloor = b.LoadFloor
	if prog != nil {
		sc.eval.Use(prog)
	} else if err := sc.eval.Bind(&sc.in); err != nil {
		return err
	}
	tl, err := sc.eval.Eval(&sc.in)
	if err != nil {
		return err
	}
	sc.ideal = tl.Makespan()
	return nil
}

// evaluateInto evaluates one load order on the bound schedule into out;
// out.Timeline is the scratch's reusable timeline.
func (sc *Scratch) evaluateInto(out *Result, order []graph.SubtaskID, onDemand bool) error {
	in := &sc.in
	clear(in.NeedLoad)
	for _, id := range order {
		in.NeedLoad[id] = true
	}
	in.PortOrder = order
	in.OnDemand = onDemand
	in.LoadFloor = sc.loadFloor
	if onDemand && in.LoadFloor < in.ExecFloor {
		// An on-demand load request only exists once the task runs.
		in.LoadFloor = in.ExecFloor
	}
	tl, err := sc.eval.Eval(in)
	if err != nil {
		return err
	}
	*out = Result{
		PortOrder: order,
		OnDemand:  onDemand,
		Timeline:  tl,
		Makespan:  tl.Makespan(),
		Ideal:     sc.ideal,
		Overhead:  tl.Makespan() - sc.ideal,
	}
	return nil
}

// EvaluateScratch is Evaluate on reusable buffers; the returned Result
// and its Timeline are owned by sc. prog, when not nil, is s's
// schedule.Program on p (compiled from s.EngineInput(p, nil)); nil
// compiles one per call.
func EvaluateScratch(s *assign.Schedule, p platform.Platform, order []graph.SubtaskID, b Bounds, onDemand bool, prog *schedule.Program, sc *Scratch) (*Result, error) {
	if err := sc.bind(s, p, b, prog); err != nil {
		return nil, err
	}
	if err := sc.evaluateInto(&sc.res, order, onDemand); err != nil {
		return nil, err
	}
	return &sc.res, nil
}

// ScheduleScratch is OnDemand.Schedule on reusable buffers; the
// returned Result and its Timeline are owned by sc. prog is as for
// EvaluateScratch.
func (OnDemand) ScheduleScratch(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b Bounds, prog *schedule.Program, sc *Scratch) (*Result, error) {
	if err := sc.bind(s, p, b, prog); err != nil {
		return nil, err
	}
	n := s.G.Len()
	order := append(sc.order[:0], loads...)
	s.SortByIdealStart(order)
	next := sc.next[:0]
	if cap(sc.ready) < n {
		sc.ready = make([]model.Time, n)
	}
	ready := sc.ready[:n]

	maxIter := 2*len(order) + 2
	for iter := 0; iter < maxIter; iter++ {
		if err := sc.evaluateInto(&sc.res, order, true); err != nil {
			return nil, err
		}
		for _, id := range order {
			t := b.ExecFloor
			for _, pr := range s.G.Preds(id) {
				t = model.MaxT(t, sc.res.Timeline.ExecEnd[pr])
			}
			ready[id] = t
		}
		next = append(next[:0], order...)
		// Stable insertion sort by readiness.
		for i := 1; i < len(next); i++ {
			for j := i; j > 0 && ready[next[j]] < ready[next[j-1]]; j-- {
				next[j-1], next[j] = next[j], next[j-1]
			}
		}
		sc.repair.repair(s, next)
		if slices.Equal(next, order) {
			break
		}
		order, next = next, order
	}
	// Both buffers return to the scratch (possibly swapped).
	sc.order, sc.next = order[:0], next[:0]
	return &sc.res, nil
}

// ScheduleScratch is List.Schedule on reusable buffers; the returned
// Result and its Timeline are owned by sc. prog is as for
// EvaluateScratch.
func (l List) ScheduleScratch(s *assign.Schedule, p platform.Platform, loads []graph.SubtaskID, b Bounds, prog *schedule.Program, sc *Scratch) (*Result, error) {
	if err := sc.bind(s, p, b, prog); err != nil {
		return nil, err
	}
	return l.schedule(s, loads, sc)
}

// schedule runs the list heuristic on sc's bound schedule.
func (l List) schedule(s *assign.Schedule, loads []graph.SubtaskID, sc *Scratch) (*Result, error) {
	order := append(sc.order[:0], loads...)
	s.SortByIdealStart(order)
	var best, cand Result
	if err := sc.evaluateInto(&best, order, false); err != nil {
		return nil, err
	}
	passes := l.MaxPasses
	if passes == 0 {
		passes = 2
	}
	for pass := 0; pass < passes && best.Overhead > 0; pass++ {
		improved := false
		for i := 0; i+1 < len(order); i++ {
			order[i], order[i+1] = order[i+1], order[i]
			err := sc.evaluateInto(&cand, order, false)
			if err != nil || cand.Makespan >= best.Makespan {
				// Swap infeasible (tile-order cycle) or not better.
				order[i], order[i+1] = order[i+1], order[i]
				continue
			}
			best = cand
			improved = true
		}
		if !improved {
			break
		}
	}
	// order holds the best order found (rejected swaps were reverted);
	// evaluate it once more so the returned timeline matches it.
	final := append(sc.next[:0], best.PortOrder...)
	sc.next = final[:0]
	sc.order = order[:0]
	if err := sc.evaluateInto(&sc.res, final, false); err != nil {
		return nil, err
	}
	return &sc.res, nil
}

// repairScratch holds the id-indexed buffers of repair.
type repairScratch struct {
	inSet    []bool
	prevExec []graph.SubtaskID // -1 when first on its tile
	deps     [][]graph.SubtaskID
	seen     []bool
	emitted  []bool
	out      []graph.SubtaskID
	stack    []graph.SubtaskID
}

func (rs *repairScratch) grow(n int) {
	if cap(rs.inSet) < n {
		rs.inSet = make([]bool, n)
		rs.prevExec = make([]graph.SubtaskID, n)
		rs.deps = make([][]graph.SubtaskID, n)
		rs.seen = make([]bool, n)
		rs.emitted = make([]bool, n)
	}
	rs.inSet = rs.inSet[:n]
	rs.prevExec = rs.prevExec[:n]
	rs.deps = rs.deps[:n]
	rs.seen = rs.seen[:n]
	rs.emitted = rs.emitted[:n]
	for i := 0; i < n; i++ {
		rs.inSet[i] = false
		rs.prevExec[i] = -1
		rs.deps[i] = rs.deps[i][:0]
		rs.emitted[i] = false
	}
	rs.out = rs.out[:0]
	rs.stack = rs.stack[:0]
}

// repair permutes an on-demand load order, as little as possible, so
// that it is feasible:
//
//   - loads of subtasks sharing a tile appear in the tile's execution
//     order (a tile cannot be reconfigured for a later subtask before
//     an earlier one has run), and
//   - a load never precedes the load of a loaded ancestor under the
//     combined precedence (the ancestor must execute before this
//     load's request even exists, and its own load must come first).
//
// It models the controller letting an unblocked request overtake a
// blocked one: a stable topological sort that keeps the desired order
// wherever the constraints allow.
func (rs *repairScratch) repair(s *assign.Schedule, order []graph.SubtaskID) {
	m := len(order)
	if m < 2 {
		return
	}
	n := s.G.Len()
	rs.grow(n)
	for _, id := range order {
		rs.inSet[id] = true
	}
	// deps[i] lists loads that must be issued before order-member i.
	for _, tileOrder := range s.TileOrder {
		var prev graph.SubtaskID = -1
		for _, id := range tileOrder {
			if !rs.inSet[id] {
				continue
			}
			if prev >= 0 {
				rs.deps[id] = append(rs.deps[id], prev)
			}
			prev = id
		}
	}
	// An on-demand load waits for its predecessors' executions, and
	// executions are ordered by the combined precedence: graph edges
	// plus per-tile execution chains (through resident subtasks too).
	// Any loaded subtask executing strictly before subtask i must
	// therefore have its load issued before i's: walk each load's
	// combined-predecessor closure and record the loaded members.
	for _, tileOrder := range s.TileOrder {
		for k := 1; k < len(tileOrder); k++ {
			rs.prevExec[tileOrder[k]] = tileOrder[k-1]
		}
	}
	push := func(stack []graph.SubtaskID, id graph.SubtaskID) []graph.SubtaskID {
		stack = append(stack, s.G.Preds(id)...)
		if pe := rs.prevExec[id]; pe >= 0 {
			stack = append(stack, pe)
		}
		return stack
	}
	for _, id := range order {
		clear(rs.seen)
		stack := push(rs.stack[:0], id)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rs.seen[p] {
				continue
			}
			rs.seen[p] = true
			if rs.inSet[p] && p != id {
				rs.deps[id] = append(rs.deps[id], p)
			}
			stack = push(stack, p)
		}
		rs.stack = stack[:0]
	}
	out := rs.out[:0]
	for len(out) < m {
		progress := false
		for _, id := range order {
			if rs.emitted[id] {
				continue
			}
			ok := true
			for _, d := range rs.deps[id] {
				if !rs.emitted[d] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, id)
				rs.emitted[id] = true
				progress = true
			}
		}
		if !progress {
			// The constraints are cyclic only if the tile orders
			// contradict the graph, which Compute reports later;
			// emit the remainder unchanged.
			for _, id := range order {
				if !rs.emitted[id] {
					out = append(out, id)
				}
			}
			break
		}
	}
	copy(order, out)
	rs.out = out[:0]
}
