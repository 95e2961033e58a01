package core

import (
	"fmt"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/schedule"
)

// ExecScratch holds the buffers one hybrid run-time evaluation needs,
// so the simulator replays stored schedules without allocating. The
// RunResult returned by ExecuteScratch — its plan slices, init windows
// and Timeline included — is owned by the scratch and valid until the
// next ExecuteScratch call on it. The zero value is ready to use; an
// ExecScratch must not be shared between goroutines.
type ExecScratch struct {
	eval     schedule.Scratch // evaluates the stored schedule
	need     []bool
	tileFree []model.Time
	res      RunResult
}

// planInto is Plan writing into a caller-owned InstancePlan whose
// slices are reset and reused.
func (a *Analysis) planInto(p *InstancePlan, resident func(graph.SubtaskID) bool) {
	p.InitLoads = p.InitLoads[:0]
	p.BodyLoads = p.BodyLoads[:0]
	p.Cancelled = p.Cancelled[:0]
	p.ReusedCritical = p.ReusedCritical[:0]
	for _, id := range a.CS {
		if resident != nil && resident(id) {
			p.ReusedCritical = append(p.ReusedCritical, id)
		} else {
			p.InitLoads = append(p.InitLoads, id)
		}
	}
	for _, id := range a.BodyOrder {
		if resident != nil && resident(id) {
			p.Cancelled = append(p.Cancelled, id)
		} else {
			p.BodyLoads = append(p.BodyLoads, id)
		}
	}
}

// ExecuteScratch is Execute on reusable buffers; the returned RunResult
// and everything it references are owned by sc. prog, when not nil, is
// the stored schedule's schedule.Program (see Analysis.Program),
// compiled once at design time; nil compiles one per call.
func (a *Analysis) ExecuteScratch(rb RunBounds, resident func(graph.SubtaskID) bool, prog *schedule.Program, sc *ExecScratch) (*RunResult, error) {
	r := &sc.res
	a.planInto(&r.Plan, resident)
	r.InitWindows = r.InitWindows[:0]

	// Initialization phase: serialized loads in stored order. Each
	// waits for the circuitry and for its target tile to drain.
	cur := rb.PortFree
	rows := len(a.Sched.TileOrder)
	if cap(sc.tileFree) < rows {
		sc.tileFree = make([]model.Time, rows)
	}
	tileFree := sc.tileFree[:rows]
	for i := range tileFree {
		tileFree[i] = 0
	}
	if rb.TileFree != nil {
		copy(tileFree, rb.TileFree)
	}
	r.InitEnd = cur
	for _, id := range r.Plan.InitLoads {
		t := a.Sched.Assignment[id]
		start := model.MaxT(cur, tileFree[t])
		lat := a.P.LoadLatency(a.Sched.G.Subtask(id).Load)
		end := start.Add(lat)
		r.InitWindows = append(r.InitWindows, LoadWindow{id, start, end})
		tileFree[t] = end
		cur = end
		r.InitEnd = end
	}
	r.BodyStart = model.MaxT(rb.TaskStart, r.InitEnd)

	// Ideal reference: the stored decisions with no loads, starting at
	// TaskStart with the tiles as the previous task left them. It is
	// evaluated first so the body timeline stays live in the scratch.
	n := a.Sched.G.Len()
	if cap(sc.need) < n {
		sc.need = make([]bool, n)
	}
	in := a.Sched.EngineInputNeed(a.P, nil, sc.need[:n])
	in.ExecFloor = rb.TaskStart
	in.LoadFloor = model.MaxT(rb.PortFree, r.InitEnd)
	in.TileFree = rb.TileFree
	if prog != nil {
		sc.eval.Use(prog)
	} else if err := sc.eval.Bind(&in); err != nil {
		return nil, fmt.Errorf("core: body schedule: %w", err)
	}
	idealTL, err := sc.eval.Eval(&in)
	if err != nil {
		return nil, fmt.Errorf("core: ideal reference: %w", err)
	}
	r.Ideal = idealTL.End.Sub(rb.TaskStart)

	// Body: the design-time schedule with reused loads cancelled. The
	// critical subtasks are resident by construction now.
	for _, id := range r.Plan.BodyLoads {
		in.NeedLoad[id] = true
	}
	in.PortOrder = r.Plan.BodyLoads
	in.ExecFloor = r.BodyStart
	in.TileFree = tileFree
	tl, err := sc.eval.Eval(&in)
	if err != nil {
		return nil, fmt.Errorf("core: body schedule: %w", err)
	}
	r.Timeline = tl

	r.Makespan = tl.End.Sub(rb.TaskStart)
	r.Overhead = r.Makespan - r.Ideal
	r.PortFreeAfter = model.MaxT(r.InitEnd, tl.LastLoadEnd)
	return r, nil
}

// Program compiles the stored schedule's static part for
// ExecuteScratch: the design-time half of every run-time replay.
func (a *Analysis) Program() (*schedule.Program, error) {
	in := a.Sched.EngineInput(a.P, nil)
	return schedule.Compile(&in)
}
