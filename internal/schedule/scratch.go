package schedule

import (
	"errors"
	"fmt"
	"slices"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// Scratch evaluates many candidate decision sets of one schedule without
// allocating. Bind compiles the static part of an Input once; Eval then
// resolves one candidate (load set, port order, floors) per call. A
// scheduler binds once per call and evaluates every candidate load order
// on the bound scratch.
//
// The Timeline returned by Eval or Compute — including all of its
// slices — is owned by the Scratch and valid only until its next Eval;
// a caller that needs a reference value (an ideal makespan) alongside a
// timeline evaluates the reference first and keeps only the numbers.
//
// A Scratch must not be shared between goroutines. The zero value is
// ready to use.
type Scratch struct {
	// Static part, compiled by Bind. g is nil while nothing is bound.
	g        *graph.Graph
	p        platform.Platform
	comm     bool              // CommDelay was set
	assign   []int             // copy of Input.Assignment
	order    []graph.SubtaskID // Input.TileOrder, flattened
	rowEnd   []int             // end offset of each TileOrder row in order
	prevExec []graph.SubtaskID // previous subtask on the same processor, -1 if first
	exec     []model.Dur       // execution time per subtask
	lat      []model.Dur       // load latency per subtask
	onISP    []bool
	// Graph predecessors in CSR form: subtask i's predecessors are
	// pred[predOff[i]:predOff[i+1]], each with the communication delay
	// of its edge.
	predOff  []int
	pred     []graph.SubtaskID
	predComm []model.Dur

	// Per-Eval state.
	mark      []bool  // validation: subtask seen on a tile / in the port order
	state     []uint8 // execution resolution: unvisited, active, done
	tl        Timeline
	loadStart []model.Time
	loadEnd   []model.Time
	loadPort  []int
	execStart []model.Time
	execEnd   []model.Time
	portFree  []model.Time
}

// Execution resolution states.
const (
	unvisited uint8 = iota
	active
	resolved
)

// errMismatch reports an Eval input whose static part is not the bound one.
var errMismatch = errors.New("schedule: input does not match the bound graph, platform, assignment or tile orders")

// Compute is Bind followed by Eval: it evaluates in into the scratch's
// reusable timeline. Semantics are identical to the package-level
// Compute; only the allocation behaviour differs.
func (sc *Scratch) Compute(in Input) (*Timeline, error) {
	if err := sc.Bind(in); err != nil {
		return nil, err
	}
	return sc.Eval(in)
}

// Bind validates and compiles the static part of in: graph, platform,
// assignment, tile orders, communication delays, execution and load
// durations. The graph must not be modified while it is bound. A failed
// Bind leaves the scratch unbound.
func (sc *Scratch) Bind(in Input) error {
	sc.g = nil
	if in.G == nil {
		return errors.New("schedule: nil graph")
	}
	if err := in.P.Validate(); err != nil {
		return err
	}
	n, procs := in.G.Len(), in.P.Processors()
	if len(in.Assignment) != n {
		return fmt.Errorf("schedule: assignment covers %d of %d subtasks", len(in.Assignment), n)
	}
	if len(in.TileOrder) > procs {
		return fmt.Errorf("schedule: %d processor orders for %d processors", len(in.TileOrder), procs)
	}
	sc.grow(n)
	seen := sc.mark
	sc.order, sc.rowEnd = sc.order[:0], sc.rowEnd[:0]
	for t, row := range in.TileOrder {
		prev := graph.SubtaskID(-1)
		for _, id := range row {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("schedule: tile %d lists unknown subtask %d", t, id)
			}
			if seen[id] {
				return fmt.Errorf("schedule: subtask %d appears on two tiles", id)
			}
			seen[id] = true
			if in.Assignment[id] != t {
				return fmt.Errorf("schedule: subtask %d ordered on tile %d but assigned to %d", id, t, in.Assignment[id])
			}
			sc.prevExec[id] = prev
			prev = id
		}
		sc.order = append(sc.order, row...)
		sc.rowEnd = append(sc.rowEnd, len(sc.order))
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("schedule: subtask %d missing from tile orders", i)
		}
	}
	for i, a := range in.Assignment {
		if a < 0 || a >= procs {
			return fmt.Errorf("schedule: subtask %d assigned to processor %d of %d", i, a, procs)
		}
		st := in.G.Subtask(graph.SubtaskID(i))
		if st.OnISP && !in.P.IsISP(a) {
			return fmt.Errorf("schedule: ISP subtask %d assigned to tile %d", i, a)
		}
		if !st.OnISP && in.P.IsISP(a) {
			return fmt.Errorf("schedule: hardware subtask %d assigned to ISP %d", i, a)
		}
		sc.exec[i], sc.lat[i], sc.onISP[i] = st.Exec, in.P.LoadLatency(st.Load), st.OnISP
	}
	copy(sc.assign, in.Assignment)

	edges := in.G.Edges()
	clear(sc.predOff)
	for _, e := range edges {
		sc.predOff[e.To+1]++
	}
	for i := 0; i < n; i++ {
		sc.predOff[i+1] += sc.predOff[i]
	}
	sc.pred = slices.Grow(sc.pred[:0], len(edges))[:len(edges)]
	sc.predComm = slices.Grow(sc.predComm[:0], len(edges))[:len(edges)]
	// Fill each row from its end, then shift the offsets back: the
	// decrement leaves predOff[i] at row i's start.
	for k := len(edges) - 1; k >= 0; k-- {
		e := edges[k]
		sc.predOff[e.To+1]--
		at := sc.predOff[e.To+1]
		sc.pred[at] = e.From
		sc.predComm[at] = 0
		if in.CommDelay != nil {
			sc.predComm[at] = in.CommDelay(e, in.Assignment[e.From], in.Assignment[e.To])
		}
	}
	copy(sc.predOff, sc.predOff[1:])
	sc.predOff[n] = len(edges)

	sc.g, sc.p, sc.comm = in.G, in.P, in.CommDelay != nil
	return nil
}

// grow sizes the per-subtask buffers for n subtasks and resets the
// validation marks.
func (sc *Scratch) grow(n int) {
	if cap(sc.predOff) < n+1 {
		sc.mark = make([]bool, n)
		sc.state = make([]uint8, n)
		sc.assign = make([]int, n)
		sc.prevExec = make([]graph.SubtaskID, n)
		sc.exec = make([]model.Dur, n)
		sc.lat = make([]model.Dur, n)
		sc.onISP = make([]bool, n)
		sc.predOff = make([]int, n+1)
		sc.loadStart = make([]model.Time, n)
		sc.loadEnd = make([]model.Time, n)
		sc.loadPort = make([]int, n)
		sc.execStart = make([]model.Time, n)
		sc.execEnd = make([]model.Time, n)
	}
	sc.mark, sc.state, sc.assign = sc.mark[:n], sc.state[:n], sc.assign[:n]
	sc.prevExec, sc.exec, sc.lat, sc.onISP = sc.prevExec[:n], sc.exec[:n], sc.lat[:n], sc.onISP[:n]
	sc.predOff = sc.predOff[:n+1]
	sc.loadStart, sc.loadEnd, sc.loadPort = sc.loadStart[:n], sc.loadEnd[:n], sc.loadPort[:n]
	sc.execStart, sc.execEnd = sc.execStart[:n], sc.execEnd[:n]
	clear(sc.mark)
}

// sameStatic reports whether in's static part is the bound one. Of the
// platform only the fields the timeline depends on count.
func (sc *Scratch) sameStatic(in *Input) bool {
	p := in.P
	if sc.g == nil || in.G != sc.g || p.Tiles != sc.p.Tiles || p.ISPs != sc.p.ISPs || p.Ports != sc.p.Ports ||
		p.ReconfigLatency != sc.p.ReconfigLatency || (in.CommDelay != nil) != sc.comm ||
		!slices.Equal(in.Assignment, sc.assign) || len(in.TileOrder) != len(sc.rowEnd) {
		return false
	}
	from := 0
	for t, row := range in.TileOrder {
		if !slices.Equal(row, sc.order[from:sc.rowEnd[t]]) {
			return false
		}
		from = sc.rowEnd[t]
	}
	return true
}

// Eval evaluates one candidate on the bound schedule: it validates the
// dynamic part of in (NeedLoad, PortOrder, TileFree and PortFree) and
// returns the timeline, owned by the scratch. It fails if in's static
// part is not the bound one, if the dynamic part is malformed, or if the
// decision orders are mutually inconsistent (cyclic).
func (sc *Scratch) Eval(in Input) (*Timeline, error) {
	if !sc.sameStatic(&in) {
		return nil, errMismatch
	}
	if err := sc.checkDynamic(&in); err != nil {
		return nil, err
	}
	n := len(sc.exec)
	tl := &sc.tl
	*tl = Timeline{
		LoadStart: sc.loadStart,
		LoadEnd:   sc.loadEnd,
		LoadPort:  sc.loadPort,
		ExecStart: sc.execStart,
		ExecEnd:   sc.execEnd,
		Start:     in.ExecFloor,
	}
	for i := 0; i < n; i++ {
		tl.LoadStart[i], tl.LoadEnd[i], tl.LoadPort[i] = NoEvent, NoEvent, -1
		sc.state[i] = unvisited
	}
	if cap(sc.portFree) < sc.p.Ports {
		sc.portFree = make([]model.Time, sc.p.Ports)
	}
	portFree := sc.portFree[:sc.p.Ports]
	for p := range portFree {
		portFree[p] = in.LoadFloor
		if in.PortFree != nil {
			portFree[p] = model.MaxT(portFree[p], in.PortFree[p])
		}
	}
	// Loads resolve in port order, which the no-overtaking chain forces
	// anyway, so each picks its controller exactly as issued.
	tl.LastLoadEnd = in.LoadFloor
	for k, id := range in.PortOrder {
		bound := in.LoadFloor
		if in.LoadEarliest != nil && in.LoadEarliest[id] > 0 {
			bound = model.MaxT(bound, in.LoadEarliest[id])
		}
		if k > 0 {
			bound = model.MaxT(bound, tl.LoadStart[in.PortOrder[k-1]])
		}
		// Reconfiguring destroys the tile's contents: wait for the
		// previous execution on it, or for the tile to drain.
		t, ok := sc.tileReady(&in, id)
		if !ok {
			return nil, sc.errCycle()
		}
		bound = model.MaxT(bound, t)
		if in.OnDemand {
			for _, p := range sc.pred[sc.predOff[id]:sc.predOff[id+1]] {
				if !sc.resolve(&in, p) {
					return nil, sc.errCycle()
				}
				bound = model.MaxT(bound, tl.ExecEnd[p])
			}
		}
		best := 0 // earliest-free controller; FIFO dispatch
		for p := 1; p < len(portFree); p++ {
			if portFree[p] < portFree[best] {
				best = p
			}
		}
		start := model.MaxT(bound, portFree[best])
		tl.LoadStart[id] = start
		tl.LoadEnd[id] = start.Add(sc.lat[id])
		tl.LoadPort[id] = best
		portFree[best] = tl.LoadEnd[id]
		tl.LastLoadEnd = model.MaxT(tl.LastLoadEnd, tl.LoadEnd[id])
	}
	for i := 0; i < n; i++ {
		if !sc.resolve(&in, graph.SubtaskID(i)) {
			return nil, sc.errCycle()
		}
	}
	tl.End = model.MaxT(tl.End, in.ExecFloor)
	tl.PortFreeAfter = portFree
	return tl, nil
}

// tileReady is when subtask i's processor is free for it: the end of
// the previous execution there (resolving it first), or the processor's
// drain time when i runs first on it (nil TileFree means time zero). It
// reports false on a constraint cycle.
func (sc *Scratch) tileReady(in *Input, i graph.SubtaskID) (model.Time, bool) {
	prev := sc.prevExec[i]
	if prev < 0 {
		if in.TileFree == nil {
			return 0, true
		}
		return in.TileFree[sc.assign[i]], true
	}
	if !sc.resolve(in, prev) {
		return 0, false
	}
	return sc.tl.ExecEnd[prev], true
}

// errCycle is the error every constraint cycle reports.
func (sc *Scratch) errCycle() error {
	return fmt.Errorf("schedule: inconsistent decision orders (constraint cycle) in %q", sc.g.Name)
}

// resolve fixes the execution window of subtask i once everything it
// waits for is fixed: its own load, the previous execution on its
// processor (or the processor's drain time) and its graph predecessors
// plus their communication delays. It reports false on a constraint
// cycle: i is still being resolved further up the walk, or its load has
// not been issued yet (the load being issued waits on i).
func (sc *Scratch) resolve(in *Input, i graph.SubtaskID) bool {
	switch sc.state[i] {
	case resolved:
		return true
	case active:
		return false
	}
	tl := &sc.tl
	bound := in.ExecFloor
	if in.NeedLoad[i] {
		if tl.LoadPort[i] < 0 {
			return false
		}
		bound = model.MaxT(bound, tl.LoadEnd[i])
	}
	sc.state[i] = active
	t, ok := sc.tileReady(in, i)
	if !ok {
		return false
	}
	bound = model.MaxT(bound, t)
	for k := sc.predOff[i]; k < sc.predOff[i+1]; k++ {
		p := sc.pred[k]
		if !sc.resolve(in, p) {
			return false
		}
		bound = model.MaxT(bound, tl.ExecEnd[p].Add(sc.predComm[k]))
	}
	tl.ExecStart[i] = bound
	tl.ExecEnd[i] = bound.Add(sc.exec[i])
	tl.End = model.MaxT(tl.End, tl.ExecEnd[i])
	sc.state[i] = resolved
	return true
}

// checkDynamic validates the per-candidate part of in against the bound
// schedule.
func (sc *Scratch) checkDynamic(in *Input) error {
	n, procs := len(sc.exec), sc.p.Processors()
	if len(in.NeedLoad) != n {
		return fmt.Errorf("schedule: needLoad covers %d of %d subtasks", len(in.NeedLoad), n)
	}
	if in.TileFree != nil && len(in.TileFree) != procs {
		return fmt.Errorf("schedule: tileFree covers %d of %d processors", len(in.TileFree), procs)
	}
	if in.PortFree != nil && len(in.PortFree) != sc.p.Ports {
		return fmt.Errorf("schedule: portFree covers %d of %d ports", len(in.PortFree), sc.p.Ports)
	}
	for i, need := range in.NeedLoad {
		if need && sc.onISP[i] {
			return fmt.Errorf("schedule: ISP subtask %d cannot be loaded", i)
		}
	}
	inPort := sc.mark
	clear(inPort)
	for _, id := range in.PortOrder {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("schedule: port order lists unknown subtask %d", id)
		}
		if inPort[id] {
			return fmt.Errorf("schedule: subtask %d loaded twice", id)
		}
		inPort[id] = true
	}
	for i, need := range in.NeedLoad {
		if need != inPort[i] {
			return fmt.Errorf("schedule: subtask %d needLoad=%v but portOrder presence=%v", i, need, inPort[i])
		}
	}
	return nil
}
