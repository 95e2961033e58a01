package schedule

import (
	"errors"
	"fmt"
	"slices"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// Program is the compiled static part of an Input: the graph,
// platform, assignment, tile orders and communication delays a
// scheduler never varies between candidates. Compile builds one; it is
// immutable afterwards, so one Program may be shared by any number of
// Scratches, concurrently. It keeps every index column in one int32
// array, so a Program costs a few small allocations however large the
// graph. Execution and load durations are read from the graph, which
// must not be modified while a Program of it is in use.
type Program struct {
	g    *graph.Graph // nil for a Program that failed to compile
	p    platform.Platform
	comm bool // CommDelay was set
	rows int  // len(TileOrder)

	// ints holds the index columns (see cols); predComm is the
	// communication delay of each entry of the pred column, empty
	// without a CommDelay.
	ints     []int32
	predComm []model.Dur

	cycle *cycleError // the error every constraint cycle reports
}

// cols is a Program's columns, sliced out of its storage. Subtask i's
// graph predecessors are pred[predOff[i]:predOff[i+1]]; prevExec is
// the previous subtask on the same processor, -1 if first; order is
// the TileOrder rows flattened and rowEnd each row's end offset in it.
type cols struct {
	subs     []graph.Subtask
	assign   []int32
	order    []int32
	prevExec []int32
	predOff  []int32
	rowEnd   []int32
	pred     []int32
}

// carve slices the columns of g's Program with rows tile orders out of
// ints, which holds 4n+1+rows index entries and then the pred column.
func (c *cols) carve(g *graph.Graph, rows int, ints []int32) {
	n := g.Len()
	next := func(k int) []int32 {
		col := ints[:k:k]
		ints = ints[k:]
		return col
	}
	c.subs = g.Subtasks()
	c.assign, c.order, c.prevExec = next(n), next(n), next(n)
	c.predOff, c.rowEnd = next(n+1), next(rows)
	c.pred = ints
}

// cycleError reports inconsistent decision orders. A Program holds its
// own, so a scheduler rejecting a cyclic candidate allocates nothing;
// recompiling a Program replaces it, so errors already returned keep
// their text.
type cycleError struct{ name string }

func (e *cycleError) Error() string {
	return fmt.Sprintf("schedule: inconsistent decision orders (constraint cycle) in %q", e.name)
}

// Scratch evaluates many candidate decision sets of one schedule without
// allocating. Its static part is a Program: Use points the scratch at a
// shared, precompiled one in O(1), and Bind compiles in's static part
// into the scratch's own. Eval then resolves one candidate (load set,
// port order, floors) per call. A scheduler binds once per call, or
// uses the Program its caller compiled at design time, and evaluates
// every candidate load order on the scratch.
//
// The Timeline returned by Eval or Compute — including all of its
// slices — is owned by the Scratch and valid only until its next Eval;
// a caller that needs a reference value (an ideal
// makespan) alongside a timeline evaluates the reference first and
// keeps only the numbers.
//
// A Scratch must not be shared between goroutines. The zero value is
// ready to use.
type Scratch struct {
	prog *Program // nil while nothing is bound
	cols          // prog's columns
	own  Program  // Bind's compile target

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
	if err := sc.Bind(&in); err != nil {
		return nil, err
	}
	return sc.Eval(&in)
}

// Compile validates and compiles the static part of in: graph,
// platform, assignment, tile orders and communication delays.
func Compile(in *Input) (*Program, error) {
	pg := new(Program)
	if err := pg.compile(in, nil); err != nil {
		return nil, err
	}
	return pg, nil
}

// Use binds prog, compiled earlier by Compile, to the scratch. It is
// O(1): the scratch slices prog's columns and keeps a reference, so
// prog must outlive its use. A nil prog unbinds.
func (sc *Scratch) Use(prog *Program) {
	if prog == sc.prog {
		return // already in use: a compiled Program never changes
	}
	sc.prog = prog
	if prog == nil {
		sc.cols = cols{}
		return
	}
	sc.cols.carve(prog.g, prog.rows, prog.ints)
	sc.grow(len(sc.subs))
}

// Bind compiles in's static part into the scratch's own Program and
// binds it, as Compile then Use would, reusing the scratch's buffers.
// A failed Bind leaves the scratch unbound.
func (sc *Scratch) Bind(in *Input) error {
	sc.Use(nil)
	if in.G != nil {
		sc.grow(in.G.Len())
		clear(sc.mark)
	}
	if err := sc.own.compile(in, sc.mark); err != nil {
		return err
	}
	sc.Use(&sc.own)
	return nil
}

// compile validates in's static part and compiles it into pg, reusing
// pg's buffers. seen is a cleared working buffer of one entry per
// subtask, or nil to allocate one. On error pg is left invalid (nil
// graph).
func (pg *Program) compile(in *Input, seen []bool) error {
	pg.g = nil
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
	if seen == nil {
		seen = make([]bool, n)
	}
	edges := in.G.Edges()
	if need := 4*n + 1 + len(in.TileOrder) + len(edges); cap(pg.ints) < need {
		pg.ints = make([]int32, need)
	} else {
		pg.ints = pg.ints[:need]
	}
	var c cols
	c.carve(in.G, len(in.TileOrder), pg.ints)
	at := 0
	for t, row := range in.TileOrder {
		prev := int32(-1)
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
			c.prevExec[id] = prev
			prev = int32(id)
			c.order[at] = int32(id)
			at++
		}
		c.rowEnd[t] = int32(at)
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
		st := &c.subs[i]
		if st.OnISP && !in.P.IsISP(a) {
			return fmt.Errorf("schedule: ISP subtask %d assigned to tile %d", i, a)
		}
		if !st.OnISP && in.P.IsISP(a) {
			return fmt.Errorf("schedule: hardware subtask %d assigned to ISP %d", i, a)
		}
		c.assign[i] = int32(a)
	}

	pg.predComm = pg.predComm[:0]
	if in.CommDelay != nil {
		pg.predComm = slices.Grow(pg.predComm, len(edges))[:len(edges)]
	}
	clear(c.predOff)
	for _, e := range edges {
		c.predOff[e.To+1]++
	}
	for i := 0; i < n; i++ {
		c.predOff[i+1] += c.predOff[i]
	}
	// Fill each row from its end, then shift the offsets back: the
	// decrement leaves predOff[i] at row i's start.
	for k := len(edges) - 1; k >= 0; k-- {
		e := edges[k]
		c.predOff[e.To+1]--
		at := c.predOff[e.To+1]
		c.pred[at] = int32(e.From)
		if in.CommDelay != nil {
			pg.predComm[at] = in.CommDelay(e, in.Assignment[e.From], in.Assignment[e.To])
		}
	}
	copy(c.predOff, c.predOff[1:])
	c.predOff[n] = int32(len(edges))

	pg.g, pg.p, pg.comm, pg.rows = in.G, in.P, in.CommDelay != nil, len(in.TileOrder)
	pg.cycle = &cycleError{name: in.G.Name}
	return nil
}

// grow sizes the per-Eval buffers for n subtasks.
func (sc *Scratch) grow(n int) {
	if cap(sc.mark) < n {
		sc.mark = make([]bool, n)
		sc.state = make([]uint8, n)
		sc.loadStart = make([]model.Time, n)
		sc.loadEnd = make([]model.Time, n)
		sc.loadPort = make([]int, n)
		sc.execStart = make([]model.Time, n)
		sc.execEnd = make([]model.Time, n)
	}
	sc.mark, sc.state = sc.mark[:n], sc.state[:n]
	sc.loadStart, sc.loadEnd, sc.loadPort = sc.loadStart[:n], sc.loadEnd[:n], sc.loadPort[:n]
	sc.execStart, sc.execEnd = sc.execStart[:n], sc.execEnd[:n]
}

// sameStatic reports whether in's static part is the bound one. Of the
// platform only the fields the timeline depends on count.
func (sc *Scratch) sameStatic(in *Input) bool {
	pg, p := sc.prog, in.P
	if pg == nil || pg.g == nil || in.G != pg.g || p.Tiles != pg.p.Tiles || p.ISPs != pg.p.ISPs || p.Ports != pg.p.Ports ||
		p.ReconfigLatency != pg.p.ReconfigLatency || (in.CommDelay != nil) != pg.comm ||
		len(in.Assignment) != len(sc.assign) || len(in.TileOrder) != len(sc.rowEnd) {
		return false
	}
	for i, a := range in.Assignment {
		if a != int(sc.assign[i]) {
			return false
		}
	}
	from := int32(0)
	for t, row := range in.TileOrder {
		want := sc.order[from:sc.rowEnd[t]]
		if len(row) != len(want) {
			return false
		}
		for j, id := range row {
			if id != graph.SubtaskID(want[j]) {
				return false
			}
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
func (sc *Scratch) Eval(in *Input) (*Timeline, error) {
	if !sc.sameStatic(in) {
		return nil, errMismatch
	}
	pg := sc.prog
	n := len(sc.subs)
	if err := sc.checkDynamic(in); err != nil {
		return nil, err
	}
	tl := &sc.tl
	tl.LoadStart, tl.LoadEnd, tl.LoadPort = sc.loadStart, sc.loadEnd, sc.loadPort
	tl.ExecStart, tl.ExecEnd = sc.execStart, sc.execEnd
	tl.Start, tl.End, tl.LastLoadEnd, tl.PortFreeAfter = in.ExecFloor, 0, 0, nil
	for i := 0; i < n; i++ {
		tl.LoadStart[i], tl.LoadEnd[i], tl.LoadPort[i] = NoEvent, NoEvent, -1
		sc.state[i] = unvisited
	}
	if cap(sc.portFree) < pg.p.Ports {
		sc.portFree = make([]model.Time, pg.p.Ports)
	}
	portFree := sc.portFree[:pg.p.Ports]
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
		t, ok := sc.tileReady(in, id)
		if !ok {
			return nil, pg.cycle
		}
		bound = model.MaxT(bound, t)
		if in.OnDemand {
			for _, p := range sc.pred[sc.predOff[id]:sc.predOff[id+1]] {
				if !sc.resolve(in, graph.SubtaskID(p)) {
					return nil, pg.cycle
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
		tl.LoadEnd[id] = start.Add(pg.p.LoadLatency(sc.subs[id].Load))
		tl.LoadPort[id] = best
		portFree[best] = tl.LoadEnd[id]
		tl.LastLoadEnd = model.MaxT(tl.LastLoadEnd, tl.LoadEnd[id])
	}
	for i := 0; i < n; i++ {
		if !sc.resolve(in, graph.SubtaskID(i)) {
			return nil, pg.cycle
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
	prev := graph.SubtaskID(sc.prevExec[i])
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
	predComm, tl := sc.prog.predComm, &sc.tl
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
		p := graph.SubtaskID(sc.pred[k])
		if !sc.resolve(in, p) {
			return false
		}
		end := tl.ExecEnd[p]
		if len(predComm) != 0 {
			end = end.Add(predComm[k])
		}
		bound = model.MaxT(bound, end)
	}
	tl.ExecStart[i] = bound
	tl.ExecEnd[i] = bound.Add(sc.subs[i].Exec)
	tl.End = model.MaxT(tl.End, tl.ExecEnd[i])
	sc.state[i] = resolved
	return true
}

// checkDynamic validates the per-candidate part of in against the bound
// schedule.
func (sc *Scratch) checkDynamic(in *Input) error {
	n, p := len(sc.subs), sc.prog.p
	if len(in.NeedLoad) != n {
		return fmt.Errorf("schedule: needLoad covers %d of %d subtasks", len(in.NeedLoad), n)
	}
	if in.TileFree != nil && len(in.TileFree) != p.Processors() {
		return fmt.Errorf("schedule: tileFree covers %d of %d processors", len(in.TileFree), p.Processors())
	}
	if in.PortFree != nil && len(in.PortFree) != p.Ports {
		return fmt.Errorf("schedule: portFree covers %d of %d ports", len(in.PortFree), p.Ports)
	}
	for i, need := range in.NeedLoad {
		if need && sc.subs[i].OnISP {
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
