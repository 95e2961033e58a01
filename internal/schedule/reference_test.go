package schedule

import (
	"errors"
	"fmt"

	"drhwsched/internal/graph"
	"drhwsched/internal/model"
)

// This file keeps the original timeline evaluator — a 2N-node
// constraint DAG (one execution node per subtask, one load node per
// loaded subtask) resolved by Kahn's algorithm — as a test-only
// reference. The differential tests pin Scratch.Bind/Eval to it.

const (
	refExec = 0
	refLoad = 1
)

type refNode struct {
	kind int
	id   graph.SubtaskID
}

// refConstraint: start(to) ≥ (fromEnd ? end(from) : start(from)) + delay.
type refConstraint struct {
	from    refNode
	fromEnd bool
	delay   model.Dur
}

// refCompute evaluates in with the constraint DAG and returns a fresh
// timeline, or the error the evaluator reported.
func refCompute(in Input) (*Timeline, error) {
	if in.G == nil {
		return nil, errors.New("schedule: nil graph")
	}
	if err := in.P.Validate(); err != nil {
		return nil, err
	}
	n := in.G.Len()
	if err := refCheckInput(in, make([]bool, n), make([]bool, n)); err != nil {
		return nil, err
	}

	idx := func(r refNode) int { return int(r.id)*2 + r.kind }
	cons := make([][]refConstraint, 2*n)
	out := make([][]refNode, 2*n)
	exists := make([]bool, 2*n)
	indeg := make([]int, 2*n)
	add := func(to refNode, c refConstraint) { cons[idx(to)] = append(cons[idx(to)], c) }

	for i := 0; i < n; i++ {
		exists[idx(refNode{refExec, graph.SubtaskID(i)})] = true
		if in.NeedLoad[i] {
			exists[idx(refNode{refLoad, graph.SubtaskID(i)})] = true
		}
	}
	for _, e := range in.G.Edges() {
		var comm model.Dur
		if in.CommDelay != nil {
			comm = in.CommDelay(e, in.Assignment[e.From], in.Assignment[e.To])
		}
		add(refNode{refExec, e.To}, refConstraint{refNode{refExec, e.From}, true, comm})
		if in.OnDemand && in.NeedLoad[e.To] {
			add(refNode{refLoad, e.To}, refConstraint{refNode{refExec, e.From}, true, 0})
		}
	}
	for i := 0; i < n; i++ {
		id := graph.SubtaskID(i)
		if in.NeedLoad[id] {
			add(refNode{refExec, id}, refConstraint{refNode{refLoad, id}, true, 0})
		}
	}
	for _, order := range in.TileOrder {
		for k := 1; k < len(order); k++ {
			cur, prev := order[k], order[k-1]
			add(refNode{refExec, cur}, refConstraint{refNode{refExec, prev}, true, 0})
			if in.NeedLoad[cur] {
				add(refNode{refLoad, cur}, refConstraint{refNode{refExec, prev}, true, 0})
			}
		}
	}
	for k := 1; k < len(in.PortOrder); k++ {
		add(refNode{refLoad, in.PortOrder[k]}, refConstraint{refNode{refLoad, in.PortOrder[k-1]}, false, 0})
	}

	for to := 0; to < 2*n; to++ {
		if !exists[to] {
			continue
		}
		for _, c := range cons[to] {
			fi := idx(c.from)
			if !exists[fi] {
				return nil, fmt.Errorf("schedule: constraint from nonexistent node %v", c.from)
			}
			indeg[to]++
			out[fi] = append(out[fi], refNode{to % 2, graph.SubtaskID(to / 2)})
		}
	}

	tl := &Timeline{
		LoadStart: make([]model.Time, n),
		LoadEnd:   make([]model.Time, n),
		LoadPort:  make([]int, n),
		ExecStart: make([]model.Time, n),
		ExecEnd:   make([]model.Time, n),
		Start:     in.ExecFloor,
	}
	for i := 0; i < n; i++ {
		tl.LoadStart[i], tl.LoadEnd[i], tl.LoadPort[i] = NoEvent, NoEvent, -1
	}
	portFree := make([]model.Time, in.P.Ports)
	for p := range portFree {
		portFree[p] = in.LoadFloor
		if in.PortFree != nil {
			portFree[p] = model.MaxT(portFree[p], in.PortFree[p])
		}
	}
	tileFloor := func(t int) model.Time {
		if in.TileFree == nil {
			return 0
		}
		return in.TileFree[t]
	}
	startOf := func(r refNode) model.Time {
		if r.kind == refExec {
			return tl.ExecStart[r.id]
		}
		return tl.LoadStart[r.id]
	}
	endOf := func(r refNode) model.Time {
		if r.kind == refExec {
			return tl.ExecEnd[r.id]
		}
		return tl.LoadEnd[r.id]
	}
	firstOnTile := make([]bool, n)
	for _, order := range in.TileOrder {
		if len(order) > 0 {
			firstOnTile[order[0]] = true
		}
	}

	var ready []refNode
	total := 0
	for i := 0; i < 2*n; i++ {
		if exists[i] {
			total++
			if indeg[i] == 0 {
				ready = append(ready, refNode{i % 2, graph.SubtaskID(i / 2)})
			}
		}
	}
	done := 0
	tl.LastLoadEnd = in.LoadFloor
	for len(ready) > 0 {
		r := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++

		var bound model.Time
		if r.kind == refExec {
			bound = in.ExecFloor
		} else {
			bound = in.LoadFloor
			if in.LoadEarliest != nil && in.LoadEarliest[r.id] > 0 {
				bound = model.MaxT(bound, in.LoadEarliest[r.id])
			}
		}
		if firstOnTile[r.id] {
			bound = model.MaxT(bound, tileFloor(in.Assignment[r.id]))
		}
		for _, c := range cons[idx(r)] {
			if c.fromEnd {
				bound = model.MaxT(bound, endOf(c.from).Add(c.delay))
			} else {
				bound = model.MaxT(bound, startOf(c.from).Add(c.delay))
			}
		}

		if r.kind == refExec {
			tl.ExecStart[r.id] = bound
			tl.ExecEnd[r.id] = bound.Add(in.G.Subtask(r.id).Exec)
			tl.End = model.MaxT(tl.End, tl.ExecEnd[r.id])
		} else {
			best := 0
			for p := 1; p < len(portFree); p++ {
				if portFree[p] < portFree[best] {
					best = p
				}
			}
			start := model.MaxT(bound, portFree[best])
			tl.LoadStart[r.id] = start
			tl.LoadEnd[r.id] = start.Add(in.P.LoadLatency(in.G.Subtask(r.id).Load))
			tl.LoadPort[r.id] = best
			portFree[best] = tl.LoadEnd[r.id]
			tl.LastLoadEnd = model.MaxT(tl.LastLoadEnd, tl.LoadEnd[r.id])
		}
		for _, s := range out[idx(r)] {
			si := idx(s)
			indeg[si]--
			if indeg[si] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if done != total {
		return nil, fmt.Errorf("schedule: inconsistent decision orders (constraint cycle) in %q", in.G.Name)
	}
	tl.End = model.MaxT(tl.End, in.ExecFloor)
	tl.PortFreeAfter = portFree
	return tl, nil
}

// refCheckInput is the original single-pass input validation. seen and
// inPort are all-false buffers of length G.Len().
func refCheckInput(in Input, seen, inPort []bool) error {
	n := in.G.Len()
	if len(in.Assignment) != n {
		return fmt.Errorf("schedule: assignment covers %d of %d subtasks", len(in.Assignment), n)
	}
	if len(in.NeedLoad) != n {
		return fmt.Errorf("schedule: needLoad covers %d of %d subtasks", len(in.NeedLoad), n)
	}
	if len(in.TileOrder) > in.P.Processors() {
		return fmt.Errorf("schedule: %d processor orders for %d processors", len(in.TileOrder), in.P.Processors())
	}
	if in.TileFree != nil && len(in.TileFree) != in.P.Processors() {
		return fmt.Errorf("schedule: tileFree covers %d of %d processors", len(in.TileFree), in.P.Processors())
	}
	if in.PortFree != nil && len(in.PortFree) != in.P.Ports {
		return fmt.Errorf("schedule: portFree covers %d of %d ports", len(in.PortFree), in.P.Ports)
	}
	for t, order := range in.TileOrder {
		for _, id := range order {
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
		}
	}
	for i := range seen {
		if !seen[i] {
			return fmt.Errorf("schedule: subtask %d missing from tile orders", i)
		}
	}
	for i := 0; i < n; i++ {
		a := in.Assignment[i]
		if a < 0 || a >= in.P.Processors() {
			return fmt.Errorf("schedule: subtask %d assigned to processor %d of %d", i, a, in.P.Processors())
		}
		onISP := in.G.Subtask(graph.SubtaskID(i)).OnISP
		if onISP && !in.P.IsISP(a) {
			return fmt.Errorf("schedule: ISP subtask %d assigned to tile %d", i, a)
		}
		if !onISP && in.P.IsISP(a) {
			return fmt.Errorf("schedule: hardware subtask %d assigned to ISP %d", i, a)
		}
		if onISP && in.NeedLoad[i] {
			return fmt.Errorf("schedule: ISP subtask %d cannot be loaded", i)
		}
	}
	for _, id := range in.PortOrder {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("schedule: port order lists unknown subtask %d", id)
		}
		if inPort[id] {
			return fmt.Errorf("schedule: subtask %d loaded twice", id)
		}
		inPort[id] = true
	}
	for i := 0; i < n; i++ {
		if in.NeedLoad[i] != inPort[i] {
			return fmt.Errorf("schedule: subtask %d needLoad=%v but portOrder presence=%v", i, in.NeedLoad[i], inPort[i])
		}
	}
	return nil
}
