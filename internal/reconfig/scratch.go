package reconfig

import (
	"fmt"
	"hash/maphash"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
)

// keySeed seeds every configuration key of the process. Keys are
// compared only within one process, so a per-process seed is enough.
var keySeed = maphash.MakeSeed()

// configKey maps a configuration to its 64-bit key: 0 for the empty
// configuration, never 0 otherwise. Distinct configurations may share
// a key; every key hit is confirmed by string equality, so a collision
// costs one comparison and never changes a decision. It is a variable
// so the differential test can force collisions.
var configKey = func(c graph.ConfigID) uint64 {
	if c == "" {
		return 0
	}
	if h := maphash.String(keySeed, string(c)); h != 0 {
		return h
	}
	return 1
}

// Plan is the part of the reuse and replacement modules that depends
// only on one schedule and its criticality analysis, compiled once at
// design time: every subtask's configuration and key, and the busy
// virtual tiles split by the criticality of their first subtask, each
// group in descending first-subtask weight order. A Plan is immutable
// after NewPlan and may be shared by concurrent mappings; MapInto then
// compares integer keys against the State's key column per instance.
type Plan struct {
	s    *assign.Schedule
	subs []graph.Subtask // s.G.Subtasks(): each subtask's configuration
	key  []uint64        // per subtask, configKey of its configuration
	// first is each virtual tile's first subtask, -1 when the tile is
	// idle; crit and rest are the busy virtual tiles whose first
	// subtask is (is not) critical, by descending weight. All three
	// share one array.
	first []int32
	crit  []int32
	rest  []int32
}

// NewPlan compiles the mapping plan of s. critical reports whether a
// subtask is in the CS set (see MapOptions.Critical); nil means none
// is. The schedule must not change while the plan is in use.
func NewPlan(s *assign.Schedule, critical func(graph.SubtaskID) bool) *Plan {
	pl := &Plan{s: s, subs: s.G.Subtasks()}
	pl.key = make([]uint64, len(pl.subs))
	for i := range pl.subs {
		pl.key[i] = configKey(pl.subs[i].Config)
	}
	// Partition the busy virtual tiles by the criticality of their first
	// subtask. first takes the front of one array; the busy tiles fill
	// the back half, critical ones from its start and the rest from its
	// end, so the two groups never overlap.
	k := s.Tiles
	buf := make([]int32, 2*k)
	first, busy := buf[:k], buf[k:]
	nc, nr := 0, 0
	for v := 0; v < k; v++ {
		first[v] = -1
		if len(s.TileOrder[v]) == 0 {
			continue
		}
		id := s.TileOrder[v][0]
		first[v] = int32(id)
		if critical != nil && critical(id) {
			busy[nc] = int32(v)
			nc++
		} else {
			nr++
			busy[k-nr] = int32(v)
		}
	}
	pl.first, pl.crit, pl.rest = first, busy[:nc:nc], busy[k-nr:]
	// Insertion sort by descending first-subtask weight, ties by
	// ascending index: a total order, so the input order is irrelevant.
	byWeight := func(vs []int32) {
		for i := 1; i < len(vs); i++ {
			for j := i; j > 0; j-- {
				wa, wb := s.Weights[first[vs[j-1]]], s.Weights[first[vs[j]]]
				if wa > wb || (wa == wb && vs[j-1] < vs[j]) {
					break
				}
				vs[j-1], vs[j] = vs[j], vs[j-1]
			}
		}
	}
	byWeight(pl.crit)
	byWeight(pl.rest)
	return pl
}

// tileKeys returns st's per-tile key column, first re-keying every tile
// whose configuration is not the one its key was computed from: one
// written into Configs directly, or never keyed, as in a State built
// as a literal. A State kept through its methods is already current,
// and the check is one string comparison per tile.
func (st *State) tileKeys() []uint64 {
	if len(st.keys) != len(st.Configs) {
		st.keys = make([]uint64, len(st.Configs))
		st.keyed = make([]graph.ConfigID, len(st.Configs))
	}
	for t, c := range st.Configs {
		if c != st.keyed[t] {
			st.keys[t], st.keyed[t] = configKey(c), c
		}
	}
	return st.keys
}

// resize returns buf with length n, reallocating only when it is too
// small; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// MapScratch holds the working buffers of one mapping decision so the
// simulator's per-instance loop can place tiles without allocating. The
// Mapping returned by Plan.MapInto aliases the scratch and is valid
// until the next MapInto call on the same scratch. The zero value is
// ready to use; a MapScratch must not be shared between goroutines.
type MapScratch struct {
	physOf    []int
	taken     []bool
	initTiles []int32
	unmatched []int32
	others    []int
}

// MapInto places the plan's virtual tiles on physical tiles, as Map
// does, with caller-owned scratch buffers; the returned Mapping's
// PhysOf slice is owned by sc. opt.Critical is not consulted: the plan
// fixed criticality when it was compiled.
func (pl *Plan) MapInto(st *State, opt MapOptions, sc *MapScratch) (Mapping, error) {
	k, tiles := pl.s.Tiles, st.Tiles()
	if k > tiles {
		return Mapping{}, fmt.Errorf("reconfig: schedule needs %d tiles, platform has %d", k, tiles)
	}
	policy := opt.Policy
	if policy == nil {
		policy = LRU{}
	}

	sc.physOf = resize(sc.physOf, k)
	sc.taken = resize(sc.taken, tiles)
	m := Mapping{PhysOf: sc.physOf}
	taken, keys, lastUse := sc.taken, st.tileKeys(), st.LastUse[:tiles]
	// A restricted Allowed set is implemented by pre-claiming every
	// other tile: all the passes below (reuse matches, drain scans,
	// victim candidates, parking) already skip taken tiles, so none of
	// them can touch a tile outside the claim.
	restricted := opt.Allowed != nil
	for t := range taken {
		taken[t] = restricted
	}
	for _, t := range opt.Allowed {
		if t < 0 || t >= tiles {
			return Mapping{}, fmt.Errorf("reconfig: allowed tile %d outside platform of %d tiles", t, tiles)
		}
		taken[t] = false
	}

	// Pass 1: critical reuse matches.
	initTiles := sc.initTiles[:0]
	for _, v := range pl.crit {
		if !pl.match(st, m, taken, keys, v) {
			initTiles = append(initTiles, v)
		}
	}
	sc.initTiles = initTiles[:0]
	// Pass 2: unmatched critical subtasks need initialization loads;
	// give them the earliest-draining tiles so the inter-task window
	// can hide those loads. Empty tiles have a zero LastUse and win
	// automatically.
	for _, v := range initTiles {
		best := -1
		for t, claimed := range taken {
			if !claimed && (best < 0 || lastUse[t] < lastUse[best]) {
				best = t
			}
		}
		if best < 0 {
			return Mapping{}, fmt.Errorf("reconfig: ran out of physical tiles")
		}
		m.PhysOf[v], taken[best] = best, true
	}
	// Pass 3: non-critical reuse matches on what remains.
	unmatched := sc.unmatched[:0]
	for _, v := range pl.rest {
		if !pl.match(st, m, taken, keys, v) {
			unmatched = append(unmatched, v)
		}
	}
	sc.unmatched = unmatched[:0]
	// Pass 4: replacement policy picks victims for the rest. Empty
	// tiles are preferred outright — evicting nothing is always safe.
	// Nothing frees a tile during the pass, so the empty tiles are
	// taken in ascending order behind one cursor, and the victim
	// candidates (the free configured tiles, ascending) are listed once,
	// when the empty tiles run out, and lose each victim as it is
	// claimed.
	empty, others := 0, sc.others[:0]
	listed := false
	for _, v := range unmatched {
		for empty < tiles && (taken[empty] || keys[empty] != 0) {
			empty++
		}
		pick := empty
		if empty == tiles {
			if !listed {
				for t, c := range keys {
					if !taken[t] && c != 0 {
						others = append(others, t)
					}
				}
				listed = true
			}
			if len(others) == 0 {
				sc.others = others[:0]
				return Mapping{}, fmt.Errorf("reconfig: ran out of physical tiles")
			}
			pick = policy.Victim(st, others, opt.Future)
			for i, t := range others {
				if t == pick {
					others = others[:i+copy(others[i:], others[i+1:])]
					break
				}
			}
		}
		m.PhysOf[v], taken[pick] = pick, true
	}
	sc.others = others[:0]

	// Pass 5: park idle virtual tiles on leftovers. With the full
	// fabric available there is always a distinct leftover per idle
	// tile (k never exceeds the tile count); under a restricted claim
	// the leftovers can run out, in which case parking reuses a claimed
	// tile — parked rows are inert (they execute nothing, are never
	// committed, and their availability floor is never consulted), so
	// duplicates are harmless.
	next := 0
	for v, first := range pl.first {
		if first >= 0 {
			continue // busy: placed by the passes above
		}
		for next < tiles && taken[next] {
			next++
		}
		if next < tiles {
			m.PhysOf[v], taken[next] = next, true
		} else if len(opt.Allowed) > 0 {
			m.PhysOf[v] = opt.Allowed[0]
		} else {
			m.PhysOf[v] = 0
		}
	}
	return m, nil
}

// match claims for busy virtual tile v the lowest free physical tile
// holding v's first configuration, reporting whether there was one.
func (pl *Plan) match(st *State, m Mapping, taken []bool, keys []uint64, v int32) bool {
	first := pl.first[v]
	key := pl.key[first]
	if key == 0 {
		return false
	}
	for t, c := range keys {
		if c == key && !taken[t] && st.Configs[t] == pl.subs[first].Config {
			m.PhysOf[v], taken[t] = t, true
			return true
		}
	}
	return false
}

// ResidentInto reports, per subtask, whether its configuration is
// already on its mapped physical tile when its turn comes (see
// Resident), into res: res is resized to one entry per subtask and
// reset, reallocating only when too small. It returns res and the
// number of resident subtasks. It compares configuration strings
// directly: a resident configuration was usually committed from the
// very string the plan holds, so keys would not make the comparisons
// cheaper.
func (pl *Plan) ResidentInto(res []bool, st *State, m Mapping) ([]bool, int) {
	s := pl.s
	res = resize(res, len(pl.subs))
	clear(res)
	count := 0
	for v := 0; v < s.Tiles; v++ {
		cur := st.Configs[m.PhysOf[v]]
		for _, id := range s.TileOrder[v] {
			if cfg := pl.subs[id].Config; cfg == cur {
				res[id] = true
				count++
			} else {
				cur = cfg
			}
		}
	}
	return res, count
}

// Commit updates the state after the instance ran (see the package
// function Commit): resident is the bitset ResidentInto filled (nil
// means nothing was resident) and execEnd gives each subtask's
// execution end.
func (pl *Plan) Commit(st *State, m Mapping, resident []bool, execEnd []model.Time) {
	s := pl.s
	for v := 0; v < s.Tiles; v++ {
		phys := m.PhysOf[v]
		for _, id := range s.TileOrder[v] {
			if resident != nil && resident[id] {
				st.Touch(phys, execEnd[id])
			} else {
				st.set(phys, pl.subs[id].Config, pl.key[id], execEnd[id])
			}
		}
	}
}
