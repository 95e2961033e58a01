package reconfig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/platform"
)

// This file keeps the string-comparing placement the keyed Plan
// replaced, exactly as it ran before configurations were matched by
// key, as an executable reference. Residency and commit keep their
// string-comparing form in the single-shot Resident and Commit, which
// serve as their reference. TestPlanMatchesStringReference pins the
// keyed path to all three.

// refMapInto places s's virtual tiles by scanning configuration strings
// on every pass, recomputing the busy-tile order and the victim
// candidates per instance.
func refMapInto(s *assign.Schedule, st *State, opt MapOptions) (Mapping, error) {
	k := s.Tiles
	if k > st.Tiles() {
		return Mapping{}, fmt.Errorf("reconfig: schedule needs %d tiles, platform has %d", k, st.Tiles())
	}
	policy := opt.Policy
	if policy == nil {
		policy = LRU{}
	}
	m := Mapping{PhysOf: make([]int, k)}
	taken := make([]bool, st.Tiles())
	for v := range m.PhysOf {
		m.PhysOf[v] = -1
	}
	for t := range taken {
		taken[t] = opt.Allowed != nil
	}
	for _, t := range opt.Allowed {
		if t < 0 || t >= st.Tiles() {
			return Mapping{}, fmt.Errorf("reconfig: allowed tile %d outside platform of %d tiles", t, st.Tiles())
		}
		taken[t] = false
	}
	claim := func(v, t int) {
		m.PhysOf[v] = t
		taken[t] = true
	}

	var busyCrit, busyRest []int
	for v := 0; v < k; v++ {
		if len(s.TileOrder[v]) == 0 {
			continue
		}
		first := s.TileOrder[v][0]
		if opt.Critical != nil && opt.Critical(first) {
			busyCrit = append(busyCrit, v)
		} else {
			busyRest = append(busyRest, v)
		}
	}
	byWeight := func(vs []int) {
		for i := 1; i < len(vs); i++ {
			for j := i; j > 0; j-- {
				wa := s.Weights[s.TileOrder[vs[j-1]][0]]
				wb := s.Weights[s.TileOrder[vs[j]][0]]
				if wa > wb || (wa == wb && vs[j-1] < vs[j]) {
					break
				}
				vs[j-1], vs[j] = vs[j], vs[j-1]
			}
		}
	}
	byWeight(busyCrit)
	byWeight(busyRest)

	match := func(v int) bool {
		cfg := s.G.Subtask(s.TileOrder[v][0]).Config
		for t := range st.Configs {
			if taken[t] {
				continue
			}
			if c := st.Configs[t]; c != "" && c == cfg {
				claim(v, t)
				return true
			}
		}
		return false
	}

	var initTiles []int
	for _, v := range busyCrit {
		if !match(v) {
			initTiles = append(initTiles, v)
		}
	}
	for _, v := range initTiles {
		best := -1
		for t := 0; t < st.Tiles(); t++ {
			if taken[t] {
				continue
			}
			if best < 0 || st.LastUse[t] < st.LastUse[best] {
				best = t
			}
		}
		if best < 0 {
			return Mapping{}, fmt.Errorf("reconfig: ran out of physical tiles")
		}
		claim(v, best)
	}
	var unmatched []int
	for _, v := range busyRest {
		if !match(v) {
			unmatched = append(unmatched, v)
		}
	}
	for _, v := range unmatched {
		firstEmpty := -1
		var others []int
		for t := 0; t < st.Tiles(); t++ {
			if taken[t] {
				continue
			}
			if st.Configs[t] == "" {
				if firstEmpty < 0 {
					firstEmpty = t
				}
			} else {
				others = append(others, t)
			}
		}
		var pick int
		switch {
		case firstEmpty >= 0:
			pick = firstEmpty
		case len(others) > 0:
			pick = policy.Victim(st, others, opt.Future)
		default:
			return Mapping{}, fmt.Errorf("reconfig: ran out of physical tiles")
		}
		claim(v, pick)
	}

	next := 0
	for v := 0; v < k; v++ {
		if m.PhysOf[v] >= 0 {
			continue
		}
		for next < st.Tiles() && taken[next] {
			next++
		}
		if next < st.Tiles() {
			claim(v, next)
		} else if len(opt.Allowed) > 0 {
			m.PhysOf[v] = opt.Allowed[0]
		} else {
			m.PhysOf[v] = 0
		}
	}
	return m, nil
}

// refPool builds schedules whose configurations come from one small
// shared pool, so reuse matches, intra-instance reuse and evictions all
// occur: 1–12 subtasks on 1–maxTiles virtual tiles, sometimes with an
// ISP, under both placements.
func refPool(t *testing.T, rng *rand.Rand, count, maxTiles int) []*assign.Schedule {
	t.Helper()
	pool := make([]*assign.Schedule, count)
	for i := range pool {
		g := graph.New(fmt.Sprintf("ref%d", i))
		n := 1 + rng.Intn(12)
		ids := make([]graph.SubtaskID, n)
		for j := range ids {
			cfg := graph.ConfigID(fmt.Sprintf("pool/%d", rng.Intn(10)))
			ids[j] = g.AddConfigured("s", model.Dur(1+rng.Intn(8))*model.Millisecond, cfg)
			if j > 0 && rng.Float64() < 0.4 {
				g.AddEdge(ids[rng.Intn(j)], ids[j])
			}
		}
		p := platform.Default(1 + rng.Intn(maxTiles))
		if rng.Intn(4) == 0 {
			p.ISPs = 1
			g.SetOnISP(ids[rng.Intn(n)], true)
		}
		s, err := assign.List(g, p, assign.Options{Placement: assign.Placement(rng.Intn(2))})
		if err != nil {
			t.Fatal(err)
		}
		pool[i] = s
	}
	return pool
}

// TestPlanMatchesStringReference pins the keyed replacement module —
// a Plan compiled per schedule, MapInto on integer keys, the residency
// bitset and the keyed commit — to the string-comparing reference on
// 100k seeded instances, with the tile state carried from instance to
// instance. It varies the policy (LRU, FIFO, Belady with a lookahead
// stream, seeded Random drawing the same stream on both sides), the
// critical set, and the Allowed claim (nil, restricted, exhausted).
// Now and then a tile's configuration is written into Configs directly,
// or the keyed side continues on a State built as a literal, so the
// keys of a State not kept through its methods are exercised too. The
// collision variant forces distinct configurations onto one key to
// show a key hit never decides without the string check.
func TestPlanMatchesStringReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cases int
		key   func(graph.ConfigID) uint64
	}{
		{"maphash", 100000, nil},
		{"colliding", 20000, func(c graph.ConfigID) uint64 {
			if c == "" {
				return 0
			}
			return 1 + uint64(len(c)%2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.key != nil {
				saved := configKey
				configKey = tc.key
				t.Cleanup(func() { configKey = saved })
			}
			diffPlanAgainstReference(t, tc.cases)
		})
	}
}

func diffPlanAgainstReference(t *testing.T, cases int) {
	const tiles = 8
	rng := rand.New(rand.NewSource(97))
	pool := refPool(t, rng, 64, tiles)
	stKey, stRef := NewState(tiles), NewState(tiles)
	rngKey, rngRef := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	var sc MapScratch
	var res []bool
	var clock model.Time
	errs := 0
	for c := 0; c < cases; c++ {
		s := pool[rng.Intn(len(pool))]
		switch rng.Intn(200) {
		case 0:
			stKey.Reset()
			stRef.Reset()
		case 1, 2: // a direct write the key column has not seen
			tile, cfg := rng.Intn(tiles), graph.ConfigID(fmt.Sprintf("pool/%d", rng.Intn(12)))
			stKey.Configs[tile], stRef.Configs[tile] = cfg, cfg
		case 3: // a State built as a literal, without keys
			stKey = &State{Configs: slices.Clone(stKey.Configs), LastUse: slices.Clone(stKey.LastUse),
				LoadedAt: slices.Clone(stKey.LoadedAt)}
		}
		var critical func(graph.SubtaskID) bool
		if mod := rng.Intn(4); mod > 0 {
			critical = func(id graph.SubtaskID) bool { return int(id)%(mod+1) == 0 }
		}
		optKey := MapOptions{Critical: critical}
		optRef := optKey
		switch rng.Intn(4) {
		case 1:
			optKey.Policy, optRef.Policy = FIFO{}, FIFO{}
		case 2:
			future := make([]graph.ConfigID, rng.Intn(12))
			for i := range future {
				future[i] = graph.ConfigID(fmt.Sprintf("pool/%d", rng.Intn(12)))
			}
			optKey.Policy, optRef.Policy = Belady{}, Belady{}
			optKey.Future, optRef.Future = future, future
		case 3:
			optKey.Policy, optRef.Policy = Random{Rng: rngKey}, Random{Rng: rngRef}
		}
		switch rng.Intn(4) {
		case 1: // a claim wide enough for the schedule
			optKey.Allowed = rng.Perm(tiles)[:min(tiles, s.Tiles+rng.Intn(3))]
		case 2: // a claim that may run out
			optKey.Allowed = rng.Perm(tiles)[:1+rng.Intn(max(1, s.Tiles))]
		}
		optRef.Allowed = optKey.Allowed

		want, wantErr := refMapInto(s, stRef, optRef)
		got, gotErr := NewPlan(s, critical).MapInto(stKey, optKey, &sc)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("case %d: errors %v vs reference %v", c, gotErr, wantErr)
		}
		if wantErr != nil {
			errs++
			continue
		}
		if !slices.Equal(got.PhysOf, want.PhysOf) {
			t.Fatalf("case %d: PhysOf %v vs reference %v", c, got.PhysOf, want.PhysOf)
		}

		pl := NewPlan(s, nil)
		var count int
		res, count = pl.ResidentInto(res, stKey, got)
		wantRes := Resident(s, stRef, want)
		if count != len(wantRes) {
			t.Fatalf("case %d: %d resident vs reference %d", c, count, len(wantRes))
		}
		for id, ok := range res {
			if ok != wantRes[graph.SubtaskID(id)] {
				t.Fatalf("case %d: subtask %d resident=%v vs reference", c, id, ok)
			}
		}

		execEnd := make([]model.Time, s.G.Len())
		for i := range execEnd {
			execEnd[i] = clock.Add(model.Dur(rng.Intn(50)) * model.Millisecond)
		}
		clock = clock.Add(20 * model.Millisecond)
		pl.Commit(stKey, got, res, execEnd)
		Commit(s, stRef, want, wantRes, func(id graph.SubtaskID) model.Time { return execEnd[id] })
		if !slices.Equal(stKey.Configs, stRef.Configs) || !slices.Equal(stKey.LastUse, stRef.LastUse) ||
			!slices.Equal(stKey.LoadedAt, stRef.LoadedAt) {
			t.Fatalf("case %d: committed state %+v vs reference %+v", c, stKey, stRef)
		}
		for tile, cfg := range stKey.Configs {
			if stKey.keys[tile] != configKey(cfg) {
				t.Fatalf("case %d: tile %d key out of step with %q", c, tile, cfg)
			}
		}
	}
	if errs == 0 || errs > cases/4 {
		t.Fatalf("%d of %d cases ran out of tiles; the exhausted-claim path is not exercised as intended", errs, cases)
	}
}
