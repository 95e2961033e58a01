// Fuzz coverage for the coordinator's sweep decoder: ParseGrid over a
// decoded server.SweepRequest must reject bad requests with an error,
// never a panic, and any grid it accepts must survive a round trip —
// the grid's own fields, re-encoded as a request, parse to the same
// values, lines and shard keys. Plain `go test` runs the seeds;
// `go test -fuzz=FuzzParseGrid ./internal/cluster` explores from there.
package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"drhwsched/internal/server"
	"drhwsched/internal/workload"
)

func FuzzParseGrid(f *testing.F) {
	for _, values := range []string{`[2, 3, 4]`, `[3, 4, 3]`, `[2, 3, 4, 5, 6, 7, 8, 9]`, `[0]`, `[]`} {
		f.Add([]byte(sweepBody(values)))
	}
	f.Add([]byte(fmt.Sprintf(`{"workload": %s, "param": "seed", "values": [1, 2], "approaches": ["hybrid", "run-time"]}`, planDoc)))
	f.Add([]byte(fmt.Sprintf(`{"workload": %s, "values": [4]}`, planDoc)))
	for _, req := range []server.SweepRequest{
		{Values: []int{4}},
		{Workload: json.RawMessage(planDoc), Param: "voltage", Values: []int{4}},
		{Workload: json.RawMessage(planDoc), Values: []int{4}, Approaches: []string{"nope"}},
		{Workload: json.RawMessage(`{"tasks": 7}`), Values: []int{4}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"workload": nope}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req server.SweepRequest
		if err := json.Unmarshal(data, &req); err != nil || !smallSweep(&req) {
			return
		}
		g, err := ParseGrid(&req)
		if err != nil {
			return // rejected cleanly
		}
		if g.Cells() != len(g.Values)*len(g.Lines) || g.Cells() == 0 {
			t.Fatalf("grid of %d values x %d lines reports %d cells", len(g.Values), len(g.Lines), g.Cells())
		}
		if g.Param != "tiles" && g.Param != "seed" {
			t.Fatalf("accepted param %q", g.Param)
		}

		body, err := json.Marshal(server.SweepRequest{
			Workload: g.Raw, Param: g.Param, Values: g.Values, Approaches: g.Lines,
		})
		if err != nil {
			t.Fatalf("re-encoding an accepted grid: %v", err)
		}
		var back server.SweepRequest
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("decoding a re-encoded grid: %v", err)
		}
		g2, err := ParseGrid(&back)
		if err != nil {
			t.Fatalf("re-parsing an accepted grid: %v\n%s", err, body)
		}
		if g2.Param != g.Param || !reflect.DeepEqual(g2.Values, g.Values) ||
			!reflect.DeepEqual(g2.Lines, g.Lines) || !reflect.DeepEqual(g2.shardKeys(), g.shardKeys()) {
			t.Fatalf("round trip changed the grid:\n%+v\n%+v", g, g2)
		}
	})
}

// smallSweep keeps fuzzed requests cheap. Deriving the shard keys the
// round trip compares list-schedules every scenario once per value, so
// a request for many values, large documents or wide platforms would
// spend the fuzzer's time and memory on scheduling rather than on
// decoding. Swept tile counts need no clause here: ParseGrid bounds
// them at platform.MaxCount.
func smallSweep(req *server.SweepRequest) bool {
	if len(req.Values) > 16 {
		return false
	}
	spec, err := workload.ParseRun(req.Workload)
	if err != nil {
		return true // ParseGrid rejects it before any scheduling
	}
	p := spec.Platform
	return p.Tiles+p.Ports+p.ISPs <= 64 && spec.Subtasks() <= 64
}
