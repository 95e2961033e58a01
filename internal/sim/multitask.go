package sim

import (
	"fmt"

	"drhwsched/internal/fabric"
)

// Multitask configures the kernel's event-driven execute stage: whether
// an iteration's task instances share the fabric concurrently and under
// which admission policy. The zero value is the paper's model — one
// instance owns the whole FPGA at a time — and is bit-identical to the
// sequential back-to-back replay the kernel performed before the fabric
// layer existed.
type Multitask struct {
	// Mode selects the admission policy:
	//
	//   - "" or "serial": one instance at a time on the whole fabric
	//     (the paper's §7 execution model, the default);
	//   - "partition": the fabric is carved into Partitions fixed tile
	//     blocks; an instance claims the first run of consecutive free
	//     blocks that fits its busy-tile need and queues otherwise;
	//   - "greedy": an instance claims exactly its needed number of free
	//     tiles anywhere, preferring tiles that already hold its
	//     configurations.
	Mode string
	// Partitions is the block count for "partition" mode; zero means 2.
	// Setting it with any other mode is an error (it would be silently
	// ignored otherwise).
	Partitions int
}

// MultitaskModes lists the admission-mode wire names, in documentation
// order. CLI usage strings and parser error messages are built from
// this registry so new modes cannot drift out of the docs.
func MultitaskModes() []string { return []string{"serial", "partition", "greedy"} }

// resolve validates the configuration against the platform's tile count
// and materializes the admission policy, the canonical mode name and the
// effective partition count (zero outside partition mode).
func (m Multitask) resolve(tiles int) (fabric.Allocation, string, int, error) {
	switch m.Mode {
	case "", "serial":
		if m.Partitions != 0 {
			return nil, "", 0, fmt.Errorf("sim: multitask partitions=%d is only meaningful in partition mode", m.Partitions)
		}
		return fabric.Serial{}, "serial", 0, nil
	case "partition":
		n := m.Partitions
		if n == 0 {
			n = 2
		}
		if n < 1 || n > tiles {
			return nil, "", 0, fmt.Errorf("sim: multitask partition count %d out of range [1, %d tiles]", n, tiles)
		}
		return fabric.Partition{Blocks: n}, "partition", n, nil
	case "greedy":
		if m.Partitions != 0 {
			return nil, "", 0, fmt.Errorf("sim: multitask partitions=%d is only meaningful in partition mode", m.Partitions)
		}
		return fabric.Greedy{}, "greedy", 0, nil
	}
	return nil, "", 0, fmt.Errorf("sim: unknown multitask mode %q (serial|partition|greedy)", m.Mode)
}
