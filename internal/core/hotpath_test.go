package core

import (
	"slices"
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// TestHypervisorHotPathsAllocationFree pins the per-event hypervisor
// paths at zero heap allocations on a warmed machine whose trace arena
// and console log are pre-grown: a trapped GICD read from the FreeRTOS
// cell (the Figure-3 trap stream), a HYPERVISOR_GET_INFO round trip and
// a CELL_CREATE refused for a bad config signature — the refusal E1's
// corrupted config pointers produce.
func TestHypervisorHotPathsAllocationFree(t *testing.T) {
	m, err := BuildMachine(DefaultMachineOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(sim.Second)

	const runs = 200
	// A root-cell page below the FreeRTOS carve-out that holds no
	// config blob.
	notAConfig := uint32(board.DRAMBase + 0x0100_0000)
	ops := []struct {
		name string
		op   func()
	}{
		{"trapped GICD read", func() {
			if _, err := m.HV.GuestRead32(1, board.GICDBase+gic.GICDTyper); err != nil {
				t.Fatal(err)
			}
		}},
		{"HVC round trip", func() {
			if e := m.HV.HVC(0, jailhouse.HCHypervisorGetInfo, jailhouse.InfoNumCells, 0); e.Failed() {
				t.Fatal(e)
			}
		}},
		{"refused CELL_CREATE", func() {
			if e := m.HV.HVC(0, jailhouse.HCCellCreate, notAConfig, 0); e != jailhouse.EINVAL {
				t.Fatalf("CELL_CREATE of a page with no config = %v, want EINVAL", e)
			}
		}},
	}
	for _, o := range ops {
		o.op() // warm: first-use growth of any scratch buffer
	}
	tr := m.Board.Trace()
	tr.Grow(tr.Len()+4*runs*len(ops), tr.ArgLen()+16*runs*len(ops))
	m.HV.ConsoleLines = slices.Grow(m.HV.ConsoleLines, 2*runs*len(ops))
	for _, o := range ops {
		if got := testing.AllocsPerRun(runs, o.op); got != 0 {
			t.Errorf("%s: %v allocations per operation, want 0", o.name, got)
		}
	}
	if !strings.Contains(strings.Join(m.HV.ConsoleLines, "\n"), "cell create: bad config signature") {
		t.Fatal("refused CELL_CREATE left no console line")
	}
}
