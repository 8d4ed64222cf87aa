package rootlinux_test

import (
	"strings"
	"testing"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

func build(t *testing.T, seed uint64) *core.Machine {
	t.Helper()
	m, err := core.BuildMachine(core.DefaultMachineOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBootChatterOnUART0(t *testing.T) {
	m := build(t, 1)
	m.Run(sim.Second)
	u := m.Board.UART0
	for _, want := range []string{
		"Booting Linux on physical CPU 0x0",
		"Linux version 5.10.0-jailhouse",
		"The Jailhouse is opening.",
		"Created cell \"freertos-cell\"",
	} {
		if !u.Contains(want) {
			t.Errorf("uart0 missing %q", want)
		}
	}
}

func TestCellLifecycleViaTool(t *testing.T) {
	m := build(t, 2)
	m.Run(2 * sim.Second)
	st, err := m.Linux.CellState(m.CellID)
	if err != nil || st != jailhouse.CellRunning {
		t.Fatalf("CellState = %v, %v", st, err)
	}
	if err := m.Linux.CellDestroy(m.CellID); err != nil {
		t.Fatal(err)
	}
	// CPU 1 rejoins root and comes back online.
	if !m.HV.RootCell().HasCPU(1) {
		t.Fatal("cpu1 not back in root")
	}
	if !m.Board.UART0.Contains("smpboot: CPU1 is up") {
		t.Fatal("re-online chatter missing")
	}
	if _, err := m.Linux.CellState(m.CellID); err == nil {
		t.Fatal("destroyed cell still queryable")
	}
}

func TestStateWatchdogQueries(t *testing.T) {
	m := build(t, 3)
	m.Run(5 * sim.Second)
	// 500 ms cadence → ~10 queries in 5 s.
	if n := m.Board.Engine.ExecutedByKind()[board.EvLinuxStateQuery]; n < 8 {
		t.Fatalf("state queries = %d, want ≥8", n)
	}
	if m.Linux.LastState != jailhouse.CellRunning {
		t.Fatalf("last state = %v", m.Linux.LastState)
	}
}

func TestCreateFailurePrintsEINVALAndReonlines(t *testing.T) {
	m := build(t, 4)
	m.Run(sim.Second)
	// A second create of the same cell name fails EEXIST; use a fresh
	// config with a corrupted-by-construction region to force EINVAL-ish
	// tool error paths through the console.
	cfg := jailhouse.FreeRTOSCellConfig()
	cfg.Name = "second-cell"
	// CPU 1 already belongs to the freertos cell → create must fail
	// (EBUSY) and the tool must print the errno.
	err := m.Linux.CellCreate(cfg)
	if err == nil {
		t.Fatal("create of owned CPU succeeded")
	}
	if !m.Board.UART0.Contains("jailhouse: cell create failed") {
		t.Fatal("tool error missing from console")
	}
}

func TestRegisterImageScratchIsSafe(t *testing.T) {
	m := build(t, 5)
	m.Run(sim.Second)
	m.Linux.OnCorruptedResume(0, []int{armv7.RegR0, armv7.RegR1, armv7.RegR12})
	if panicked, _ := m.Linux.Panicked(); panicked {
		t.Fatal("scratch corruption panicked the kernel")
	}
}

func TestControlFlowCorruptionCanPanic(t *testing.T) {
	m := build(t, 6)
	m.Run(sim.Second)
	// pOopsControl = 0.25: hammer until it fires.
	for i := 0; i < 256; i++ {
		m.Linux.OnCorruptedResume(0, []int{armv7.RegSP})
		if p, _ := m.Linux.Panicked(); p {
			break
		}
	}
	panicked, why := m.Linux.Panicked()
	if !panicked {
		t.Fatal("control-flow corruption never panicked over 256 tries")
	}
	if !strings.Contains(why, "register corruption") {
		t.Fatalf("panic reason = %q", why)
	}
	if !m.Board.UART0.Contains("Kernel panic - not syncing") {
		t.Fatal("kernel panic line missing from uart0 — the classifier keys on it")
	}
	// Panicked kernel goes silent.
	before := m.Board.UART0.LineCount()
	m.Linux.OnCorruptedResume(0, []int{armv7.RegSP})
	m.Run(sim.Second)
	if m.Board.UART0.LineCount() != before {
		t.Fatal("dead kernel kept printing")
	}
}

func TestRecreateLoopCyclesCells(t *testing.T) {
	m, err := core.BuildMachine(core.MachineOptions{
		Seed:           7,
		RecreateLoop:   true,
		RecreatePeriod: 2 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(9 * sim.Second)
	// Cycles at 2,4,6,8 s: the first creates, later ones destroy+create.
	created := 0
	for _, l := range m.Board.UART0.Lines() {
		if strings.Contains(l.Text, "Created cell") {
			created++
		}
	}
	if created < 3 {
		t.Fatalf("created count = %d, want ≥3 (recreate loop)", created)
	}
	// The cell exists and runs after the last cycle.
	cell, ok := m.HV.CellByName("freertos-cell")
	if !ok || cell.State != jailhouse.CellRunning {
		t.Fatalf("cell after cycles: %v %v", cell, ok)
	}
	// The FreeRTOS instance of the last cycle produced output.
	if !m.Board.UART7.Contains("Scheduler started") {
		t.Fatal("no inmate output across cycles")
	}
}

func TestHypercallStreamFeedsInjector(t *testing.T) {
	m := build(t, 8)
	m.Run(3 * sim.Second)
	p := m.HV.PerCPU(0)
	if p.Stats[jailhouse.ExitHVC] < 5 {
		t.Fatalf("cpu0 hvc exits = %d — too quiet for E1 plans", p.Stats[jailhouse.ExitHVC])
	}
	if p.Stats[jailhouse.ExitMMIO] < 5 {
		t.Fatalf("cpu0 mmio exits = %d — too quiet for E1 trap plans", p.Stats[jailhouse.ExitMMIO])
	}
}
