package jailhouse

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/memmap"
	"github.com/dessertlab/certify/internal/sim"
)

// fakeInmate records every hypervisor→guest interaction.
type fakeInmate struct {
	name      string
	boots     []int
	irqs      [][2]int
	corrupted [][]int
	parked    []int
	shutdown  bool
}

func (f *fakeInmate) Name() string        { return f.name }
func (f *fakeInmate) Boot(cpu int)        { f.boots = append(f.boots, cpu) }
func (f *fakeInmate) OnIRQ(cpu, irq int)  { f.irqs = append(f.irqs, [2]int{cpu, irq}) }
func (f *fakeInmate) OnCPUParked(cpu int) { f.parked = append(f.parked, cpu) }
func (f *fakeInmate) OnShutdown()         { f.shutdown = true }
func (f *fakeInmate) OnCorruptedResume(cpu int, fields []int) {
	f.corrupted = append(f.corrupted, fields)
}

// rig builds an enabled hypervisor on a fresh board.
func rig(t *testing.T) (*board.Board, *Hypervisor) {
	t.Helper()
	brd := board.New(2022, board.Options{})
	h := New(brd)
	if e := h.Enable(DefaultSystemConfig()); e.Failed() {
		t.Fatalf("Enable: %v", e)
	}
	return brd, h
}

// createFreeRTOSCell drives the full root-side flow: write the config
// blob into root RAM, offline CPU 1, CELL_CREATE, load, start, and spin
// the engine so the bring-up SGI lands.
func createFreeRTOSCell(t *testing.T, brd *board.Board, h *Hypervisor, guest Inmate) *Cell {
	t.Helper()
	blob := FreeRTOSCellConfig().Marshal()
	const gpa = board.DRAMBase + 0x0100_0000
	if err := brd.RAM.Write(gpa, blob); err != nil {
		t.Fatal(err)
	}
	if ret := h.SMC(1, armv7.PSCICPUOff); ret != armv7.PSCIRetSuccess {
		t.Fatalf("CPU_OFF: %d", ret)
	}
	id := h.HVC(0, HCCellCreate, uint32(gpa), 0)
	if id.Failed() {
		t.Fatalf("CELL_CREATE: %v", id)
	}
	if e := h.HVC(0, HCCellSetLoadable, uint32(id), 0); e.Failed() {
		t.Fatalf("SET_LOADABLE: %v", e)
	}
	if e := h.LoadInmate(uint32(id), guest); e.Failed() {
		t.Fatalf("LoadInmate: %v", e)
	}
	if e := h.HVC(0, HCCellStart, uint32(id), 0); e.Failed() {
		t.Fatalf("CELL_START: %v", e)
	}
	if err := brd.Engine.Run(brd.Now() + sim.Millisecond); err != nil {
		t.Fatalf("engine: %v", err)
	}
	cell, ok := h.CellByID(uint32(id))
	if !ok {
		t.Fatal("created cell vanished")
	}
	return cell
}

func TestEnableSetsUpRootCell(t *testing.T) {
	_, h := rig(t)
	root := h.RootCell()
	if root == nil || root.Name() != "banana-pi" || root.State != CellRunning {
		t.Fatalf("root = %v", root)
	}
	if !root.HasCPU(0) || !root.HasCPU(1) {
		t.Fatal("root cell must own both CPUs")
	}
	if got := h.PerCPU(0).cell; got != root {
		t.Fatal("percpu cell pointer wrong")
	}
	if e := h.Enable(DefaultSystemConfig()); e != EBUSY {
		t.Fatalf("double Enable = %v, want EBUSY", e)
	}
}

func TestEnableRejectsBadConfig(t *testing.T) {
	brd := board.New(1, board.Options{})
	h := New(brd)
	if e := h.Enable(nil); e != EINVAL {
		t.Fatalf("nil config = %v", e)
	}
	bad := DefaultSystemConfig()
	bad.RootCell.CPUSet = 0
	if e := h.Enable(bad); e != EINVAL {
		t.Fatalf("empty cpuset = %v", e)
	}
}

func TestDisableRequiresLoneRoot(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)
	if e := h.HVC(0, HCDisable, 0, 0); e != EBUSY {
		t.Fatalf("Disable with non-root cell = %v, want EBUSY", e)
	}
	if e := h.HVC(0, HCCellDestroy, uint32(cell.ID), 0); e.Failed() {
		t.Fatalf("destroy: %v", e)
	}
	if e := h.HVC(0, HCDisable, 0, 0); e.Failed() {
		t.Fatalf("Disable: %v", e)
	}
	if h.Enabled() {
		t.Fatal("still enabled")
	}
}

func TestCellConfigMarshalRoundTrip(t *testing.T) {
	cfg := FreeRTOSCellConfig()
	blob := cfg.Marshal()
	got, err := UnmarshalCellConfig(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cfg.Name || got.CPUSet != cfg.CPUSet || got.ConsoleBase != cfg.ConsoleBase {
		t.Fatalf("header roundtrip: %+v", got)
	}
	if len(got.MemRegions) != len(cfg.MemRegions) || len(got.IRQLines) != len(cfg.IRQLines) {
		t.Fatalf("payload counts: %d regions %d irqs", len(got.MemRegions), len(got.IRQLines))
	}
	for i := range cfg.MemRegions {
		if got.MemRegions[i] != cfg.MemRegions[i] {
			t.Fatalf("region %d: %v != %v", i, got.MemRegions[i], cfg.MemRegions[i])
		}
	}
}

func TestCellConfigUnmarshalRejectsDamage(t *testing.T) {
	good := FreeRTOSCellConfig().Marshal()
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"short blob", func(b []byte) {}},
		{"bad signature", func(b []byte) { b[0] = 'X' }},
		{"bad revision", func(b []byte) { b[6] = 99 }},
		{"empty cpuset", func(b []byte) {
			for i := 40; i < 48; i++ {
				b[i] = 0
			}
		}},
		{"huge region count", func(b []byte) { b[48] = 0xFF }},
		{"unprintable name", func(b []byte) { b[8] = 0x01 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := make([]byte, len(good))
			copy(blob, good)
			if tc.name == "short blob" {
				blob = blob[:10]
			}
			tc.mutate(blob)
			if _, err := UnmarshalCellConfig(blob); err == nil {
				t.Fatal("damaged config accepted")
			}
		})
	}
}

// Property: marshal→unmarshal is the identity on valid configs.
func TestPropertyConfigRoundTrip(t *testing.T) {
	prop := func(nameRaw uint8, cpuset uint8, irqRaw uint8) bool {
		cfg := &CellConfig{
			Name:     "cell-" + string(rune('a'+nameRaw%26)),
			CPUSet:   uint64(cpuset%3 + 1),
			IRQLines: []int{32 + int(irqRaw)%96},
			MemRegions: []memmap.Region{{
				Phys: 0x7000_0000, Virt: 0, Size: 0x1_0000,
				Flags: memmap.FlagRead | memmap.FlagWrite,
			}},
		}
		got, err := UnmarshalCellConfig(cfg.Marshal())
		if err != nil {
			return false
		}
		return got.Name == cfg.Name && got.CPUSet == cfg.CPUSet &&
			len(got.IRQLines) == 1 && got.IRQLines[0] == cfg.IRQLines[0]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCellLifecycle(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)

	if cell.State != CellRunning {
		t.Fatalf("state = %v", cell.State)
	}
	if len(guest.boots) != 1 || guest.boots[0] != 1 {
		t.Fatalf("guest boots = %v, want [1]", guest.boots)
	}
	if !h.PerCPU(1).OnlineInCell {
		t.Fatal("cpu1 not online in cell")
	}
	root := h.RootCell()
	if root.HasCPU(1) {
		t.Fatal("cpu1 still in root cell")
	}
	if st := h.HVC(0, HCCellGetState, uint32(cell.ID), 0); CellState(st) != CellRunning {
		t.Fatalf("GET_STATE = %v", st)
	}

	// Root lost the donated memory window; the cell's RAM resolves only
	// through the cell.
	if _, _, f := root.Stage2.Resolve(FreeRTOSMemBase, memmap.AccessRead); f == memmap.FaultNone {
		t.Fatal("root still maps donated cell RAM")
	}
	if _, _, f := cell.Stage2.Resolve(0, memmap.AccessExec); f != memmap.FaultNone {
		t.Fatalf("cell cannot reach its own RAM: fault %v", f)
	}

	// Destroy: everything returns to root.
	if e := h.HVC(0, HCCellDestroy, uint32(cell.ID), 0); e.Failed() {
		t.Fatalf("destroy: %v", e)
	}
	if !guest.shutdown {
		t.Fatal("guest did not get shutdown message")
	}
	if !root.HasCPU(1) {
		t.Fatal("cpu1 did not return to root")
	}
	if _, _, f := root.Stage2.Resolve(FreeRTOSMemBase, memmap.AccessRead); f != memmap.FaultNone {
		t.Fatalf("donated RAM did not return to root: fault %v", f)
	}
	if _, ok := h.CellByName("freertos-cell"); ok {
		t.Fatal("cell still listed after destroy")
	}
}

func TestCellCreateErrnoPaths(t *testing.T) {
	brd, h := rig(t)
	blob := FreeRTOSCellConfig().Marshal()
	const gpa = board.DRAMBase + 0x0100_0000
	if err := brd.RAM.Write(gpa, blob); err != nil {
		t.Fatal(err)
	}

	// CPU not offlined yet → EBUSY.
	if e := h.HVC(0, HCCellCreate, uint32(gpa), 0); e != EBUSY {
		t.Fatalf("create without offline = %v, want EBUSY", e)
	}
	// Unmapped config pointer → EINVAL (paper's E1 signature).
	if e := h.HVC(0, HCCellCreate, 0x1000, 0); e != EINVAL {
		t.Fatalf("bad pointer = %v, want EINVAL", e)
	}
	// Garbage blob → EINVAL.
	if err := brd.RAM.Write(gpa+0x1000, []byte("not a config blob at all......")); err != nil {
		t.Fatal(err)
	}
	if e := h.HVC(0, HCCellCreate, uint32(gpa)+0x1000, 0); e != EINVAL {
		t.Fatalf("garbage blob = %v, want EINVAL", e)
	}

	// Proper create.
	if ret := h.SMC(1, armv7.PSCICPUOff); ret != armv7.PSCIRetSuccess {
		t.Fatal("CPU_OFF failed")
	}
	id := h.HVC(0, HCCellCreate, uint32(gpa), 0)
	if id.Failed() {
		t.Fatalf("create: %v", id)
	}
	// Duplicate name → EEXIST.
	if e := h.HVC(0, HCCellCreate, uint32(gpa), 0); e != EEXIST {
		t.Fatalf("duplicate = %v, want EEXIST", e)
	}
}

func TestNonRootCannotManage(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)
	// The non-root cell's CPU issues a management hypercall → EPERM.
	if e := h.HVC(1, HCCellDestroy, 0, 0); e != EPERM {
		t.Fatalf("non-root destroy = %v, want EPERM", e)
	}
	if e := h.HVC(1, HCCellCreate, 0, 0); e != EPERM {
		t.Fatalf("non-root create = %v, want EPERM", e)
	}
	// But unprivileged calls work.
	if e := h.HVC(1, HCCellGetState, uint32(cell.ID), 0); Errno(CellState(e)) != Errno(CellRunning) {
		t.Fatalf("non-root get_state = %v", e)
	}
}

func TestUnknownHypercall(t *testing.T) {
	_, h := rig(t)
	if e := h.HVC(0, 0xFF, 0, 0); e != ENOSYS {
		t.Fatalf("unknown code = %v, want ENOSYS", e)
	}
	if e := h.HVC(0, HCHypervisorGetInfo, InfoNumCells, 0); int32(e) != 1 {
		t.Fatalf("GET_INFO cells = %v, want 1", e)
	}
}

func TestGICDEmulationOwnershipFilter(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	createFreeRTOSCell(t, brd, h, guest)

	// The cell enables its own IRQ 52: permitted.
	word := board.IRQUart7 / 32
	bit := uint(board.IRQUart7 % 32)
	addr := board.GICDBase + 0x100 + uint64(word*4)
	if err := h.GuestWrite32(1, addr, 1<<bit); err != nil {
		t.Fatal(err)
	}
	if !brd.GIC.IRQEnabled(board.IRQUart7) {
		t.Fatal("cell could not enable its own SPI")
	}

	// The cell tries to enable root's UART0 IRQ 33: silently filtered.
	word = board.IRQUart0 / 32
	bit = uint(board.IRQUart0 % 32)
	addr = board.GICDBase + 0x100 + uint64(word*4)
	if err := h.GuestWrite32(1, addr, 1<<bit); err != nil {
		t.Fatal(err)
	}
	if brd.GIC.IRQEnabled(board.IRQUart0) {
		t.Fatal("isolation breach: cell enabled a foreign SPI")
	}

	// GICD read through emulation works.
	v, err := h.GuestRead32(1, board.GICDBase+0x004) // TYPER
	if err != nil || v == 0 {
		t.Fatalf("GICD read = %#x, %v", v, err)
	}
}

func TestAccessViolationParksNonRootCPU(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)

	// The cell reads root Linux memory — not mapped in its stage-2 and
	// not the GICD → access violation → cpu_park, cell still RUNNING.
	_, _ = h.GuestRead32(1, board.DRAMBase+0x100)
	p := h.PerCPU(1)
	if !p.Parked {
		t.Fatal("violating CPU not parked")
	}
	if len(guest.parked) != 1 || guest.parked[0] != 1 {
		t.Fatalf("guest park notification = %v", guest.parked)
	}
	if cell.State != CellRunning {
		t.Fatalf("cell state = %v — Jailhouse keeps it RUNNING (the paper's dangerous inconsistency)", cell.State)
	}
	if panicked, _ := h.Panicked(); panicked {
		t.Fatal("non-root violation must not panic the system")
	}
	// Root is untouched and can still destroy the cell (paper's E3
	// isolation check).
	if e := h.HVC(0, HCCellDestroy, uint32(cell.ID), 0); e.Failed() {
		t.Fatalf("destroy after park: %v", e)
	}
	if h.PerCPU(1).Parked {
		t.Fatal("destroy did not unpark the CPU")
	}
}

func TestRootViolationPanicsSystem(t *testing.T) {
	brd, h := rig(t)
	// Root reads hypervisor-private memory → panic_stop.
	_, _ = h.GuestRead32(0, HypMemBase+0x100)
	if panicked, _ := h.Panicked(); !panicked {
		t.Fatal("root violation must stop the system")
	}
	if halted, _ := brd.Engine.Halted(); !halted {
		t.Fatal("engine not halted on panic_stop")
	}
}

func TestHookInjectionECFlipParksCPU(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)

	// Flip an EC bit on the next non-root trap: HVC (0x12) becomes an
	// undefined class → "unhandled trap exception" → cpu_park. This is
	// the mechanistic path behind the paper's error code 0x24 outcome.
	h.Hook = func(point InjectionPoint, cpu int, cellName string, ctx *armv7.TrapContext) InjectionResult {
		if point == PointTrap && cpu == 1 {
			ctx.FlipBit(armv7.FieldHSR, 31) // EC high bit
			return InjectionResult{Fields: []armv7.Field{armv7.FieldHSR}}
		}
		return InjectionResult{}
	}
	_ = h.HVC(1, HCCellGetState, uint32(cell.ID), 0)
	if !h.PerCPU(1).Parked {
		t.Fatal("EC flip did not park the CPU")
	}
	if !consoleContains(h, "unhandled trap exception") {
		t.Fatal("missing unhandled-trap console evidence")
	}
	if cell.State != CellRunning {
		t.Fatal("cell state changed by cpu park")
	}
	_ = brd
}

func TestHookInjectionHVCArgFlipYieldsEINVAL(t *testing.T) {
	brd, h := rig(t)
	blob := FreeRTOSCellConfig().Marshal()
	const gpa = board.DRAMBase + 0x0100_0000
	if err := brd.RAM.Write(gpa, blob); err != nil {
		t.Fatal(err)
	}
	_ = h.SMC(1, armv7.PSCICPUOff)

	// Flip a high bit of the config pointer (r1) on root HVCs: the
	// pointer no longer resolves → EINVAL → cell not allocated. E1.
	h.Hook = func(point InjectionPoint, cpu int, cellName string, ctx *armv7.TrapContext) InjectionResult {
		if point == PointHVC && cpu == 0 {
			ctx.FlipBit(armv7.Field(armv7.RegR1), 31)
			return InjectionResult{Fields: []armv7.Field{armv7.Field(armv7.RegR1)}}
		}
		return InjectionResult{}
	}
	if e := h.HVC(0, HCCellCreate, uint32(gpa), 0); e != EINVAL {
		t.Fatalf("corrupted create = %v, want EINVAL", e)
	}
	if _, ok := h.CellByName("freertos-cell"); ok {
		t.Fatal("cell allocated despite corrupted arguments")
	}
}

func TestCrossCPUDamageDeferredPanic(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)

	fired := false
	h.Hook = func(point InjectionPoint, cpu int, cellName string, ctx *armv7.TrapContext) InjectionResult {
		if point == PointTrap && cpu == 1 && !fired {
			fired = true
			return InjectionResult{Damage: DamageCrossCPU}
		}
		return InjectionResult{}
	}
	// Injection on the non-root CPU corrupts CPU 0's per-CPU block...
	_ = h.HVC(1, HCCellGetState, uint32safe(cell.ID), 0)
	if panicked, _ := h.Panicked(); panicked {
		t.Fatal("panic fired too early — damage must be deferred")
	}
	// ...and the next root-cell trap detects it: system-wide stop.
	h.Hook = nil
	_ = h.HVC(0, HCHypervisorGetInfo, InfoNumCells, 0)
	if panicked, _ := h.Panicked(); !panicked {
		t.Fatal("deferred cross-CPU corruption not detected")
	}
	if !consoleContains(h, "per-CPU data structure corrupted") {
		t.Fatal("missing integrity-violation console evidence")
	}
	_ = brd
}

// uint32safe documents the narrowing of a cell ID (always small).
func uint32safe(id uint32) uint32 { return id }

func TestHypAbortDamageImmediatePanic(t *testing.T) {
	_, h := rig(t)
	h.Hook = func(point InjectionPoint, cpu int, cellName string, ctx *armv7.TrapContext) InjectionResult {
		return InjectionResult{Damage: DamageHypAbort}
	}
	_ = h.HVC(0, HCHypervisorGetInfo, InfoNumCells, 0)
	if panicked, msg := h.Panicked(); !panicked || !strings.Contains(msg, "HYP mode") {
		t.Fatalf("Panicked = %v %q", panicked, msg)
	}
}

func TestStartSGICorruptionLeavesCellInconsistent(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}

	// Corrupt the IRQ number of every irqchip entry on CPU 1: the
	// bring-up SGI is lost, the CPU never comes online — but the cell
	// reports RUNNING. This is experiment E2's inconsistent state.
	h.Hook = func(point InjectionPoint, cpu int, cellName string, ctx *armv7.TrapContext) InjectionResult {
		if point == PointIRQChip && cpu == 1 {
			ctx.Regs[0] ^= 0x8 // SGI 0 → SGI 8 (unknown management event)
			return InjectionResult{Fields: []armv7.Field{armv7.Field(armv7.RegR0)}}
		}
		return InjectionResult{}
	}

	blob := FreeRTOSCellConfig().Marshal()
	const gpa = board.DRAMBase + 0x0100_0000
	if err := brd.RAM.Write(gpa, blob); err != nil {
		t.Fatal(err)
	}
	_ = h.SMC(1, armv7.PSCICPUOff)
	id := h.HVC(0, HCCellCreate, uint32(gpa), 0)
	_ = h.HVC(0, HCCellSetLoadable, uint32(id), 0)
	_ = h.LoadInmate(uint32(id), guest)
	if e := h.HVC(0, HCCellStart, uint32(id), 0); e.Failed() {
		t.Fatalf("start: %v", e)
	}
	if err := brd.Engine.Run(brd.Now() + 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	cell, _ := h.CellByID(uint32(id))
	if cell.State != CellRunning {
		t.Fatalf("state = %v, want RUNNING (the lie)", cell.State)
	}
	if h.PerCPU(1).OnlineInCell {
		t.Fatal("cpu1 came online despite corrupted bring-up")
	}
	if len(guest.boots) != 0 {
		t.Fatal("guest booted despite corrupted bring-up")
	}
	if !consoleContains(h, "IRQ error") {
		t.Fatal("missing IRQ error evidence")
	}
	// Shutdown/destroy still returns the resources (paper: "gives the
	// control of the CPU ... back to the root cell").
	h.Hook = nil
	if e := h.HVC(0, HCCellDestroy, uint32(id), 0); e.Failed() {
		t.Fatalf("destroy: %v", e)
	}
	if !h.RootCell().HasCPU(1) {
		t.Fatal("cpu did not return to root")
	}
}

func TestPSCIIsolation(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	createFreeRTOSCell(t, brd, h, guest)

	// Root tries CPU_ON on the donated CPU: denied — it is not root's.
	if ret := h.SMC(0, armv7.PSCICPUOn, 1); ret != armv7.PSCIRetDenied {
		t.Fatalf("foreign CPU_ON = %d, want denied", ret)
	}
	// Version query works from any cell.
	if ret := h.SMC(1, armv7.PSCIVersion); uint32(ret) != armv7.PSCIVersionValue {
		t.Fatalf("PSCI version = %#x", ret)
	}
}

func TestCorruptedResumeOnlyThroughWrittenSlots(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)

	// Flip r7 — a slot the HVC handler never writes. The written-slot
	// merge must keep the corruption away from the guest frame entirely.
	h.Hook = func(point InjectionPoint, cpu int, cellName string, ctx *armv7.TrapContext) InjectionResult {
		if point == PointTrap && cpu == 1 {
			ctx.FlipBit(armv7.Field(armv7.RegR7), 3)
			return InjectionResult{Fields: []armv7.Field{armv7.Field(armv7.RegR7)}}
		}
		return InjectionResult{}
	}
	before := brd.CPUs[1].Reg(armv7.RegR7)
	_ = h.HVC(1, HCCellGetState, uint32(cell.ID), 0)
	if got := brd.CPUs[1].Reg(armv7.RegR7); got != before {
		t.Fatalf("guest r7 corrupted through the merge: %#x → %#x", before, got)
	}
	if len(guest.corrupted) != 0 {
		t.Fatal("guest notified although no written slot was flipped")
	}

	// Flip r0 — the HVC result slot. The handler's write merges, and the
	// guest is told its (written) register carried an injected value.
	h.Hook = func(point InjectionPoint, cpu int, cellName string, ctx *armv7.TrapContext) InjectionResult {
		if point == PointHVC && cpu == 1 {
			ctx.FlipBit(armv7.Field(armv7.RegR0), 5)
			return InjectionResult{Fields: []armv7.Field{armv7.Field(armv7.RegR0)}}
		}
		return InjectionResult{}
	}
	_ = h.HVC(1, HCCellGetState, uint32(cell.ID), 0)
	if len(guest.corrupted) == 0 {
		t.Fatal("guest not notified of corrupted written slot")
	}
	if guest.corrupted[0][0] != armv7.RegR0 {
		t.Fatalf("corrupted fields = %v", guest.corrupted)
	}
}

func TestVMExitStats(t *testing.T) {
	brd, h := rig(t)
	before := h.PerCPU(0).Stats[ExitHVC]
	_ = h.HVC(0, HCHypervisorGetInfo, InfoNumCells, 0)
	_ = h.HVC(0, HCHypervisorGetInfo, InfoCodeVersion, 0)
	p := h.PerCPU(0)
	if p.Stats[ExitHVC] != before+2 {
		t.Fatalf("hvc exits = %d, want %d", p.Stats[ExitHVC], before+2)
	}
	if p.Stats[ExitTotal] < p.Stats[ExitHVC] {
		t.Fatal("total below hvc count")
	}
	_ = brd
}

func TestDebugConsolePutc(t *testing.T) {
	_, h := rig(t)
	for _, b := range []byte("inmate says hi\n") {
		if e := h.HVC(0, HCDebugConsolePutc, uint32(b), 0); e.Failed() {
			t.Fatalf("putc: %v", e)
		}
	}
	if !consoleContains(h, "inmate says hi") {
		t.Fatal("putc line missing from console")
	}
	if e := h.HVC(0, HCDebugConsolePutc, 0x1FF, 0); e != EINVAL {
		t.Fatalf("putc(0x1FF) = %v, want EINVAL", e)
	}
}

func TestCellStateStringAndErrnoString(t *testing.T) {
	if CellRunning.String() != "running" || CellFailed.String() != "failed" {
		t.Fatal("CellState strings")
	}
	if EINVAL.String() != "Invalid argument" {
		t.Fatalf("EINVAL = %q", EINVAL.String())
	}
	if !EINVAL.Failed() || EOK.Failed() {
		t.Fatal("Failed()")
	}
	if PointTrap.String() != "arch_handle_trap" || PointHVC.String() != "arch_handle_hvc" ||
		PointIRQChip.String() != "irqchip_handle_irq" {
		t.Fatal("injection point names")
	}
}

func TestGetStateOfMissingCell(t *testing.T) {
	_, h := rig(t)
	if e := h.HVC(0, HCCellGetState, 42, 0); e != ENOENT {
		t.Fatalf("GET_STATE(42) = %v, want ENOENT", e)
	}
	if e := h.HVC(0, HCCellDestroy, 42, 0); e != ENOENT {
		t.Fatalf("DESTROY(42) = %v", e)
	}
	if e := h.HVC(0, HCCellStart, 42, 0); e != ENOENT {
		t.Fatalf("START(42) = %v", e)
	}
}

func TestMemmapCarveViaLifecycle(t *testing.T) {
	s := memmap.NewStage2()
	if err := s.Map(memmap.Region{Phys: 0x4000_0000, Virt: 0x4000_0000, Size: 0x1000_0000, Flags: memmap.FlagRead | memmap.FlagWrite}); err != nil {
		t.Fatal(err)
	}
	if n := s.Carve(0x4800_0000, 0x0100_0000); n != 1 {
		t.Fatalf("Carve affected %d regions", n)
	}
	if _, _, f := s.Resolve(0x4800_0000, memmap.AccessRead); f == memmap.FaultNone {
		t.Fatal("carved window still resolves")
	}
	// Both remainders still work and translate correctly.
	hpa, _, f := s.Resolve(0x4000_0000, memmap.AccessRead)
	if f != memmap.FaultNone || hpa != 0x4000_0000 {
		t.Fatalf("left remainder: %#x fault %v", hpa, f)
	}
	hpa, _, f = s.Resolve(0x4900_0000, memmap.AccessRead)
	if f != memmap.FaultNone || hpa != 0x4900_0000 {
		t.Fatalf("right remainder: %#x fault %v", hpa, f)
	}
}

func TestGuestMRCEmulation(t *testing.T) {
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	createFreeRTOSCell(t, brd, h, guest)

	// The cell reads its MPIDR through the trapped CP15 path: affinity 1.
	v := h.GuestMRC(1, armv7.CP15MPIDR)
	if v&0xFF != 1 {
		t.Fatalf("cell MPIDR = %#x, want Aff0=1", v)
	}
	if mid := h.GuestMRC(1, armv7.CP15MIDR); mid != 0x410FC075 {
		t.Fatalf("MIDR = %#x, want Cortex-A7", mid)
	}
	// Filtered registers read as zero.
	if act := h.GuestMRC(1, armv7.CP15ACTLR); act != 0 {
		t.Fatalf("ACTLR = %#x, want RAZ", act)
	}
	// The accesses were counted as CP15 exits.
	if h.PerCPU(1).Stats[ExitCP15] < 3 {
		t.Fatalf("cp15 exits = %d", h.PerCPU(1).Stats[ExitCP15])
	}
}

func TestHypercallTraceRendersErrnoString(t *testing.T) {
	_, h := rig(t)
	calls := []struct {
		code, arg1 uint32
		want       Errno
	}{
		{HCHypervisorGetInfo, InfoNumCells, 1},        // unnamed value
		{HCHypervisorGetInfo, InfoMemPoolSize, 16384}, // unnamed value
		{HCCellCreate, 0x1000, EINVAL},                // named errno
		{0xFF, 0, ENOSYS},                             // named errno
		{HCDebugConsolePutc, 'x', EOK},                // named "OK"
		{HCDebugConsolePutc, 0x1FF, EINVAL},           // named errno
	}
	for _, c := range calls {
		got := h.HVC(0, c.code, c.arg1, 0)
		if got != c.want {
			t.Fatalf("HVC %#x(%#x) = %v, want %v", c.code, c.arg1, got, c.want)
		}
		recs := h.brd.Trace().Filter(sim.KindHypercall)
		if len(recs) == 0 {
			t.Fatal("no hypercall record")
		}
		msg := recs[len(recs)-1].Msg
		suffix := fmt.Sprintf(" = %d (%s)", int32(got), got.String())
		if !strings.HasSuffix(msg, suffix) {
			t.Fatalf("record %q does not end in %q", msg, suffix)
		}
	}
}

// consoleContains reports whether any hypervisor console line contains s.
func consoleContains(h *Hypervisor, s string) bool {
	return slices.ContainsFunc(h.ConsoleLines, func(l string) bool { return strings.Contains(l, s) })
}

// TestRestoreClearsHookAndSpliceKeepsIt: checkpoints hold no injection
// hook. A restore leaves none installed, whatever the hypervisor held
// at capture, and a splice keeps the run's own.
func TestRestoreClearsHookAndSpliceKeepsIt(t *testing.T) {
	_, h := rig(t)
	var golden, run int
	h.Hook = func(InjectionPoint, int, string, *armv7.TrapContext) InjectionResult {
		golden++
		return InjectionResult{}
	}
	hvc := func() { _ = h.HVC(0, HCHypervisorGetInfo, InfoNumCells, 0) }
	from := h.CaptureSnapshot()
	hvc()
	per := golden // hook calls per hypercall
	to := h.CaptureSnapshot()
	console := h.PublishConsole(nil)

	h.RestoreSnapshot(from, console)
	if h.Hook != nil {
		t.Fatal("restore left the capture-time hook installed")
	}
	h.Hook = func(InjectionPoint, int, string, *armv7.TrapContext) InjectionResult {
		run++
		return InjectionResult{}
	}
	hvc()
	h.Splice(from, to, console)
	golden, run = 0, 0
	hvc()
	if golden != 0 || run != per {
		t.Fatalf("after a splice the golden hook ran %d times and the run's %d, want 0 and %d", golden, run, per)
	}
}

// TestIRQDeliveryFollowsEnabled: the GIC's delivery hook is wired once,
// when the hypervisor is built, and acts only while the hypervisor is
// enabled. An interrupt raised after a disable does not enter
// IRQChipHandleIRQ; after a restore to an enabled checkpoint one does
// again.
func TestIRQDeliveryFollowsEnabled(t *testing.T) {
	brd, h := rig(t)
	entries := 0
	count := func(point InjectionPoint, _ int, _ string, _ *armv7.TrapContext) InjectionResult {
		if point == PointIRQChip {
			entries++
		}
		return InjectionResult{}
	}
	h.Hook = count
	for off, v := range map[uint64]uint32{gic.GICDCtlr: 1, gic.GICDISEnabler: 1 << gic.IRQVirtualTimer} {
		if err := brd.GIC.WriteReg(off, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	raise := func() {
		if err := brd.GIC.RaisePPI(0, gic.IRQVirtualTimer); err != nil {
			t.Fatal(err)
		}
	}
	raise()
	if entries != 1 {
		t.Fatalf("enabled hypervisor: %d IRQ entries, want 1", entries)
	}
	enabled := h.CaptureSnapshot()
	console := h.PublishConsole(nil)

	if e := h.HVC(0, HCDisable, 0, 0); e.Failed() {
		t.Fatalf("Disable: %v", e)
	}
	raise()
	if entries != 1 {
		t.Fatal("an IRQ raised after the disable entered IRQChipHandleIRQ")
	}

	h.RestoreSnapshot(enabled, console)
	h.Hook = count
	raise()
	if entries != 2 {
		t.Fatalf("after a restore to an enabled checkpoint: %d IRQ entries, want 2", entries)
	}
}
