package jailhouse

import (
	"fmt"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/memmap"
	"github.com/dessertlab/certify/internal/sim"
)

// maxConfigBlob is the guest-memory window CELL_CREATE accepts a config
// blob from: a blob whose window leaves RAM is refused, so a corrupted
// size cannot drag the hypervisor through the whole of DRAM. Only the
// first maxBlobSize bytes are read — the most a blob within the region
// and IRQ-line limits can use.
const (
	maxConfigBlob = 64 * 1024
	maxBlobSize   = configHeaderSize + maxRegions*regionEncSize + maxIRQLines*4
)

// ArchHandleHVC is the hypercall entry — Jailhouse's arch_handle_hvc().
// The hypercall ABI mirrors the real one: the guest executes
// HVC #0x4a48 with the code in r0 and arguments in r1/r2; the result
// replaces r0. Anything malformed — wrong immediate, unknown code,
// unreadable or unparsable config — produces a negative errno, which the
// root cell's tooling prints as "Invalid argument": the paper's E1
// observation.
func (h *Hypervisor) ArchHandleHVC(cpu int, ctx *armv7.TrapContext) {
	res, proceed := h.enterHandler(PointHVC, cpu, ExitNone, ctx)
	if !proceed {
		return
	}

	if armv7.HVCImmediate(ctx.HSR) != armv7.JailhouseHVCImm {
		// Not a Jailhouse hypercall. Real hardware would deliver an
		// UNDEF to the guest; the model reports ENOSYS.
		ctx.WriteReg(0, errnoWord(ENOSYS))
		h.notifyCorruptedResume(cpu, ctx, res)
		return
	}

	code, arg1, arg2 := ctx.Regs[0], ctx.Regs[1], ctx.Regs[2]
	result := h.hypercall(cpu, code, arg1, arg2)
	// The result renders as Errno.String does; an unnamed value formats
	// in the record, so no string is built per call.
	format, what := "%s(%#x, %#x) = %d (errno(%d))", sim.Int(int64(int32(result)))
	if name, ok := errnoNames[result]; ok {
		format, what = "%s(%#x, %#x) = %d (%s)", sim.Str(name)
	}
	h.trace(sim.KindHypercall, cpu, format,
		sim.Str(HypercallName(code)), sim.Uint(uint64(arg1)), sim.Uint(uint64(arg2)),
		sim.Int(int64(int32(result))), what)
	ctx.WriteReg(0, errnoWord(result))
	h.notifyCorruptedResume(cpu, ctx, res)
}

// errnoWord encodes a hypercall result into the r0 register word.
func errnoWord(e Errno) uint32 { return uint32(int32(e)) }

// hypercall dispatches one management hypercall.
func (h *Hypervisor) hypercall(cpu int, code, arg1, arg2 uint32) Errno {
	if code >= numHypercalls {
		return ENOSYS
	}
	cell := h.cellOf(cpu)
	if cell == nil {
		return EPERM
	}
	// Management operations are the root cell's privilege.
	mgmt := code == HCDisable || code == HCCellCreate || code == HCCellStart ||
		code == HCCellSetLoadable || code == HCCellDestroy
	if mgmt && cell.ID != 0 {
		return EPERM
	}

	switch code {
	case HCDisable:
		return h.Disable()
	case HCCellCreate:
		return h.cellCreate(arg1)
	case HCCellStart:
		return h.cellStart(arg1)
	case HCCellSetLoadable:
		return h.cellSetLoadable(arg1)
	case HCCellDestroy:
		return h.cellDestroy(arg1)
	case HCHypervisorGetInfo:
		return h.getInfo(arg1)
	case HCCellGetState:
		return h.cellGetState(arg1)
	case HCCPUGetInfo:
		return h.cpuGetInfo(arg1, arg2)
	case HCDebugConsolePutc:
		if arg1 > 0xFF {
			return EINVAL
		}
		h.consolePutc(byte(arg1))
		return EOK
	default:
		return ENOSYS
	}
}

// consolePutc models the debug-console hypercall's byte sink.
func (h *Hypervisor) consolePutc(b byte) {
	if b == '\n' {
		h.consolef("%s", string(h.putcAccum))
		h.putcAccum = h.putcAccum[:0]
		return
	}
	h.putcAccum = append(h.putcAccum, b)
}

// cellCreate implements CELL_CREATE: read the config blob from root
// memory at guest-physical configGPA, validate everything, and carve the
// new cell out of the root cell's resources.
func (h *Hypervisor) cellCreate(configGPA uint32) Errno {
	root := h.RootCell()

	// The config pointer must resolve through the root cell's own
	// mappings — a corrupted pointer fails here with EINVAL.
	hpa, _, f := root.Stage2.Resolve(uint64(configGPA), memmap.AccessRead)
	if f != memmap.FaultNone {
		h.consolef("cell create: cannot access config at %#x", configGPA)
		return EINVAL
	}
	head := h.configBuf[:configHeaderSize]
	if h.brd.RAM.ReadInto(hpa, head) != nil {
		return EINVAL
	}
	if string(head[0:6]) != ConfigSignature {
		h.consolef("cell create: bad config signature")
		return EINVAL
	}
	// Probe the full blob size from the header, bounded.
	cfg, err := UnmarshalCellConfig(head)
	if err != nil {
		// Header alone may be insufficient (region payload follows):
		// retry with the whole blob when its window lies in RAM.
		if !h.brd.RAM.InRange(hpa, maxConfigBlob) || h.brd.RAM.ReadInto(hpa, h.configBuf[:]) != nil {
			return EINVAL
		}
		cfg, err = UnmarshalCellConfig(h.configBuf[:])
		if err != nil {
			h.consolef("cell create: %v", err)
			return EINVAL
		}
	}

	if _, exists := h.CellByName(cfg.Name); exists {
		return EEXIST
	}

	// Every CPU the new cell wants must have been offlined by root
	// first (the hotplug handshake), and must belong to root.
	for _, cpu := range cfg.CPUs() {
		p := h.PerCPU(cpu)
		if p == nil {
			return EINVAL
		}
		if p.cell != root {
			return EBUSY
		}
		if !h.rootOfflined.has(cpu) {
			h.consolef("cell create: CPU %d not offlined by root", cpu)
			return EBUSY
		}
	}

	// Memory regions must not collide with other non-root cells; they
	// are carved from root's space (ROOTSHARED regions stay shared).
	for _, r := range cfg.MemRegions {
		for _, other := range h.cells[1:] {
			for _, or := range other.Config.MemRegions {
				if r.OverlapsPhys(or) && r.Flags&memmap.FlagRootShared == 0 {
					h.consolef("cell create: region %v overlaps cell %q", r, other.Name())
					return EBUSY
				}
			}
		}
		if r.OverlapsPhys(h.sysCfg.HypMemory) {
			return EINVAL
		}
	}

	cell, err := newCell(h.nextCellID, cfg)
	if err != nil {
		return EINVAL
	}
	h.nextCellID++

	// Donate the CPUs.
	for _, cpu := range cfg.CPUs() {
		root.cpus.remove(cpu)
		cell.cpus.add(cpu)
		p := h.PerCPU(cpu)
		p.cell = cell
		p.Parked = false
		p.OnlineInCell = false
		p.repair()
	}
	// Donate the memory: non-shared regions disappear from the root
	// cell's address space (root is identity-mapped, so the carve window
	// is the physical window).
	for _, r := range cfg.MemRegions {
		if r.Flags&(memmap.FlagRootShared|memmap.FlagCommRegion) == 0 {
			root.Stage2.Carve(r.Phys, r.Size)
		}
	}
	h.cells = append(h.cells, cell)
	h.consolef("Created cell \"%s\"", cfg.Name)
	h.trace(sim.KindCellEvent, -1, "cell %q created (id %d, cpus %v)",
		sim.Str(cfg.Name), sim.Int(int64(cell.ID)), sim.Str(fmt.Sprint(cfg.CPUs())))
	return Errno(cell.ID)
}

// cellSetLoadable implements CELL_SET_LOADABLE: stop the cell and map its
// loadable regions into the root cell so images can be written.
func (h *Hypervisor) cellSetLoadable(id uint32) Errno {
	cell, ok := h.CellByID(id)
	if !ok || cell.ID == 0 {
		return ENOENT
	}
	cell.State = CellShutDown
	cell.Loadable = true
	for _, cpu := range cell.CPUList() {
		p := h.PerCPU(cpu)
		p.OnlineInCell = false
	}
	// Loadable regions become visible to root for image writing.
	root := h.RootCell()
	for _, r := range cell.Config.MemRegions {
		if r.Flags&memmap.FlagLoadable != 0 {
			_ = root.Stage2.Map(memmap.Region{
				Phys: r.Phys, Virt: r.Phys, Size: r.Size,
				Flags: memmap.FlagRead | memmap.FlagWrite,
			})
		}
	}
	h.trace(sim.KindCellEvent, -1, "cell %q set loadable", sim.Str(cell.Name()))
	return EOK
}

// cellStart implements CELL_START: reset the cell's CPUs and kick them
// into the guest via the start SGI. The SGI travels through the real
// interrupt path — IRQChipHandleIRQ on the target CPU — which is exactly
// where the E2 experiment's injections break the bring-up.
func (h *Hypervisor) cellStart(id uint32) Errno {
	cell, ok := h.CellByID(id)
	if !ok || cell.ID == 0 {
		return ENOENT
	}
	if cell.State == CellRunning {
		return EBUSY
	}
	if cell.Guest == nil {
		h.consolef("cell start: no image loaded in \"%s\"", cell.Name())
		return EINVAL
	}
	// Loadable windows leave the root cell again.
	if cell.Loadable {
		root := h.RootCell()
		for _, r := range cell.Config.MemRegions {
			if r.Flags&memmap.FlagLoadable != 0 {
				root.Stage2.Carve(r.Phys, r.Size)
			}
		}
	}
	cell.Loadable = false
	cell.State = CellRunning
	h.consolef("Started cell \"%s\"", cell.Name())
	h.trace(sim.KindCellEvent, -1, "cell %q started", sim.Str(cell.Name()))

	for _, cpu := range cell.CPUList() {
		p := h.PerCPU(cpu)
		p.Parked = false
		p.repair()
		h.brd.CPUs[cpu].Parked = false
		h.brd.CPUs[cpu].Online = true
		// The bring-up kick: SGI 0 to the target CPU, delivered through
		// the distributor like any other interrupt.
		h.brd.GIC.EnableDistributor(true)
		h.brd.GIC.EnableCPUInterface(cpu, true)
		h.brd.GIC.EnableIRQ(sgiEventStart)
		if err := h.brd.GIC.SendSGI(0, 1<<uint(cpu), sgiEventStart); err != nil {
			return EIO
		}
	}
	return EOK
}

// cellDestroy implements CELL_DESTROY: tear the cell down whatever state
// it is in, returning CPUs and memory to the root cell. The paper's E3
// verifies this still works after a CPU park — the fault stayed isolated.
func (h *Hypervisor) cellDestroy(id uint32) Errno {
	cell, ok := h.CellByID(id)
	if !ok || cell.ID == 0 {
		return ENOENT
	}
	root := h.RootCell()
	for _, cpu := range cell.CPUList() {
		p := h.PerCPU(cpu)
		cell.cpus.remove(cpu)
		root.cpus.add(cpu)
		p.cell = root
		p.Parked = false
		p.OnlineInCell = false
		p.repair()
		h.brd.CPUs[cpu].Parked = false
		h.brd.CPUs[cpu].Online = false
		h.rootOfflined.add(cpu) // back in root's hotplug pool
		h.brd.GIC.ClearCPU(cpu)
		h.brd.StopTimer(cpu)
	}
	if cell.Guest != nil {
		cell.Guest.OnShutdown()
		cell.Guest = nil
	}
	// Memory returns to the root cell (identity-mapped). Overlap errors
	// are impossible for regions that were carved at create time; shared
	// regions were never removed and are skipped.
	for _, r := range cell.Config.MemRegions {
		if r.Flags&(memmap.FlagRootShared|memmap.FlagCommRegion) == 0 {
			_ = root.Stage2.Map(memmap.Region{
				Phys: r.Phys, Virt: r.Phys, Size: r.Size, Flags: r.Flags,
			})
		}
	}
	for i, c := range h.cells {
		if c == cell {
			h.cells = append(h.cells[:i], h.cells[i+1:]...)
			break
		}
	}
	h.consolef("Closed cell \"%s\"", cell.Name())
	h.trace(sim.KindCellEvent, -1, "cell %q destroyed", sim.Str(cell.Name()))
	return EOK
}

// cellGetState implements CELL_GET_STATE.
func (h *Hypervisor) cellGetState(id uint32) Errno {
	cell, ok := h.CellByID(id)
	if !ok {
		return ENOENT
	}
	return Errno(cell.State)
}

// getInfo implements HYPERVISOR_GET_INFO.
func (h *Hypervisor) getInfo(item uint32) Errno {
	switch item {
	case InfoMemPoolSize:
		return Errno(16384)
	case InfoMemPoolUsed:
		return Errno(512 + 128*len(h.cells))
	case InfoNumCells:
		return Errno(len(h.cells))
	case InfoCodeVersion:
		return Errno(12) // v0.12
	default:
		return EINVAL
	}
}

// cpuGetInfo implements CPU_GET_INFO.
func (h *Hypervisor) cpuGetInfo(cpu, item uint32) Errno {
	p := h.PerCPU(int(cpu))
	if p == nil {
		return EINVAL
	}
	switch item {
	case CPUInfoState:
		switch {
		case p.Parked:
			return Errno(CPUStateParked)
		case !p.OnlineInCell:
			return Errno(CPUStateOffline)
		default:
			return Errno(CPUStateRunning)
		}
	case CPUInfoStatParks:
		return Errno(p.Stats[ExitUnhandled])
	default:
		return EINVAL
	}
}

// SGI event IDs used by the hypervisor's management path.
const (
	sgiEventStart = 0 // bring the target CPU online in its cell
	sgiEventPark  = 1 // park the target CPU
)
