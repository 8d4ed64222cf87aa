package jailhouse

import (
	"fmt"

	"github.com/dessertlab/certify/internal/memmap"
)

// Inmate is the software loaded into a cell — a guest OS plus its
// workload. Guest models (internal/guest/...) implement it. The
// hypervisor calls these methods; guests call back into the hypervisor
// through the GuestPort API (HVC, GuestRead32/GuestWrite32, SMC).
type Inmate interface {
	// Name identifies the guest in traces.
	Name() string
	// Boot starts the guest on the given CPU. Called once per cell CPU
	// when the cell starts (after CPU reset).
	Boot(cpu int)
	// OnIRQ delivers a virtual interrupt while the guest is running.
	OnIRQ(cpu, irq int)
	// OnCorruptedResume informs the guest that the hypervisor restored a
	// modified register frame: fields lists the trap-context slots whose
	// values changed across the handler. The guest decides — per its
	// documented register image — whether that corruption is fatal,
	// latent or benign.
	OnCorruptedResume(cpu int, fields []int)
	// OnCPUParked tells the guest the hypervisor parked one of its CPUs;
	// the guest stops scheduling work there.
	OnCPUParked(cpu int)
	// OnShutdown delivers the SHUTDOWN_REQUEST comm-region message.
	OnShutdown()
}

// Cell is the runtime state of one partition.
type Cell struct {
	ID     uint32
	Config *CellConfig

	// cellState is the cell's scalar content: a restore assigns it, and
	// a rejoin check compares it with ==.
	cellState

	// Stage2 is the cell's guest-physical address space.
	Stage2 *memmap.Stage2

	// virqMsg caches the rendered per-IRQ injection trace line ("vIRQ n →
	// cell name"), indexed by IRQ. The line is emitted once per delivered
	// virtual interrupt — the single hottest trace record in a campaign —
	// and its text depends only on the IRQ number and the cell's fixed
	// configured name, so rendering it once and appending the cached
	// string keeps the per-tick path free of format-arg bookkeeping. Pure
	// cache: not part of any snapshot or digest.
	virqMsg []string
}

// cellState is a cell's content apart from its address space and IRQ
// lines, one comparable value.
type cellState struct {
	State CellState

	// CPUs currently assigned (may differ transiently from the config
	// during create/destroy).
	cpus cpuSet

	// Loadable reports whether the cell's loadable regions are mapped
	// into the root cell for image loading (SET_LOADABLE issued).
	Loadable bool

	// Guest is the inmate software, attached by LoadInmate.
	Guest Inmate
}

func newCell(id uint32, cfg *CellConfig) (*Cell, error) {
	s2 := memmap.NewStage2()
	for _, r := range cfg.MemRegions {
		if err := s2.Map(r); err != nil {
			return nil, err
		}
	}
	return &Cell{
		ID:        id,
		Config:    cfg,
		cellState: cellState{State: CellShutDown, cpus: cpuSet(cfg.CPUSet)},
		Stage2:    s2,
	}, nil
}

// Name returns the cell's configured name.
func (c *Cell) Name() string { return c.Config.Name }

// HasCPU reports whether cpu is currently assigned to the cell.
func (c *Cell) HasCPU(cpu int) bool { return c.cpus.has(cpu) }

// CPUList returns the assigned CPUs in ascending order.
func (c *Cell) CPUList() []int { return c.cpus.list() }

// OwnsMMIO reports whether gpa falls inside any of the cell's regions
// carrying the IO flag (direct-assigned device windows).
func (c *Cell) OwnsMMIO(gpa uint64) bool {
	r, ok := c.Stage2.Lookup(gpa)
	return ok && r.Flags&memmap.FlagIO != 0
}

// String renders the cell like "jailhouse cell list" output.
func (c *Cell) String() string {
	return fmt.Sprintf("%-24s %-14s cpus=%v", c.Name(), c.State, c.CPUList())
}
