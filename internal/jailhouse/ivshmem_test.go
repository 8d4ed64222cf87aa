package jailhouse

import (
	"testing"

	"github.com/dessertlab/certify/internal/memmap"
)

// ivshmemRig builds an enabled hypervisor with the FreeRTOS cell and a
// shared window both cells map.
func ivshmemRig(t *testing.T) (*Hypervisor, *Cell, memmap.Region) {
	t.Helper()
	brd, h := rig(t)
	guest := &fakeInmate{name: "freertos"}
	cell := createFreeRTOSCell(t, brd, h, guest)
	// The comm-region page is mapped rootshared by both sides.
	shared := memmap.Region{
		Phys: CommRegionBase, Virt: CommRegionBase, Size: CommRegionSize,
		Flags: memmap.FlagRead | memmap.FlagWrite | memmap.FlagRootShared,
	}
	return h, cell, shared
}

func TestIvshmemLinkSetup(t *testing.T) {
	h, cell, shared := ivshmemRig(t)
	link, err := h.AddIvshmem(0, cell.ID, shared, 60, 61)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.IvshmemLinks()) != 1 {
		t.Fatal("link not registered")
	}
	if !consoleContains(h, "virtual PCI device") {
		t.Fatal("missing device-add console lines")
	}
	a, b := link.Rings()
	if a != 0 || b != 0 {
		t.Fatal("fresh link has rings")
	}
}

func TestIvshmemSetupValidation(t *testing.T) {
	h, cell, shared := ivshmemRig(t)
	if _, err := h.AddIvshmem(0, 42, shared, 60, 61); err == nil {
		t.Fatal("link to missing cell accepted")
	}
	if _, err := h.AddIvshmem(cell.ID, cell.ID, shared, 60, 61); err == nil {
		t.Fatal("self-loop accepted")
	}
	unmapped := memmap.Region{Phys: 0x7000_0000, Virt: 0x7000_0000, Size: 0x1000}
	if _, err := h.AddIvshmem(0, cell.ID, unmapped, 60, 61); err == nil {
		t.Fatal("link over unmapped window accepted")
	}
}

func TestIvshmemDoorbellDelivery(t *testing.T) {
	h, cell, shared := ivshmemRig(t)
	guest, ok := cell.Guest.(*fakeInmate)
	if !ok {
		t.Fatal("unexpected guest type")
	}
	link, err := h.AddIvshmem(0, cell.ID, shared, 60, 61)
	if err != nil {
		t.Fatal(err)
	}
	// Root rings → the FreeRTOS cell's doorbell SPI 61 arrives.
	if err := h.Ring(link, 0); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, irq := range guest.irqs {
		if irq[0] == 1 && irq[1] == 61 {
			found = true
		}
	}
	if !found {
		t.Fatalf("doorbell not delivered; guest irqs = %v", guest.irqs)
	}
	if a, _ := link.Rings(); a != 1 {
		t.Fatalf("ringsA = %d", a)
	}
}

func TestIvshmemThirdPartyCannotRing(t *testing.T) {
	h, cell, shared := ivshmemRig(t)
	link, err := h.AddIvshmem(0, cell.ID, shared, 60, 61)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Ring(link, 99); err == nil {
		t.Fatal("non-peer ring accepted — isolation breach")
	}
	if err := h.Ring(nil, 0); err == nil {
		t.Fatal("nil link accepted")
	}
}

func TestIvshmemSharedMemoryDataPath(t *testing.T) {
	h, cell, shared := ivshmemRig(t)
	if _, err := h.AddIvshmem(0, cell.ID, shared, 60, 61); err != nil {
		t.Fatal(err)
	}
	// Root writes into the shared window; the cell reads the same word
	// through its own stage-2 mapping.
	if err := h.GuestWrite32(0, shared.Virt+0x10, 0xFEEDC0DE); err != nil {
		t.Fatal(err)
	}
	v, err := h.GuestRead32(1, shared.Virt+0x10)
	if err != nil || v != 0xFEEDC0DE {
		t.Fatalf("shared read = %#x, %v", v, err)
	}
}

// TestSetLoadableShutsDownRunningCell: SET_LOADABLE on a running cell
// stops it whatever state its inmate is in; the cell stays configured
// (state SHUT_DOWN), and destroy then removes it.
func TestSetLoadableShutsDownRunningCell(t *testing.T) {
	brd, h := rig(t)
	cell := createFreeRTOSCell(t, brd, h, &fakeInmate{name: "freertos"})
	if e := h.HVC(0, HCCellSetLoadable, uint32(cell.ID), 0); e.Failed() {
		t.Fatal(e)
	}
	if cell.State != CellShutDown {
		t.Fatalf("state after SET_LOADABLE = %v, want shut down", cell.State)
	}
	if _, ok := h.CellByID(cell.ID); !ok {
		t.Fatal("SET_LOADABLE removed the cell (that is destroy's job)")
	}
	if e := h.HVC(0, HCCellDestroy, uint32(cell.ID), 0); e.Failed() {
		t.Fatalf("destroy after shutdown: %v", e)
	}
	if _, ok := h.CellByID(cell.ID); ok {
		t.Fatal("destroy left the shut-down cell")
	}
}
