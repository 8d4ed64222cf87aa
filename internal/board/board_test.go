package board

import (
	"errors"
	"testing"

	"github.com/dessertlab/certify/internal/gic"
	"github.com/dessertlab/certify/internal/sim"
)

func TestNewBoardShape(t *testing.T) {
	b := New(1, Options{})
	if len(b.CPUs) != NumCPUs {
		t.Fatalf("cpu count = %d", len(b.CPUs))
	}
	if !b.CPUs[0].Online || b.CPUs[1].Online {
		t.Fatal("reset online state wrong (cpu0 on, cpu1 off)")
	}
	if !b.RAM.InRange(DRAMBase, 4) || !b.RAM.InRange(DRAMBase+DRAMSize-4, 4) || b.RAM.InRange(DRAMBase+DRAMSize, 4) {
		t.Fatal("DRAM geometry wrong")
	}
}

func TestBusRAMAccess(t *testing.T) {
	b := New(1, Options{})
	if err := b.Write32(0, DRAMBase+0x100, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read32(0, DRAMBase+0x100)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("RAM via bus = %#x, %v", v, err)
	}
}

func TestBusUARTAccess(t *testing.T) {
	b := New(1, Options{})
	for _, c := range []byte("hi\n") {
		if err := b.Write32(0, UART0Base, uint32(c)); err != nil {
			t.Fatal(err)
		}
	}
	if !b.UART0.Contains("hi") {
		t.Fatal("uart0 missed bus write")
	}
	if b.UART7.LineCount() != 0 {
		t.Fatal("uart7 saw uart0 traffic")
	}
}

func TestBusGICAccess(t *testing.T) {
	b := New(1, Options{})
	if err := b.Write32(0, GICDBase+gic.GICDCtlr, 1); err != nil {
		t.Fatal(err)
	}
	if !b.GIC.DistributorEnabled() {
		t.Fatal("GICD write via bus had no effect")
	}
	v, err := b.Read32(0, GICDBase+gic.GICDTyper)
	if err != nil || v == 0 {
		t.Fatalf("TYPER via bus = %#x, %v", v, err)
	}
}

func TestBusGPIOAccess(t *testing.T) {
	b := New(1, Options{})
	if err := b.Write32(0, GPIOBase, 1); err != nil {
		t.Fatal(err)
	}
	if !b.GPIO.Get() {
		t.Fatal("LED write lost")
	}
	v, _ := b.Read32(0, GPIOBase)
	if v != 1 {
		t.Fatalf("LED readback = %d", v)
	}
}

func TestBusFault(t *testing.T) {
	b := New(1, Options{})
	_, err := b.Read32(0, 0x0800_0000)
	var bf *BusFault
	if !errors.As(err, &bf) || bf.Write {
		t.Fatalf("want read bus fault, got %v", err)
	}
	err = b.Write32(0, 0x0800_0000, 1)
	if !errors.As(err, &bf) || !bf.Write {
		t.Fatalf("want write bus fault, got %v", err)
	}
}

func TestTimerRaisesPPI(t *testing.T) {
	b := New(1, Options{})
	b.GIC.EnableDistributor(true)
	b.GIC.EnableCPUInterface(1, true)
	b.GIC.EnableIRQ(gic.IRQVirtualTimer)

	ticks := 0
	b.GIC.DeliverHook = func(cpu, irq int) {
		if cpu == 1 && irq == gic.IRQVirtualTimer {
			ticks++
			b.GIC.ClearCPU(1) // consume so the level stays clean
		}
	}
	b.StartTimer(1, sim.Millisecond)
	if err := b.Engine.Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	b.StopTimer(1)
	before := ticks
	if err := b.Engine.Run(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks != before {
		t.Fatal("timer survived StopTimer")
	}
}

func TestTimerReprogramReplaces(t *testing.T) {
	b := New(1, Options{})
	b.GIC.EnableDistributor(true)
	b.GIC.EnableCPUInterface(0, true)
	b.GIC.EnableIRQ(gic.IRQVirtualTimer)
	n := 0
	b.GIC.DeliverHook = func(cpu, irq int) { n++; b.GIC.ClearCPU(0) }
	b.StartTimer(0, sim.Millisecond)
	b.StartTimer(0, 10*sim.Millisecond) // replaces the 1 ms programming
	_ = b.Engine.Run(30 * sim.Millisecond)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3 (10ms period)", n)
	}
	// Out-of-range CPUs are inert.
	b.StartTimer(99, sim.Millisecond)
	b.StopTimer(-1)
}

func TestDeterministicBoardBuild(t *testing.T) {
	a, b := New(42, Options{}), New(42, Options{})
	_ = a.Write32(0, DRAMBase, 1)
	_ = b.Write32(0, DRAMBase, 1)
	if a.Engine.RNG().Uint64() != b.Engine.RNG().Uint64() {
		t.Fatal("same-seed boards diverged")
	}
}
