package gic

import (
	"testing"
	"testing/quick"
)

// armed returns a distributor with both the distributor and all CPU
// interfaces enabled — the steady state after OS boot.
func armed(numCPUs int) *Distributor {
	d := New(numCPUs)
	d.EnableDistributor(true)
	for i := 0; i < numCPUs; i++ {
		d.EnableCPUInterface(i, true)
	}
	return d
}

func TestIRQClassPredicates(t *testing.T) {
	tests := []struct {
		id            int
		sgi, ppi, spi bool
	}{
		{0, true, false, false},
		{15, true, false, false},
		{16, false, true, false},
		{27, false, true, false},
		{31, false, true, false},
		{32, false, false, true},
		{MaxIRQ - 1, false, false, true},
		{MaxIRQ, false, false, false},
		{-1, false, false, false},
	}
	for _, tt := range tests {
		if IsSGI(tt.id) != tt.sgi || IsPPI(tt.id) != tt.ppi || IsSPI(tt.id) != tt.spi {
			t.Errorf("id %d: got (%v,%v,%v)", tt.id, IsSGI(tt.id), IsPPI(tt.id), IsSPI(tt.id))
		}
	}
}

func TestSPIRoutingToTargets(t *testing.T) {
	d := armed(2)
	const irq = 40
	d.EnableIRQ(irq)
	d.SetTargets(irq, 0b10) // cpu1 only
	if err := d.RaiseSPI(irq); err != nil {
		t.Fatal(err)
	}
	if d.Pending(0, irq) {
		t.Fatal("SPI delivered to untargeted cpu0")
	}
	if !d.Pending(1, irq) {
		t.Fatal("SPI not pending on targeted cpu1")
	}
	got, _ := d.Acknowledge(1)
	if got != irq {
		t.Fatalf("Acknowledge = %d", got)
	}
	if !d.Active(1, irq) || d.Pending(1, irq) {
		t.Fatal("ack did not move pending→active")
	}
	d.EOI(1, irq)
	if d.Active(1, irq) {
		t.Fatal("EOI did not deactivate")
	}
}

func TestPPIIsPerCPU(t *testing.T) {
	d := armed(2)
	d.EnableIRQ(IRQVirtualTimer)
	if err := d.RaisePPI(0, IRQVirtualTimer); err != nil {
		t.Fatal(err)
	}
	if d.Pending(1, IRQVirtualTimer) {
		t.Fatal("PPI leaked to other core")
	}
	if got, _ := d.Acknowledge(0); got != IRQVirtualTimer {
		t.Fatalf("ack = %d", got)
	}
}

func TestRaiseValidation(t *testing.T) {
	d := armed(2)
	if err := d.RaiseSPI(5); err == nil {
		t.Fatal("RaiseSPI accepted an SGI id")
	}
	if err := d.RaisePPI(0, 40); err == nil {
		t.Fatal("RaisePPI accepted an SPI id")
	}
	if err := d.RaisePPI(7, 27); err == nil {
		t.Fatal("RaisePPI accepted bad cpu")
	}
}

func TestSGIFanOut(t *testing.T) {
	d := armed(2)
	d.EnableIRQ(0)
	if err := d.SendSGI(0, 0b11, 0); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 2; cpu++ {
		irq, src := d.Acknowledge(cpu)
		if irq != 0 || src != 0 {
			t.Fatalf("cpu%d ack = irq %d src %d", cpu, irq, src)
		}
	}
	if err := d.SendSGI(0, 0b11, 40); err == nil {
		t.Fatal("SendSGI accepted an SPI id")
	}
}

func TestAcknowledgePriorityOrder(t *testing.T) {
	d := armed(1)
	for _, irq := range []int{40, 41, 42} {
		d.EnableIRQ(irq)
		d.SetTargets(irq, 1)
	}
	d.SetPriority(40, 0xB0)
	d.SetPriority(41, 0x10) // highest (lowest value)
	d.SetPriority(42, 0x60)
	for _, irq := range []int{40, 41, 42} {
		_ = d.RaiseSPI(irq)
	}
	want := []int{41, 42, 40}
	for _, w := range want {
		got, _ := d.Acknowledge(0)
		if got != w {
			t.Fatalf("ack order got %d, want %d", got, w)
		}
		d.EOI(0, got)
	}
}

func TestSpuriousWhenNothingPending(t *testing.T) {
	d := armed(1)
	if irq, _ := d.Acknowledge(0); irq != SpuriousIRQ {
		t.Fatalf("ack on idle = %d", irq)
	}
	if irq, _ := d.Acknowledge(99); irq != SpuriousIRQ {
		t.Fatalf("ack on bad cpu = %d", irq)
	}
}

func TestDisabledPathsBlockDelivery(t *testing.T) {
	const irq = 50
	cases := []struct {
		name string
		prep func(*Distributor)
	}{
		{"distributor off", func(d *Distributor) { d.EnableDistributor(false) }},
		{"cpu iface off", func(d *Distributor) { d.EnableCPUInterface(0, false) }},
		{"irq disabled", func(d *Distributor) { d.DisableIRQ(irq) }},
		{"priority masked", func(d *Distributor) { d.SetPriorityMask(0, 0x10) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := armed(1)
			d.EnableIRQ(irq)
			d.SetTargets(irq, 1)
			d.SetPriority(irq, 0xA0)
			tc.prep(d)
			_ = d.RaiseSPI(irq)
			if got, _ := d.Acknowledge(0); got != SpuriousIRQ {
				t.Fatalf("ack = %d, want spurious", got)
			}
		})
	}
}

func TestDeliverHookFires(t *testing.T) {
	d := armed(2)
	var calls []struct{ cpu, irq int }
	d.DeliverHook = func(cpu, irq int) {
		calls = append(calls, struct{ cpu, irq int }{cpu, irq})
	}
	d.EnableIRQ(40)
	d.SetTargets(40, 0b01)
	_ = d.RaiseSPI(40)
	if len(calls) != 1 || calls[0].cpu != 0 || calls[0].irq != 40 {
		t.Fatalf("hook calls = %v", calls)
	}
	// Undeliverable IRQ must not fire the hook.
	d.DisableIRQ(40)
	_ = d.RaiseSPI(40)
	if len(calls) != 1 {
		t.Fatal("hook fired for masked IRQ")
	}
}

func TestClearCPU(t *testing.T) {
	d := armed(1)
	d.EnableIRQ(40)
	d.SetTargets(40, 1)
	_ = d.RaiseSPI(40)
	d.ClearCPU(0)
	if d.cpu(0).pending != (irqSet{}) {
		t.Fatal("ClearCPU left pending state")
	}
	if got, _ := d.Acknowledge(0); got != SpuriousIRQ {
		t.Fatal("interrupt survived ClearCPU")
	}
}

func TestMMIOCtlrTyper(t *testing.T) {
	d := New(2)
	v, err := d.ReadReg(GICDCtlr)
	if err != nil || v != 0 {
		t.Fatalf("CTLR = %d, %v", v, err)
	}
	if err := d.WriteReg(GICDCtlr, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !d.DistributorEnabled() {
		t.Fatal("CTLR write did not enable")
	}
	typer, err := d.ReadReg(GICDTyper)
	if err != nil {
		t.Fatal(err)
	}
	if itLines := typer & 0x1F; itLines != uint32(MaxIRQ/32-1) {
		t.Fatalf("TYPER ITLinesNumber = %d", itLines)
	}
	if cpus := (typer >> 5) & 0x7; cpus != 1 {
		t.Fatalf("TYPER CPUNumber = %d, want 1 (two cores)", cpus)
	}
}

func TestMMIOEnableDisableRoundTrip(t *testing.T) {
	d := New(1)
	// Enable IRQs 32..63 via ISENABLER word 1.
	if err := d.WriteReg(GICDISEnabler+4, 0xFFFFFFFF, 0); err != nil {
		t.Fatal(err)
	}
	for id := 32; id < 64; id++ {
		if !d.IRQEnabled(id) {
			t.Fatalf("irq %d not enabled via MMIO", id)
		}
	}
	v, _ := d.ReadReg(GICDISEnabler + 4)
	if v != 0xFFFFFFFF {
		t.Fatalf("ISENABLER readback = %#x", v)
	}
	// Clear two of them via ICENABLER.
	if err := d.WriteReg(GICDICEnabler+4, 0b11, 0); err != nil {
		t.Fatal(err)
	}
	if d.IRQEnabled(32) || d.IRQEnabled(33) || !d.IRQEnabled(34) {
		t.Fatal("ICENABLER write wrong")
	}
}

func TestMMIOPriorityAndTargets(t *testing.T) {
	d := New(2)
	if err := d.WriteReg(GICDIPriorityr+40, 0x10203040, 0); err != nil {
		t.Fatal(err)
	}
	if d.Priority(40) != 0x40 || d.Priority(43) != 0x10 {
		t.Fatalf("priorities = %#x %#x", d.Priority(40), d.Priority(43))
	}
	v, _ := d.ReadReg(GICDIPriorityr + 40)
	if v != 0x10203040 {
		t.Fatalf("priority readback = %#x", v)
	}
	if err := d.WriteReg(GICDITargetsr+40, 0x01020102, 0); err != nil {
		t.Fatal(err)
	}
	if d.Targets(40) != 0x02 || d.Targets(41) != 0x01 {
		t.Fatalf("targets = %#x %#x", d.Targets(40), d.Targets(41))
	}
}

func TestMMIOSGIR(t *testing.T) {
	d := armed(2)
	d.EnableIRQ(3)
	// Filter 0: explicit target list = cpu1 (bit 1 of the list field).
	if err := d.WriteReg(GICDSgir, 2<<16|3, 0); err != nil {
		t.Fatal(err)
	}
	if irq, src := d.Acknowledge(1); irq != 3 || src != 0 {
		t.Fatalf("cpu1 ack = %d src %d", irq, src)
	}
	d.EOI(1, 3)
	// Filter 1: all but self, from cpu1 → cpu0.
	if err := d.WriteReg(GICDSgir, 1<<24|3, 1); err != nil {
		t.Fatal(err)
	}
	if irq, src := d.Acknowledge(0); irq != 3 || src != 1 {
		t.Fatalf("cpu0 ack = %d src %d", irq, src)
	}
	d.EOI(0, 3)
	if d.Pending(1, 3) {
		t.Fatal("filter-1 SGI hit self")
	}
	// Filter 2: self only.
	if err := d.WriteReg(GICDSgir, 2<<24|3, 0); err != nil {
		t.Fatal(err)
	}
	if irq, _ := d.Acknowledge(0); irq != 3 {
		t.Fatal("filter-2 SGI missed self")
	}
}

func TestMMIOBadOffset(t *testing.T) {
	d := New(1)
	if _, err := d.ReadReg(0xFF8); err == nil {
		t.Fatal("bad read offset accepted")
	}
	err := d.WriteReg(0xFF8, 0, 0)
	var bad *ErrBadOffset
	if err == nil {
		t.Fatal("bad write offset accepted")
	}
	if ok := errorsAs(err, &bad); !ok || !bad.Write {
		t.Fatalf("err = %v", err)
	}
}

// errorsAs is a tiny local shim so the test file avoids importing errors
// for one call.
func errorsAs(err error, target **ErrBadOffset) bool {
	if e, ok := err.(*ErrBadOffset); ok {
		*target = e
		return true
	}
	return false
}

// Property: an enabled, targeted, unmasked SPI raised on a fully armed
// distributor is always retrievable by exactly its targeted CPU.
func TestPropertySPIDelivery(t *testing.T) {
	prop := func(irqRaw uint8, cpuRaw uint8) bool {
		irq := 32 + int(irqRaw)%(MaxIRQ-32)
		cpu := int(cpuRaw) % 2
		d := armed(2)
		d.EnableIRQ(irq)
		d.SetTargets(irq, 1<<uint(cpu))
		if err := d.RaiseSPI(irq); err != nil {
			return false
		}
		got, _ := d.Acknowledge(cpu)
		other, _ := d.Acknowledge(1 - cpu)
		return got == irq && other == SpuriousIRQ
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
