package armv7

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewCPUResetState(t *testing.T) {
	c := NewCPU(0)
	if c.Mode() != ModeSVC {
		t.Fatalf("reset mode = %v, want svc", c.Mode())
	}
	if c.CPSR()&CPSRIRQ == 0 || c.CPSR()&CPSRFIQ == 0 {
		t.Fatal("IRQ/FIQ should be masked at reset")
	}
	if !c.Online {
		t.Fatal("cpu0 should be online at reset")
	}
	if NewCPU(1).Online {
		t.Fatal("secondary cpu should be offline at reset")
	}
	if got := NewCPU(1).MPIDR & 0xFF; got != 1 {
		t.Fatalf("cpu1 MPIDR Aff0 = %d, want 1", got)
	}
}

func TestModeString(t *testing.T) {
	valid := []Mode{ModeUSR, ModeFIQ, ModeIRQ, ModeSVC, ModeMON, ModeABT, ModeHYP, ModeUND, ModeSYS}
	for _, m := range valid {
		if strings.HasPrefix(m.String(), "mode(") {
			t.Errorf("mode %v has no name", m)
		}
	}
	if Mode(0x1E).String() != "mode(0x1e)" {
		t.Errorf("undefined mode string = %q", Mode(0x1E).String())
	}
	if ModeHYP.String() != "hyp" {
		t.Errorf("ModeHYP.String() = %q", ModeHYP.String())
	}
	if !strings.Contains(Mode(0x0).String(), "0x0") {
		t.Errorf("invalid mode string = %q", Mode(0).String())
	}
}

func TestRegisterBanking(t *testing.T) {
	c := NewCPU(0)
	c.SetReg(RegSP, 0x1000) // svc sp
	c.SetReg(RegLR, 0x2000) // svc lr
	c.SetReg(RegR4, 0x44)

	c.SetMode(ModeIRQ)
	if c.Reg(RegSP) == 0x1000 {
		t.Fatal("IRQ mode sees SVC sp")
	}
	if c.Reg(RegR4) != 0x44 {
		t.Fatal("r4 is not banked and must survive mode switch")
	}
	c.SetReg(RegSP, 0x3000)

	c.SetMode(ModeSVC)
	if c.Reg(RegSP) != 0x1000 || c.Reg(RegLR) != 0x2000 {
		t.Fatalf("svc bank lost: sp=%#x lr=%#x", c.Reg(RegSP), c.Reg(RegLR))
	}
	c.SetMode(ModeIRQ)
	if c.Reg(RegSP) != 0x3000 {
		t.Fatalf("irq bank lost: sp=%#x", c.Reg(RegSP))
	}
}

func TestUsrSysShareBank(t *testing.T) {
	c := NewCPU(0)
	c.SetMode(ModeUSR)
	c.SetReg(RegSP, 0xAAAA)
	c.SetMode(ModeSYS)
	if c.Reg(RegSP) != 0xAAAA {
		t.Fatal("sys mode must share usr sp bank")
	}
	c.SetMode(ModeSVC)
	c.SetMode(ModeUSR)
	if c.Reg(RegSP) != 0xAAAA {
		t.Fatal("usr sp lost after svc roundtrip")
	}
}

func TestFIQBanksR8R12(t *testing.T) {
	c := NewCPU(0)
	c.SetReg(RegR8, 0x88)
	c.SetReg(RegR12, 0xCC)
	c.SetMode(ModeFIQ)
	if c.Reg(RegR8) == 0x88 {
		t.Fatal("fiq mode must bank r8")
	}
	c.SetReg(RegR8, 0xF8)
	c.SetMode(ModeSVC)
	if c.Reg(RegR8) != 0x88 || c.Reg(RegR12) != 0xCC {
		t.Fatalf("r8/r12 corrupted after fiq roundtrip: %#x %#x", c.Reg(RegR8), c.Reg(RegR12))
	}
	c.SetMode(ModeFIQ)
	if c.Reg(RegR8) != 0xF8 {
		t.Fatalf("fiq r8 bank lost: %#x", c.Reg(RegR8))
	}
}

func TestBankedSPAccessWithoutModeSwitch(t *testing.T) {
	c := NewCPU(0)
	c.SetBankedSP(ModeHYP, 0xD00D)
	if got := c.BankedSP(ModeHYP); got != 0xD00D {
		t.Fatalf("BankedSP(hyp) = %#x", got)
	}
	if c.Mode() != ModeSVC {
		t.Fatal("BankedSP changed the active mode")
	}
	// Current-mode access goes straight to the live register.
	c.SetBankedSP(ModeSVC, 0x5555)
	if c.Reg(RegSP) != 0x5555 {
		t.Fatal("SetBankedSP on current mode must hit live sp")
	}
}

func TestEnterExitHyp(t *testing.T) {
	c := NewCPU(0)
	c.SetReg(RegPC, 0x8000)
	guestCPSR := c.CPSR()
	hsr := BuildHSR(ECHVC, true, BuildHVCISS(JailhouseHVCImm))
	c.EnterHyp(hsr, 0x8004)

	if c.Mode() != ModeHYP {
		t.Fatalf("mode after EnterHyp = %v", c.Mode())
	}
	if c.HSR != hsr || c.ELRHyp != 0x8004 || c.SPSRHyp != guestCPSR {
		t.Fatal("EnterHyp did not latch syndrome/return state")
	}
	if c.CPSR()&CPSRIRQ == 0 {
		t.Fatal("IRQs must be masked in hyp mode")
	}

	resume := c.ExitHyp()
	if resume != 0x8004 {
		t.Fatalf("ExitHyp resume = %#x", resume)
	}
	if c.Mode() != ModeSVC {
		t.Fatalf("mode after ExitHyp = %v, want guest svc", c.Mode())
	}
	if c.Reg(RegPC) != 0x8004 {
		t.Fatalf("pc after ExitHyp = %#x", c.Reg(RegPC))
	}
}

func TestRegNameAndBounds(t *testing.T) {
	tests := map[int]string{0: "r0", 11: "r11", 12: "r12", 13: "sp", 14: "lr", 15: "pc"}
	for i, want := range tests {
		if got := RegName(i); got != want {
			t.Errorf("RegName(%d) = %q, want %q", i, got, want)
		}
	}
	c := NewCPU(0)
	c.SetReg(-1, 7)
	c.SetReg(99, 7)
	if c.Reg(-1) != 0 || c.Reg(99) != 0 {
		t.Fatal("out-of-range register access must be inert")
	}
}

func TestHSRRoundTrip(t *testing.T) {
	hsr := BuildHSR(ECDABTLow, true, 0x123456)
	if got := HSRClass(hsr); got != ECDABTLow {
		t.Fatalf("class = %v", got)
	}
	if hsr&hsrILBit == 0 {
		t.Fatal("IL lost")
	}
	if got := HSRISS(hsr); got != 0x123456 {
		t.Fatalf("iss = %#x", got)
	}
}

func TestHSRPropertyRoundTrip(t *testing.T) {
	prop := func(ecRaw uint8, il bool, iss uint32) bool {
		ec := EC(ecRaw & 0x3F)
		hsr := BuildHSR(ec, il, iss)
		return HSRClass(hsr) == ec && (hsr&hsrILBit != 0) == il && HSRISS(hsr) == iss&0x01FFFFFF
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECString(t *testing.T) {
	if got := EC(0x3F).String(); got != "invalid(0x3f)" {
		t.Fatalf("EC(0x3f).String() = %q", got)
	}
	if got := ECDABTLow.String(); !strings.Contains(got, "0x24") || !strings.Contains(got, "dabt-low") {
		t.Fatalf("ECDABTLow.String() = %q", got)
	}
}

func TestDataAbortISSRoundTrip(t *testing.T) {
	tests := []struct {
		size  int
		reg   int
		write bool
	}{
		{1, 0, false}, {2, 3, true}, {4, 12, true}, {4, 15, false},
	}
	for _, tt := range tests {
		iss := BuildDataAbortISS(tt.size, tt.reg, tt.write, FSCTranslationL2)
		da := DecodeDataAbort(iss)
		if !da.Valid {
			t.Fatalf("ISV lost for %+v", tt)
		}
		if da.Size != tt.size || da.Reg != tt.reg || da.Write != tt.write {
			t.Fatalf("roundtrip %+v => %+v", tt, da)
		}
		if da.FSC != FSCTranslationL2 {
			t.Fatalf("fsc = %#x", da.FSC)
		}
	}
}

func TestDataAbortInvalidSyndrome(t *testing.T) {
	// ISV clear: undecodable.
	da := DecodeDataAbort(0)
	if da.Valid {
		t.Fatal("ISV=0 decoded as valid")
	}
	// Reserved SAS encoding (0b11) must invalidate the decode: this is
	// one of the mechanisms by which an HSR bit-flip turns an emulatable
	// MMIO access into an unhandled trap.
	iss := BuildDataAbortISS(4, 1, false, 0) | 3<<22 | 1<<24
	if DecodeDataAbort(iss).Valid {
		t.Fatal("reserved SAS decoded as valid")
	}
}

func TestHVCImmediate(t *testing.T) {
	hsr := BuildHSR(ECHVC, true, BuildHVCISS(JailhouseHVCImm))
	if got := HVCImmediate(hsr); got != JailhouseHVCImm {
		t.Fatalf("imm = %#x, want %#x", got, JailhouseHVCImm)
	}
}

func TestTrapContextCaptureRestore(t *testing.T) {
	c := NewCPU(1)
	c.SetReg(RegR0, 4) // hypercall code in r0
	c.SetReg(RegR1, 0xDEAD)
	c.EnterHyp(BuildHSR(ECHVC, true, BuildHVCISS(JailhouseHVCImm)), 0x9000)

	tc := CaptureContext(c)
	if tc.CPUID != 1 || tc.Regs[RegR0] != 4 || tc.ELR != 0x9000 {
		t.Fatalf("capture = %+v", tc)
	}

	tc.Regs[RegR0] = 0xFFFFFFEA // hypervisor writes return value
	tc.ELR = 0x9004
	tc.Restore(c)
	c.ExitHyp()
	if c.Reg(RegR0) != 0xFFFFFFEA {
		t.Fatalf("r0 after restore = %#x", c.Reg(RegR0))
	}
	if c.Reg(RegPC) != 0x9004 {
		t.Fatalf("pc after restore = %#x", c.Reg(RegPC))
	}
}

func TestTrapContextFieldAccess(t *testing.T) {
	var tc TrapContext
	for f := Field(0); f < NumFields; f++ {
		tc.Set(f, uint32(f)+100)
	}
	for f := Field(0); f < NumFields; f++ {
		if got := tc.Get(f); got != uint32(f)+100 {
			t.Fatalf("field %s = %d, want %d", FieldName(f), got, uint32(f)+100)
		}
	}
	// Out-of-range fields are inert.
	tc.Set(NumFields+5, 1)
	if tc.Get(NumFields+5) != 0 {
		t.Fatal("out-of-range field not inert")
	}
}

func TestFlipBitInvolution(t *testing.T) {
	prop := func(fRaw uint8, bit uint8, seedVal uint32) bool {
		f := Field(int(fRaw) % int(NumFields))
		var tc TrapContext
		tc.Set(f, seedVal)
		before := tc.Get(f)
		tc.FlipBit(f, uint(bit))
		if tc.Get(f) == before {
			return false // a flip must change the value
		}
		tc.FlipBit(f, uint(bit))
		return tc.Get(f) == before // and be its own inverse
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldNames(t *testing.T) {
	if FieldName(Field(RegSP)) != "sp" {
		t.Error("sp name")
	}
	if FieldName(FieldHSR) != "hsr" || FieldName(FieldCPUID) != "cpuid" {
		t.Error("control field names")
	}
}

func TestPSCI(t *testing.T) {
	if !IsPSCICall(PSCICPUOn) || !IsPSCICall(PSCICPUOff) {
		t.Fatal("CPU_ON/CPU_OFF not recognised as PSCI")
	}
	if IsPSCICall(0x12345678) {
		t.Fatal("non-PSCI fn recognised")
	}
	if PSCIName(PSCICPUOn) != "CPU_ON" {
		t.Fatalf("PSCIName = %q", PSCIName(PSCICPUOn))
	}
	if !strings.Contains(PSCIName(0x8400001E), "PSCI(") {
		t.Fatal("unknown PSCI fn name")
	}
}

func TestCPUStringStates(t *testing.T) {
	c := NewCPU(1)
	if !strings.Contains(c.String(), "offline") {
		t.Fatalf("String() = %q", c.String())
	}
	c.Online = true
	c.Parked = true
	if !strings.Contains(c.String(), "parked") {
		t.Fatalf("String() = %q", c.String())
	}
}
