package armv7

import "testing"

// bankedModes are the eight modes that own a bank of SP/LR, plus
// SYS, which shares USR's.
var bankedModes = []Mode{ModeUSR, ModeSYS, ModeFIQ, ModeIRQ, ModeSVC, ModeMON, ModeABT, ModeHYP, ModeUND}

// userBank reports whether m uses the bank USR and SYS share.
func userBank(m Mode) bool { return m == ModeUSR || m == ModeSYS }

// sharesBank reports whether a and b see the same SP/LR copy.
func sharesBank(a, b Mode) bool { return a == b || userBank(a) && userBank(b) }

// TestBankingEveryModePair switches between every ordered pair of
// banked modes and checks what each switch saves and loads: SP and LR
// round-trip through each mode's bank, USR and SYS share one bank,
// and only FIQ swaps r8–r12.
func TestBankingEveryModePair(t *testing.T) {
	for _, a := range bankedModes {
		for _, b := range bankedModes {
			if a == b {
				continue
			}
			c := NewCPU(0)
			c.SetMode(a)
			c.SetReg(RegSP, 0xA000)
			c.SetReg(RegLR, 0xA004)
			for r := RegR8; r <= RegR12; r++ {
				c.SetReg(r, uint32(0x800+r))
			}

			c.SetMode(b)
			wantSP, wantLR := uint32(0), uint32(0)
			if sharesBank(a, b) {
				wantSP, wantLR = 0xA000, 0xA004
			}
			if c.Reg(RegSP) != wantSP || c.Reg(RegLR) != wantLR {
				t.Fatalf("%v→%v: sp=%#x lr=%#x, want %#x %#x", a, b, c.Reg(RegSP), c.Reg(RegLR), wantSP, wantLR)
			}
			if got := c.BankedSP(a); got != 0xA000 {
				t.Fatalf("%v→%v: BankedSP(%v) = %#x, want 0xa000", a, b, a, got)
			}
			for r := RegR8; r <= RegR12; r++ {
				want := uint32(0x800 + r)
				if a == ModeFIQ || b == ModeFIQ {
					want = 0 // the other set of r8–r12, still at reset
				}
				if c.Reg(r) != want {
					t.Fatalf("%v→%v: r%d = %#x, want %#x", a, b, r, c.Reg(r), want)
				}
			}
			c.SetReg(RegSP, 0xB000)
			c.SetReg(RegLR, 0xB004)
			for r := RegR8; r <= RegR12; r++ {
				c.SetReg(r, uint32(0xF00+r))
			}

			c.SetMode(a)
			wantSP, wantLR = 0xA000, 0xA004
			if sharesBank(a, b) {
				wantSP, wantLR = 0xB000, 0xB004
			}
			if c.Reg(RegSP) != wantSP || c.Reg(RegLR) != wantLR {
				t.Fatalf("%v→%v→%v: sp=%#x lr=%#x, want %#x %#x",
					a, b, a, c.Reg(RegSP), c.Reg(RegLR), wantSP, wantLR)
			}
			for r := RegR8; r <= RegR12; r++ {
				want := uint32(0xF00 + r)
				if a == ModeFIQ || b == ModeFIQ {
					want = uint32(0x800 + r)
				}
				if c.Reg(r) != want {
					t.Fatalf("%v→%v→%v: r%d = %#x, want %#x", a, b, a, r, c.Reg(r), want)
				}
			}
			if wantB := uint32(0xB000); !sharesBank(a, b) && c.BankedSP(b) != wantB {
				t.Fatalf("%v→%v→%v: BankedSP(%v) = %#x, want %#x", a, b, a, b, c.BankedSP(b), wantB)
			}
		}
	}
}

// TestInvalidModeHasNoBank enters a CPSR whose mode field encodes no
// mode from every banked mode and leaves it for every other: the
// invalid mode neither saves its SP/LR into any bank nor loads one.
func TestInvalidModeHasNoBank(t *testing.T) {
	for _, invalid := range []Mode{0x00, 0x15, 0x1E} {
		for _, a := range bankedModes {
			for _, b := range bankedModes {
				c := NewCPU(0)
				c.SetMode(a)
				c.SetReg(RegSP, 0xA000)
				c.SetReg(RegLR, 0xA004)

				c.SetCPSR(c.CPSR()&^0x1F | uint32(invalid))
				if c.Mode() != invalid {
					t.Fatalf("mode = %v, want %v", c.Mode(), invalid)
				}
				if c.Reg(RegSP) != 0xA000 || c.Reg(RegLR) != 0xA004 {
					t.Fatalf("%v→%v loaded a bank: sp=%#x lr=%#x", a, invalid, c.Reg(RegSP), c.Reg(RegLR))
				}
				c.SetReg(RegSP, 0xC000)
				c.SetReg(RegLR, 0xC004)

				c.SetMode(b)
				wantSP, wantLR := uint32(0), uint32(0)
				if sharesBank(a, b) {
					wantSP, wantLR = 0xA000, 0xA004
				}
				if c.Reg(RegSP) != wantSP || c.Reg(RegLR) != wantLR {
					t.Fatalf("%v→%v→%v: sp=%#x lr=%#x, want %#x %#x (the invalid mode saved a bank)",
						a, invalid, b, c.Reg(RegSP), c.Reg(RegLR), wantSP, wantLR)
				}
				for _, m := range bankedModes {
					if m == b || sharesBank(m, b) {
						continue
					}
					want := uint32(0)
					if sharesBank(m, a) {
						want = 0xA000
					}
					if got := c.BankedSP(m); got != want {
						t.Fatalf("%v→%v→%v: BankedSP(%v) = %#x, want %#x", a, invalid, b, m, got, want)
					}
				}
			}
		}
	}
}
