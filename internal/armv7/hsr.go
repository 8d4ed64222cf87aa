package armv7

import "fmt"

// EC is the 6-bit exception class from HSR[31:26]. The values are the
// architectural AArch32 encodings; EC 0x24 (data abort from a lower
// exception level) is the "error code 0x24" the paper reports for the
// unhandled-trap → cpu_park outcome.
type EC uint32

// Exception classes relevant to a partitioning hypervisor.
const (
	ECUnknown EC = 0x00 // unknown reason
	ECWFx     EC = 0x01 // trapped WFI or WFE
	ECCP15_32 EC = 0x03 // trapped MCR/MRC to CP15
	ECCP15_64 EC = 0x04 // trapped MCRR/MRRC to CP15
	ECCP14_32 EC = 0x05 // trapped MCR/MRC to CP14
	ECCP14_LS EC = 0x06 // trapped LDC/STC to CP14
	ECHCPTR   EC = 0x07 // access to CP0..CP13 trapped by HCPTR
	ECCP10    EC = 0x08 // trapped VMRS
	ECJazelle EC = 0x09 // trapped BXJ
	ECCP14_64 EC = 0x0C // trapped MRRC to CP14
	ECSVC     EC = 0x11 // SVC taken in hyp (not routed from guests here)
	ECHVC     EC = 0x12 // hypervisor call
	ECSMC     EC = 0x13 // trapped SMC
	ECIABTLow EC = 0x20 // prefetch abort from a lower exception level
	ECIABTCur EC = 0x21 // prefetch abort taken in hyp mode itself
	ECDABTLow EC = 0x24 // data abort from a lower exception level
	ECDABTCur EC = 0x25 // data abort taken in hyp mode itself
)

var ecNames = map[EC]string{
	ECUnknown: "unknown", ECWFx: "wfx", ECCP15_32: "cp15-32", ECCP15_64: "cp15-64",
	ECCP14_32: "cp14-32", ECCP14_LS: "cp14-ls", ECHCPTR: "hcptr", ECCP10: "cp10",
	ECJazelle: "bxj", ECCP14_64: "cp14-64", ECSVC: "svc", ECHVC: "hvc", ECSMC: "smc",
	ECIABTLow: "iabt-low", ECIABTCur: "iabt-cur", ECDABTLow: "dabt-low", ECDABTCur: "dabt-cur",
}

// String returns the mnemonic plus the numeric code, matching the style of
// hypervisor panic dumps ("dabt-low(0x24)").
func (e EC) String() string {
	if e < EC(len(ecStrings)) {
		return ecStrings[e]
	}
	return ecString(e)
}

func ecString(e EC) string {
	name, ok := ecNames[e]
	if !ok {
		name = "invalid"
	}
	return fmt.Sprintf("%s(%#02x)", name, uint32(e))
}

// ecStrings pre-renders every 6-bit class: the trap path stringifies the
// EC on each trapped access, so String must not format.
var ecStrings = func() (s [64]string) {
	for i := range s {
		s[i] = ecString(EC(i))
	}
	return s
}()

// HSR field layout.
const (
	hsrECShift = 26
	hsrECMask  = 0x3F
	hsrILBit   = 1 << 25
	hsrISSMask = 0x01FFFFFF
)

// BuildHSR assembles a syndrome register value from exception class,
// instruction-length bit and ISS payload (truncated to 25 bits).
func BuildHSR(ec EC, il32 bool, iss uint32) uint32 {
	v := (uint32(ec) & hsrECMask) << hsrECShift
	if il32 {
		v |= hsrILBit
	}
	return v | (iss & hsrISSMask)
}

// HSRClass extracts the exception class from a syndrome value.
func HSRClass(hsr uint32) EC { return EC((hsr >> hsrECShift) & hsrECMask) }

// HSRISS extracts the 25-bit instruction-specific syndrome.
func HSRISS(hsr uint32) uint32 { return hsr & hsrISSMask }

// Data-abort ISS fields (EC 0x24/0x25), as used by MMIO emulation.
const (
	dabtISVBit   = 1 << 24 // syndrome valid: SAS/SRT/WnR populated
	dabtSASShift = 22      // access size: 0=byte 1=half 2=word
	dabtSASMask  = 0x3
	dabtSRTShift = 16 // register transfer: GPR index of the data register
	dabtSRTMask  = 0xF
	dabtWnRBit   = 1 << 6 // write-not-read
	dabtFSCMask  = 0x3F   // fault status code
)

// Data-abort fault status codes (subset).
const (
	FSCTranslationL1 = 0x05 // stage-2 translation fault, level 1
	FSCTranslationL2 = 0x06
	FSCPermissionL1  = 0x0D
	FSCPermissionL2  = 0x0E
)

// DataAbort describes a decoded stage-2 data abort.
type DataAbort struct {
	Valid bool   // ISV: decode below is meaningful
	Size  int    // access size in bytes: 1, 2 or 4
	Reg   int    // GPR index holding/receiving the data
	Write bool   // true for stores
	FSC   uint32 // fault status code
}

// BuildDataAbortISS encodes a data-abort ISS for a single-register MMIO
// access, the only form the Cortex-A7 generates for the device accesses
// our guests make.
func BuildDataAbortISS(sizeBytes int, reg int, write bool, fsc uint32) uint32 {
	var sas uint32
	switch sizeBytes {
	case 1:
		sas = 0
	case 2:
		sas = 1
	default:
		sas = 2
	}
	iss := uint32(dabtISVBit) | sas<<dabtSASShift | (uint32(reg)&dabtSRTMask)<<dabtSRTShift | (fsc & dabtFSCMask)
	if write {
		iss |= dabtWnRBit
	}
	return iss
}

// DecodeDataAbort parses a data-abort ISS. If ISV is clear the returned
// DataAbort has Valid=false and only FSC is meaningful — exactly the
// situation a hypervisor cannot emulate and must treat as unhandled.
func DecodeDataAbort(iss uint32) DataAbort {
	da := DataAbort{
		Valid: iss&dabtISVBit != 0,
		Write: iss&dabtWnRBit != 0,
		FSC:   iss & dabtFSCMask,
		Reg:   int((iss >> dabtSRTShift) & dabtSRTMask),
	}
	switch (iss >> dabtSASShift) & dabtSASMask {
	case 0:
		da.Size = 1
	case 1:
		da.Size = 2
	case 2:
		da.Size = 4
	default:
		da.Size = 0 // reserved encoding: undecodable
		da.Valid = false
	}
	return da
}

// HVC ISS: the 16-bit immediate of the HVC instruction. Jailhouse marks its
// hypercalls with immediate 0x4a48 ("JH") and ignores HVCs with any other
// immediate as not-for-us.
const JailhouseHVCImm = 0x4a48

// BuildHVCISS encodes an HVC immediate into the ISS field.
func BuildHVCISS(imm uint16) uint32 { return uint32(imm) }

// HVCImmediate extracts the HVC immediate from a syndrome's ISS.
func HVCImmediate(hsr uint32) uint16 { return uint16(HSRISS(hsr) & 0xFFFF) }
