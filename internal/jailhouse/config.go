package jailhouse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"github.com/dessertlab/certify/internal/memmap"
)

// Config blob format constants, modelled on Jailhouse's .cell files.
const (
	ConfigSignature = "JHCELL"
	ConfigRevision  = 13

	configHeaderSize = 64
	regionEncSize    = 28
	maxName          = 31
	maxRegions       = 64
	maxIRQLines      = 32
)

// Config validation errors.
var (
	ErrBadSignature = errors.New("jailhouse: bad config signature")
	ErrBadRevision  = errors.New("jailhouse: unsupported config revision")
	ErrBadConfig    = errors.New("jailhouse: malformed cell config")
)

// CellConfig is the static description of one cell: which CPUs, which
// memory windows with which rights, which interrupt lines and which
// console it owns. It mirrors struct jailhouse_cell_desc.
type CellConfig struct {
	Name        string
	CPUSet      uint64 // bitmap of owned CPUs
	MemRegions  []memmap.Region
	IRQLines    []int  // SPIs assigned to this cell
	ConsoleBase uint64 // physical base of the cell's UART (0 = none)
}

// CPUs expands the CPU bitmap into a slice of CPU indices.
func (c *CellConfig) CPUs() []int { return cpuSet(c.CPUSet).list() }

// cpuSet is a bitmap of CPU numbers 0-63; numbers outside that range
// are never members.
type cpuSet uint64

func (s cpuSet) has(cpu int) bool { return s&(1<<uint(cpu)) != 0 }
func (s *cpuSet) add(cpu int)     { *s |= 1 << uint(cpu) }
func (s *cpuSet) remove(cpu int)  { *s &^= 1 << uint(cpu) }

// list returns the members in ascending order.
func (s cpuSet) list() []int {
	var out []int
	for i := 0; i < 64; i++ {
		if s.has(i) {
			out = append(out, i)
		}
	}
	return out
}

// OwnsIRQ reports whether the config assigns SPI irq to the cell.
func (c *CellConfig) OwnsIRQ(irq int) bool {
	for _, l := range c.IRQLines {
		if l == irq {
			return true
		}
	}
	return false
}

// Validate performs the structural checks Jailhouse's config parser does:
// printable bounded name, at least one CPU, non-overlapping regions.
func (c *CellConfig) Validate() error {
	if c.Name == "" || len(c.Name) > maxName {
		return fmt.Errorf("%w: bad name %q", ErrBadConfig, c.Name)
	}
	for _, r := range c.Name {
		if r < 0x20 || r > 0x7E {
			return fmt.Errorf("%w: unprintable name", ErrBadConfig)
		}
	}
	if c.CPUSet == 0 {
		return fmt.Errorf("%w: empty CPU set", ErrBadConfig)
	}
	if len(c.MemRegions) > maxRegions {
		return fmt.Errorf("%w: %d regions (max %d)", ErrBadConfig, len(c.MemRegions), maxRegions)
	}
	if len(c.IRQLines) > maxIRQLines {
		return fmt.Errorf("%w: %d irq lines (max %d)", ErrBadConfig, len(c.IRQLines), maxIRQLines)
	}
	s2 := memmap.NewStage2()
	for _, r := range c.MemRegions {
		if err := s2.Map(r); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	return nil
}

// Marshal encodes the config into the binary blob the CELL_CREATE
// hypercall consumes.
func (c *CellConfig) Marshal() []byte {
	buf := make([]byte, configHeaderSize+len(c.MemRegions)*regionEncSize+len(c.IRQLines)*4)
	copy(buf[0:6], ConfigSignature)
	binary.LittleEndian.PutUint16(buf[6:8], ConfigRevision)
	copy(buf[8:8+maxName], c.Name)
	binary.LittleEndian.PutUint64(buf[40:48], c.CPUSet)
	binary.LittleEndian.PutUint32(buf[48:52], uint32(len(c.MemRegions)))
	binary.LittleEndian.PutUint32(buf[52:56], uint32(len(c.IRQLines)))
	binary.LittleEndian.PutUint64(buf[56:64], c.ConsoleBase)
	off := configHeaderSize
	for _, r := range c.MemRegions {
		binary.LittleEndian.PutUint64(buf[off:], r.Phys)
		binary.LittleEndian.PutUint64(buf[off+8:], r.Virt)
		binary.LittleEndian.PutUint64(buf[off+16:], r.Size)
		binary.LittleEndian.PutUint32(buf[off+24:], uint32(r.Flags))
		off += regionEncSize
	}
	for _, irq := range c.IRQLines {
		binary.LittleEndian.PutUint32(buf[off:], uint32(irq))
		off += 4
	}
	return buf
}

// UnmarshalCellConfig parses and validates a config blob. Any structural
// damage — the typical product of a corrupted config pointer — yields an
// error that the hypercall layer converts to -EINVAL.
func UnmarshalCellConfig(blob []byte) (*CellConfig, error) {
	if len(blob) < configHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes is below header size", ErrBadConfig, len(blob))
	}
	if string(blob[0:6]) != ConfigSignature {
		return nil, fmt.Errorf("%w: got %q", ErrBadSignature, blob[0:6])
	}
	if rev := binary.LittleEndian.Uint16(blob[6:8]); rev != ConfigRevision {
		return nil, fmt.Errorf("%w: revision %d", ErrBadRevision, rev)
	}
	name := string(blob[8 : 8+maxName])
	if i := strings.IndexByte(name, 0); i >= 0 {
		name = name[:i]
	}
	nRegions := binary.LittleEndian.Uint32(blob[48:52])
	nIRQs := binary.LittleEndian.Uint32(blob[52:56])
	if nRegions > maxRegions || nIRQs > maxIRQLines {
		return nil, fmt.Errorf("%w: counts %d/%d out of range", ErrBadConfig, nRegions, nIRQs)
	}
	want := configHeaderSize + int(nRegions)*regionEncSize + int(nIRQs)*4
	if len(blob) < want {
		return nil, fmt.Errorf("%w: blob %d bytes, need %d", ErrBadConfig, len(blob), want)
	}
	cfg := &CellConfig{
		Name:        name,
		CPUSet:      binary.LittleEndian.Uint64(blob[40:48]),
		ConsoleBase: binary.LittleEndian.Uint64(blob[56:64]),
	}
	off := configHeaderSize
	for i := uint32(0); i < nRegions; i++ {
		cfg.MemRegions = append(cfg.MemRegions, memmap.Region{
			Phys:  binary.LittleEndian.Uint64(blob[off:]),
			Virt:  binary.LittleEndian.Uint64(blob[off+8:]),
			Size:  binary.LittleEndian.Uint64(blob[off+16:]),
			Flags: memmap.Flags(binary.LittleEndian.Uint32(blob[off+24:])),
		})
		off += regionEncSize
	}
	for i := uint32(0); i < nIRQs; i++ {
		cfg.IRQLines = append(cfg.IRQLines, int(binary.LittleEndian.Uint32(blob[off:])))
		off += 4
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// SystemConfig describes the whole machine to the hypervisor: the root
// cell's initial resources (everything) and the memory the hypervisor
// reserves for itself.
type SystemConfig struct {
	RootCell  CellConfig
	HypMemory memmap.Region // hypervisor-private firmware region
}

// Validate checks the system configuration.
func (s *SystemConfig) Validate() error {
	if err := s.RootCell.Validate(); err != nil {
		return fmt.Errorf("root cell: %w", err)
	}
	if s.HypMemory.Size == 0 {
		return fmt.Errorf("%w: hypervisor memory missing", ErrBadConfig)
	}
	for _, r := range s.RootCell.MemRegions {
		if r.OverlapsPhys(s.HypMemory) {
			return fmt.Errorf("%w: root cell region %v overlaps hypervisor memory", ErrBadConfig, r)
		}
	}
	return nil
}
