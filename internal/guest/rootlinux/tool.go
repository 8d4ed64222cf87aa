package rootlinux

import (
	"fmt"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/board"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// configLoadAddr is where the jailhouse tool stages cell-config blobs in
// root memory before CELL_CREATE (a scratch page well inside root RAM).
const configLoadAddr = board.DRAMBase + 0x0200_0000

// Tool-level errors surface exactly like the userspace jailhouse tool:
// the ioctl's errno is printed on the root console.

// HypervisorEnable models "jailhouse enable sysconfig.cell".
func (l *Linux) HypervisorEnable(sysCfg *jailhouse.SystemConfig) error {
	e := l.hv.Enable(sysCfg)
	if e.Failed() {
		l.console("jailhouse: enable failed: %v", e)
		return fmt.Errorf("jailhouse enable: %v", e)
	}
	if e2 := l.hv.AssignRootInmate(l); e2.Failed() {
		return fmt.Errorf("assign root inmate: %v", e2)
	}
	l.console("The Jailhouse is opening.")
	return nil
}

// CellCreate models "jailhouse cell create freertos.cell": offline the
// cell's CPUs (the hotplug swap), stage the blob, issue CELL_CREATE.
func (l *Linux) CellCreate(cfg *jailhouse.CellConfig) error {
	// CPU hotplug: each donated CPU runs PSCI CPU_OFF on itself.
	for _, cpu := range cfg.CPUs() {
		l.console("CPU%d: shutdown", cpu)
		if ret := l.hv.SMC(cpu, armv7.PSCICPUOff); ret != armv7.PSCIRetSuccess {
			l.console("jailhouse: cpu %d offline failed (%d)", cpu, ret)
			return fmt.Errorf("cpu offline: psci %d", ret)
		}
	}
	blob := cfg.Marshal()
	if err := l.brd.RAM.Write(configLoadAddr, blob); err != nil {
		return fmt.Errorf("stage config: %w", err)
	}
	ret := l.hv.HVC(0, jailhouse.HCCellCreate, uint32(configLoadAddr), 0)
	if ret.Failed() {
		// The tool's perror output — the paper's E1 observable.
		l.console("jailhouse: cell create failed: %v", ret)
		l.reonlineCPUs(cfg)
		return fmt.Errorf("cell create: %v", ret)
	}
	l.CellID = uint32(ret)
	l.console("Created cell \"%s\"", cfg.Name)
	return nil
}

// reonlineCPUs brings donated CPUs back after a failed create (Linux
// hotplugs them online again).
func (l *Linux) reonlineCPUs(cfg *jailhouse.CellConfig) {
	for _, cpu := range cfg.CPUs() {
		if ret := l.hv.SMC(0, armv7.PSCICPUOn, uint32(cpu)); ret == armv7.PSCIRetSuccess {
			l.console("smpboot: CPU%d is up", cpu)
		}
	}
}

// CellLoad models "jailhouse cell load": SET_LOADABLE, write the image
// into the loadable window, attach the inmate object.
func (l *Linux) CellLoad(id uint32, image []byte, inmate jailhouse.Inmate) error {
	if e := l.hv.HVC(0, jailhouse.HCCellSetLoadable, id, 0); e.Failed() {
		l.console("jailhouse: cell set-loadable failed: %v", e)
		return fmt.Errorf("set loadable: %v", e)
	}
	if len(image) > 0 {
		if err := l.brd.RAM.Write(jailhouse.FreeRTOSMemBase, image); err != nil {
			return fmt.Errorf("write image: %w", err)
		}
	}
	if e := l.hv.LoadInmate(id, inmate); e.Failed() {
		return fmt.Errorf("load inmate: %v", e)
	}
	l.console("Cell \"%d\" loaded", id)
	return nil
}

// CellStart models "jailhouse cell start".
func (l *Linux) CellStart(id uint32) error {
	if e := l.hv.HVC(0, jailhouse.HCCellStart, id, 0); e.Failed() {
		l.console("jailhouse: cell start failed: %v", e)
		return fmt.Errorf("cell start: %v", e)
	}
	l.LastStartAt = l.brd.Now()
	l.console("Started cell %d", id)
	return nil
}

// CellDestroy models "jailhouse cell destroy".
func (l *Linux) CellDestroy(id uint32) error {
	if e := l.hv.HVC(0, jailhouse.HCCellDestroy, id, 0); e.Failed() {
		l.console("jailhouse: cell destroy failed: %v", e)
		return fmt.Errorf("cell destroy: %v", e)
	}
	l.console("Closed cell %d", id)
	// The returned CPUs come back online under root.
	for cpu := 1; cpu < board.NumCPUs; cpu++ {
		if l.hv.RootCell() != nil && l.hv.RootCell().HasCPU(cpu) && !l.hv.PerCPU(cpu).OnlineInCell {
			if ret := l.hv.SMC(0, armv7.PSCICPUOn, uint32(cpu)); ret == armv7.PSCIRetSuccess {
				l.console("smpboot: CPU%d is up", cpu)
			}
		}
	}
	return nil
}

// CellState models "jailhouse cell state <id>". Failures are printed to
// the console like any other tool error (the classifier's evidence of a
// corrupted-but-rejected management call).
func (l *Linux) CellState(id uint32) (jailhouse.CellState, error) {
	ret := l.hv.HVC(0, jailhouse.HCCellGetState, id, 0)
	if ret.Failed() {
		l.console("jailhouse: cell state failed: %v", ret)
		return 0, fmt.Errorf("cell state: %v", ret)
	}
	l.LastState = jailhouse.CellState(ret)
	return l.LastState, nil
}

// StartStateWatchdog arms the periodic "jailhouse cell state" probe the
// experiments use to show Jailhouse still reports a broken cell as
// RUNNING (E2). It always probes the currently managed cell (l.CellID),
// so it keeps working across recreate cycles.
func (l *Linux) StartStateWatchdog(id uint32) {
	if id != 0 {
		l.CellID = id
	}
	l.cancelBg = append(l.cancelBg, l.brd.Engine.Every(stateQueryEvery, board.EvLinuxStateQuery, 0, 0))
}

// queryState is one watchdog probe.
func (l *Linux) queryState() {
	if l.paniced || l.CellID == 0 {
		return
	}
	if st, err := l.CellState(l.CellID); err == nil {
		l.brd.Trace().Addf(l.brd.Now(), sim.KindCellEvent, 0, "watchdog: cell %d state=%v", sim.Int(int64(l.CellID)), sim.Str(st.String()))
	}
}

// StartRecreateLoop arms the E1 workload: repeatedly destroy and recreate
// the cell so the management hypercall path stays hot for the injector.
// period is the cycle time; each cycle creates cfg and loads the guest
// makeInmate returns. The loop stops silently after a root panic.
func (l *Linux) StartRecreateLoop(cfg *jailhouse.CellConfig, makeInmate func() jailhouse.Inmate, period sim.Time) {
	l.recreateCfg, l.makeInmate = cfg, makeInmate
	l.cancelBg = append(l.cancelBg, l.brd.Engine.Every(period, board.EvLinuxRecreate, 0, 0))
}

// recreate is one cycle of the recreate loop.
func (l *Linux) recreate() {
	if l.paniced {
		return
	}
	if l.CellID != 0 {
		if err := l.CellDestroy(l.CellID); err == nil {
			l.CellID = 0
		}
	}
	if err := l.CellCreate(l.recreateCfg); err != nil {
		return // EINVAL path: cell not allocated, try next cycle
	}
	if err := l.CellLoad(l.CellID, nil, l.makeInmate()); err != nil {
		return
	}
	if err := l.CellStart(l.CellID); err != nil {
		return
	}
}
