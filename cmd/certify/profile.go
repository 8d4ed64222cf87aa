package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags are the -cpuprofile/-memprofile pair of the batch
// commands (campaign, fanout): pprof files written next to the run, so a
// slow campaign can be explained without a serve -pprof endpoint.
type profileFlags struct {
	cpu, mem *string
}

func addProfileFlags(fs *flag.FlagSet) profileFlags {
	return profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile (pprof) of the command here; re-exec'd fanout workers write <path>.shard-NN"),
		mem: fs.String("memprofile", "", "write a heap profile (pprof) here when the command ends; re-exec'd fanout workers write <path>.shard-NN"),
	}
}

// workerArgs passes the profile paths on to re-exec'd fanout workers,
// which suffix them with their shard index.
func (p profileFlags) workerArgs() []string {
	var args []string
	if *p.cpu != "" {
		args = append(args, "-cpuprofile", *p.cpu)
	}
	if *p.mem != "" {
		args = append(args, "-memprofile", *p.mem)
	}
	return args
}

// start begins CPU profiling when asked and returns the function that
// ends it and writes the heap profile. suffix is appended to both paths.
func (p profileFlags) start(suffix string) (stop func() error, err error) {
	var cpu *os.File
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu + suffix); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if *p.mem != "" {
			errs = append(errs, writeHeapProfile(*p.mem+suffix))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile writes the heap profile as of the last completed
// garbage collection, forced first so the live heap is current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
