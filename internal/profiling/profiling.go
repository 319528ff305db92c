// Package profiling is the one-stop pprof wiring for the CLIs: a CPU
// profile spanning the whole invocation and an allocation profile
// captured at exit, both gated on file-path flags so production runs
// pay nothing. Kept out of the CLIs themselves so dmsched and dmsweep
// cannot drift apart in how they profile.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath and arranges for an allocation
// profile to be written to memPath by the returned flush. Either path
// may be empty to disable that profile; with both empty, Start is free
// and flush does nothing. flush reports a failure on stderr under the
// command's name, and only its first call does anything, so a deferred
// flush and explicit calls ahead of os.Exit compose. Call it on every
// exit path that should yield usable profiles — a process that exits
// without it truncates the CPU profile.
func Start(name, cpuPath, memPath string) (flush func(), err error) {
	stop, err := start(cpuPath, memPath)
	if err != nil {
		return nil, err
	}
	return func() {
		if stop == nil {
			return
		}
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
		stop = nil
	}, nil
}

func start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cpuFile = f
	}
	stop = func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			cpuFile = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			// The allocs profile carries both cumulative allocation
			// sites (what the alloc-discipline work optimises) and,
			// after this GC, a settled in-use snapshot.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return fmt.Errorf("profiling: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}
	return stop, nil
}
