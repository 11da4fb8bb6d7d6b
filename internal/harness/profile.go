package harness

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiled runs fn between the CLIs' pprof brackets: a CPU profile of the
// whole call written to cpuPath, and a heap profile written to memPath once
// fn has returned without error. An empty path skips that profile.
func Profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC() // settle retained heap before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
