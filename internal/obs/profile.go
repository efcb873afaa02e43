package obs

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler writes the profiles a CLI run asks for with -cpuprofile and
// -memprofile, so a short run can be profiled without serving
// -debug-addr. Inspect them with `go tool pprof <binary> <file>`.
type Profiler struct {
	cpuPath, memPath *string
	cpu              *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on the command-line
// flag set; call it before flag.Parse.
func ProfileFlags() *Profiler {
	return &Profiler{
		cpuPath: flag.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		memPath: flag.String("memprofile", "", "write a heap profile to this file when the run ends"),
	}
}

// Start begins CPU profiling when -cpuprofile is set.
func (p *Profiler) Start() error {
	if *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile when -memprofile is
// set. Call it once the run's work is done; later calls do nothing more.
func (p *Profiler) Stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	if p.memPath != nil && *p.memPath != "" {
		runtime.GC() // the heap profile reflects the last completed GC
		errs = append(errs, writeTo(*p.memPath, func(f *os.File) error {
			return pprof.WriteHeapProfile(f)
		}))
		p.memPath = nil
	}
	return errors.Join(errs...)
}
