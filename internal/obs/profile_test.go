package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfilerWritesProfiles: Start/Stop leave a non-empty CPU and heap
// profile, a second Stop is a no-op, and unset paths write nothing.
func TestProfilerWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	p := &Profiler{cpuPath: &cpu, memPath: &mem}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i * i
	}
	_ = sink
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: missing or empty profile (%v)", path, err)
		}
	}
	none := ""
	off := &Profiler{cpuPath: &none, memPath: &none}
	if err := off.Start(); err != nil {
		t.Fatal(err)
	}
	if err := off.Stop(); err != nil {
		t.Fatal(err)
	}
}
