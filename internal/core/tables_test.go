package core

import (
	"runtime"
	"testing"

	"repro/internal/topology"
)

// TestNewTablesCostIgnoresBufferDepth: a table set costs the same at any
// buffer depth. The misrouting trigger divides an occupancy by a per-port
// capacity, so a 2^27-phit global buffer at h=2 must not cost a row of
// 2^27 cached quotients (1 GiB).
func TestNewTablesCostIgnoresBufferDepth(t *testing.T) {
	p, err := topology.New(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: p, BufLocal: 32, BufGlobal: 1 << 27}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tab, err := NewTables(OLM, cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if n := m1.TotalAlloc - m0.TotalAlloc; n >= 64<<10 {
		t.Fatalf("NewTables at h=2 with a 2^27-phit global buffer allocated %d B, want under 64 KiB", n)
	}
	if got := tab.fracAt(nil, p.GlobalPortBase(), 0, 1<<26); got != 0.5 {
		t.Fatalf("half-full global buffer reads %v, want 0.5", got)
	}
}
