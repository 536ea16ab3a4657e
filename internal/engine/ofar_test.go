package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// TestOFARDeliversVCT: the escape-ring mechanism works end to end.
func TestOFARDeliversVCT(t *testing.T) {
	cfg := testConfig(t, 2, core.OFAR, 0.2)
	res := run(t, cfg)
	if res.Deadlock {
		t.Fatal("OFAR deadlocked under light load")
	}
	if res.Delivered == 0 {
		t.Fatal("OFAR delivered nothing")
	}
}

// TestOFARRejectsWormhole: bubble flow control needs VCT.
func TestOFARRejectsWormhole(t *testing.T) {
	cfg := testConfig(t, 2, core.OFAR, 0.1)
	cfg.Flow = WH
	if _, err := New(cfg); err == nil {
		t.Fatal("OFAR accepted wormhole flow control")
	}
}

// TestOFARUsesEscapeUnderPressure: saturating an adversarial pattern must
// push at least some packets onto the escape ring, and the run must stay
// deadlock free (the bubble argument).
func TestOFARUsesEscapeUnderPressure(t *testing.T) {
	cfg := testConfig(t, 2, core.OFAR, 1.0)
	proc, err := traffic.NewBernoulli(1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewAdversarialGlobal(cfg.Topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, pat, proc)
	cfg.BufLocal, cfg.BufGlobal = 16, 48 // tighten to force escapes
	cfg.Warmup, cfg.Measure = 0, 8000
	cfg.Watchdog = 4000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("OFAR deadlocked at saturation")
	}
	var escapes int64
	for i := range sim.sheets {
		escapes += sim.sheets[i].EscapeHops
	}
	if escapes == 0 {
		t.Fatal("no packet ever used the escape ring at saturation")
	}
}
