package dragonfly_test

import (
	"math"
	"testing"

	dragonfly "repro"
)

// fast returns a reduced-latency h=2 configuration for quick API tests.
func fast(m dragonfly.Mechanism) dragonfly.Config {
	cfg := dragonfly.PaperVCT(2)
	cfg.Mechanism = m
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Warmup, cfg.Measure = 500, 1200
	cfg.Seed = 11
	return cfg
}

func TestMechanismNames(t *testing.T) {
	want := map[dragonfly.Mechanism]string{
		dragonfly.Minimal:      "Minimal",
		dragonfly.Valiant:      "Valiant",
		dragonfly.Piggybacking: "PiggyBacking",
		dragonfly.PAR62:        "PAR-6/2",
		dragonfly.RLM:          "RLM",
		dragonfly.OLM:          "OLM",
		dragonfly.RLMSignOnly:  "RLM-signonly",
		dragonfly.OFAR:         "OFAR",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), name)
		}
		back, err := dragonfly.ParseMechanism(name)
		if err != nil || back != m {
			t.Errorf("ParseMechanism(%q) = %v, %v", name, back, err)
		}
	}
	if _, err := dragonfly.ParseMechanism("nope"); err == nil {
		t.Error("ParseMechanism accepted garbage")
	}
}

func TestMechanismProperties(t *testing.T) {
	if !dragonfly.OLM.RequiresVCT() {
		t.Error("OLM must require VCT")
	}
	if dragonfly.RLM.RequiresVCT() {
		t.Error("RLM must not require VCT")
	}
	l, g := dragonfly.PAR62.VCs()
	if l != 6 || g != 2 {
		t.Errorf("PAR-6/2 VCs = %d/%d", l, g)
	}
	l, g = dragonfly.OLM.VCs()
	if l != 3 || g != 2 {
		t.Errorf("OLM VCs = %d/%d", l, g)
	}
}

func TestFlowControlParse(t *testing.T) {
	for _, s := range []string{"VCT", "WH"} {
		f, err := dragonfly.ParseFlowControl(s)
		if err != nil || f.String() != s {
			t.Errorf("ParseFlowControl(%q) = %v, %v", s, f, err)
		}
	}
	if _, err := dragonfly.ParseFlowControl("XY"); err == nil {
		t.Error("bad flow control accepted")
	}
}

func TestNetworkSize(t *testing.T) {
	r, n, g, err := dragonfly.NetworkSize(8)
	if err != nil {
		t.Fatal(err)
	}
	if r != 2064 || n != 16512 || g != 129 {
		t.Fatalf("h=8 size = %d routers, %d nodes, %d groups", r, n, g)
	}
	if _, _, _, err := dragonfly.NetworkSize(0); err == nil {
		t.Fatal("h=0 accepted")
	}
}

func TestRunBasic(t *testing.T) {
	cfg := fast(dragonfly.OLM)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
	cfg.Load = 0.2
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock || res.Delivered == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Mechanism != "OLM" || res.Pattern != "UN" || res.FlowControl != "VCT" {
		t.Fatalf("labels: %q %q %q", res.Mechanism, res.Pattern, res.FlowControl)
	}
	if res.OfferedLoad != 0.2 {
		t.Fatalf("offered load %v", res.OfferedLoad)
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	cfg := fast(dragonfly.OLM)
	cfg.FlowControl = dragonfly.WH // OLM needs VCT
	if _, err := dragonfly.Run(cfg); err == nil {
		t.Error("OLM under WH accepted")
	}

	cfg = fast(dragonfly.Minimal)
	cfg.H = -1
	if _, err := dragonfly.Run(cfg); err == nil {
		t.Error("negative h accepted")
	}

	cfg = fast(dragonfly.Minimal)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 9999}
	if _, err := dragonfly.Run(cfg); err == nil {
		t.Error("out-of-range ADVG offset accepted")
	}

	cfg = fast(dragonfly.Minimal)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.TrafficKind(42)}
	if _, err := dragonfly.Run(cfg); err == nil {
		t.Error("unknown traffic kind accepted")
	}
}

// TestValidateBoundsH: Validate is the admission check of every front door,
// so it must itself refuse sizes the engine cannot run — H=400 used to pass
// and then exhaust memory inside Prepare.
func TestValidateBoundsH(t *testing.T) {
	for _, tc := range []struct {
		h  int
		ok bool
	}{{dragonfly.ScaleH16, true}, {dragonfly.ScaleH16 + 1, false}, {400, false}} {
		err := dragonfly.Config{H: tc.h, Load: 0.1}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(H=%d) = %v, want ok=%v", tc.h, err, tc.ok)
		}
	}
	if _, err := dragonfly.Prepare(dragonfly.Config{H: 400, Load: 0.1}); err == nil {
		t.Error("Prepare accepted H=400")
	}
}

// TestValidateRejectsUnknownEnums: a mechanism or flow control outside the
// roster must die at admission. FlowControl 7 used to validate and then
// panic mid-run on a credit overflow; Mechanism 42 failed only in Prepare.
func TestValidateRejectsUnknownEnums(t *testing.T) {
	for _, c := range []dragonfly.Config{
		{H: 2, Load: 0.1, FlowControl: 7},
		{H: 2, Load: 0.1, FlowControl: -1},
		{H: 2, Load: 0.1, Mechanism: 42},
		{H: 2, Load: 0.1, Mechanism: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted mechanism %d, flow control %d", int(c.Mechanism), int(c.FlowControl))
		}
	}
}

func TestTrafficNames(t *testing.T) {
	cases := []struct {
		tr   dragonfly.Traffic
		want string
	}{
		{dragonfly.Traffic{Kind: dragonfly.UN}, "UN"},
		{dragonfly.Traffic{Kind: dragonfly.ADVG}, "ADVG+1"},
		{dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 8}, "ADVG+8"},
		{dragonfly.Traffic{Kind: dragonfly.ADVL}, "ADVL+1"},
	}
	for _, c := range cases {
		got, err := c.tr.Name(8)
		if err != nil || got != c.want {
			t.Errorf("Name = %q, %v, want %q", got, err, c.want)
		}
	}
	// Unknown kinds are an error, not a silent "unknown" label.
	if name, err := (dragonfly.Traffic{Kind: dragonfly.TrafficKind(42)}).Name(8); err == nil {
		t.Errorf("Name accepted an unknown kind (returned %q)", name)
	}
}

func TestWHPacketDefault(t *testing.T) {
	cfg := dragonfly.PaperWH(2)
	cfg.Mechanism = dragonfly.RLM
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
	cfg.Load = 0.05
	cfg.Warmup, cfg.Measure = 500, 1000
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock || res.Delivered == 0 {
		t.Fatalf("WH run failed: %+v", res)
	}
	if res.FlowControl != "WH" {
		t.Fatalf("flow control %q", res.FlowControl)
	}
}

func TestBurstViaFacade(t *testing.T) {
	cfg := fast(dragonfly.RLM)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 50}
	cfg.BurstPackets = 5
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConsumptionCycles <= 0 {
		t.Fatalf("consumption %d", res.ConsumptionCycles)
	}
	if res.Delivered != int64(5*res.Nodes) {
		t.Fatalf("delivered %d of %d", res.Delivered, 5*res.Nodes)
	}
}

func TestDeterministicFacade(t *testing.T) {
	cfg := fast(dragonfly.RLM)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
	cfg.Load = 0.3
	a, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AcceptedLoad != b.AcceptedLoad || a.Delivered != b.Delivered {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestConservationViaFacade(t *testing.T) {
	cfg := fast(dragonfly.OLM)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
	cfg.Load = 0.3
	cfg.Warmup = 0 // count every event
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inFlight := res.Generated - res.InjectionLost - res.Delivered
	if inFlight < 0 {
		t.Fatalf("negative in-flight count: %+v", res)
	}
	// In-flight packets are bounded by total buffering.
	if float64(inFlight) > 0.5*float64(res.Generated) {
		t.Fatalf("implausible in-flight fraction: %d of %d", inFlight, res.Generated)
	}
}

func TestParityFacade(t *testing.T) {
	rows := dragonfly.ParityTableRows()
	if len(rows) != 16 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	allowed := 0
	for _, r := range rows {
		if r.Allowed {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("Table I allows %d combinations, want 10", allowed)
	}
	if got := dragonfly.LocalHopType(5, 2); got != "odd-" {
		t.Fatalf("LocalHopType(5,2) = %q, want odd-", got)
	}
	if got := dragonfly.LocalHopType(1, 7); got != "even+" {
		t.Fatalf("LocalHopType(1,7) = %q, want even+", got)
	}
	// The paper's Figure 2: exactly h-1 = 3 restricted routes from 5 to 0.
	ks := dragonfly.RestrictedIntermediates(5, 0, 4)
	if len(ks) != 3 {
		t.Fatalf("RestrictedIntermediates(5,0,4) = %v, want 3 routes", ks)
	}
}

func TestOFARViaFacade(t *testing.T) {
	cfg := fast(dragonfly.OFAR)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 2}
	cfg.Load = 0.3
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock || res.Delivered == 0 {
		t.Fatalf("OFAR run failed: %+v", res)
	}
	if res.EscapeHopRate <= 0 {
		t.Fatalf("OFAR never used its escape ring under adversarial load")
	}
	// The escape ring needs VCT.
	cfg.FlowControl = dragonfly.WH
	if _, err := dragonfly.Run(cfg); err == nil {
		t.Fatal("OFAR accepted wormhole flow control")
	}
}

func TestHopBoundsViaFacade(t *testing.T) {
	// Saturate an adversarial pattern and confirm average hop counts
	// respect the l-l-g-l-l-g-l-l ceiling (6 local, 2 global).
	cfg := fast(dragonfly.OLM)
	cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
	cfg.Load = 0.8
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLocalHops > 6 || res.AvgGlobalHops > 2 {
		t.Fatalf("hop bound exceeded: %f local, %f global",
			res.AvgLocalHops, res.AvgGlobalHops)
	}
	if math.IsNaN(res.P99Latency) {
		t.Fatal("p99 latency NaN with deliveries")
	}
}
