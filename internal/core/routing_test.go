package core

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// fakeView is a scriptable core.View for unit tests.
type fakeView struct {
	p           *topology.P
	blocked     map[[2]int]bool // (port, vc) -> cannot claim
	occupancy   map[[2]int]int
	capacity    int
	congested   map[int]bool // PB bits
	queueOcc    int          // current input queue backlog
	queueCap    int
	headPartial bool // head packet not fully buffered yet

	// faults, when non-nil, makes the view faulty; router anchors the
	// router-relative queries (LinkDown, LocalDown) and must track the
	// router the algorithm is evaluated at.
	faults *topology.FaultSet
	router int
}

func newFakeView(p *topology.P) *fakeView {
	return &fakeView{
		p:         p,
		blocked:   make(map[[2]int]bool),
		occupancy: make(map[[2]int]int),
		capacity:  32,
		congested: make(map[int]bool),
	}
}

// MinState answers claim and start independently: claim from the blocked
// set and the fault view, start from the occupancy alone.
func (f *fakeView) MinState(port, vc, size int) (occ int, claim, start bool) {
	occ = f.occupancy[[2]int{port, vc}]
	claim = !f.blocked[[2]int{port, vc}] && !(f.faults != nil && f.faults.Down(f.router, port))
	return occ, claim, f.capacity-occ >= size
}
func (f *fakeView) CurrentQueue() (int, int)   { return f.queueOcc, f.queueCap }
func (f *fakeView) HeadFullyArrived() bool     { return !f.headPartial }
func (f *fakeView) Capacity(port, vc int) int  { return f.capacity }
func (f *fakeView) GlobalCongested(k int) bool { return f.congested[k] }
func (f *fakeView) Faulty() bool               { return f.faults != nil }
func (f *fakeView) LinkDown(port int) bool {
	return f.faults != nil && f.faults.Down(f.router, port)
}
func (f *fakeView) RouteDown(g, tg int) bool {
	return f.faults != nil && f.faults.RouteDown(g, tg)
}
func (f *fakeView) LocalDown(i, j int) bool {
	return f.faults != nil && f.faults.LocalRouteDown(f.p.GroupOf(f.router), i, j)
}
func (f *fakeView) PortDead(port int) bool {
	if f.faults == nil {
		return false
	}
	far, _ := f.p.LinkTarget(f.router, port)
	return f.faults.RouterDown(far)
}

func mustAlg(t *testing.T, spec Spec, p *topology.P) Algorithm {
	t.Helper()
	a, err := New(spec, Config{Topo: p, Threshold: 0.45, RemoteCandidates: 2})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestParseSpecRoundTrip(t *testing.T) {
	for s := Minimal; s <= RLMSignOnly; s++ {
		got, err := ParseSpec(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSpec(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSpec("bogus"); err == nil {
		t.Error("ParseSpec accepted bogus")
	}
}

// TestVCsFor pins every trait of every mechanism: name, VC budget, the VCT
// requirement and head-arrival use — and the zero row of an unknown Spec.
func TestVCsFor(t *testing.T) {
	type row struct {
		name        string
		local       int
		vct, arrive bool
	}
	want := map[Spec]row{
		Minimal:     {"Minimal", 3, false, false},
		Valiant:     {"Valiant", 3, false, false},
		PB:          {"PiggyBacking", 3, false, false},
		PAR62:       {"PAR-6/2", 6, false, false},
		RLM:         {"RLM", 3, false, false},
		OLM:         {"OLM", 3, true, false},
		RLMSignOnly: {"RLM-signonly", 3, false, false},
		OFAR:        {"OFAR", 3, true, true},
	}
	for s := Minimal; s <= OFAR; s++ {
		w := want[s]
		l, g := s.VCs()
		if s.String() != w.name || l != w.local || g != 2 || s.RequiresVCT() != w.vct || s.UsesHeadArrival() != w.arrive {
			t.Errorf("%v: %d/%d VCs, RequiresVCT %v, UsesHeadArrival %v; want %+v with 2 global VCs",
				s, l, g, s.RequiresVCT(), s.UsesHeadArrival(), w)
		}
		if got, err := ParseSpec(w.name); err != nil || got != s {
			t.Errorf("ParseSpec(%q) = %v, %v", w.name, got, err)
		}
	}
	for _, s := range []Spec{-1, OFAR + 1} {
		if l, g := s.VCs(); l != 0 || g != 0 || s.RequiresVCT() || s.UsesHeadArrival() || s.String() != fmt.Sprintf("Spec(%d)", int(s)) {
			t.Errorf("unknown %v has traits %d/%d %v %v", s, l, g, s.RequiresVCT(), s.UsesHeadArrival())
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Minimal, Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	p := topology.MustNew(2)
	if _, err := New(Minimal, Config{Topo: p, RemoteCandidates: -1}); err != nil {
		t.Errorf("RemoteCandidates=-1 (disable) rejected: %v", err)
	}
	if _, err := New(Spec(99), Config{Topo: p}); err == nil {
		t.Error("unknown spec accepted")
	}
}

// walkMinimal drives a packet through repeated Route/CommitHop on an
// unloaded network and returns the sequence of (isGlobal, vc) hops.
type hopRec struct {
	global bool
	vc     int
	router int // router the hop leaves from
}

func walk(t *testing.T, alg Algorithm, p *topology.P, v *fakeView, st *PacketState, r *rng.PCG, maxHops int) []hopRec {
	t.Helper()
	var hops []hopRec
	router := int(st.SrcRouter)
	for hop := 0; hop < maxHops; hop++ {
		if int16(router) == st.DstRouter {
			return hops
		}
		dec := alg.Route(v, st, router, 8, r)
		if dec.Wait {
			t.Fatalf("hop %d at router %d: unexpected Wait on empty network", hop, router)
		}
		hops = append(hops, hopRec{global: p.IsGlobalPort(dec.Port), vc: dec.VC, router: router})
		next, _ := p.LinkTarget(router, dec.Port)
		CommitHop(p, st, router, dec)
		router = next
	}
	t.Fatalf("packet did not arrive after %d hops (at router %d, dst %d)",
		maxHops, router, st.DstRouter)
	return nil
}

// TestMinimalPathsAndVCs checks every (src,dst) pair at h=2: minimal route
// shape l?-g?-l? and the ascending VC discipline lVC1-gVC1-lVC2.
func TestMinimalPathsAndVCs(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, Minimal, p)
	v := newFakeView(p)
	r := rng.New(1, 1)
	for src := 0; src < p.Routers; src += 3 {
		for dst := 0; dst < p.Routers; dst += 5 {
			var st PacketState
			st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
			hops := walk(t, alg, p, v, &st, r, 4)
			if len(hops) != p.MinimalHops(src, dst) {
				t.Fatalf("src %d dst %d: %d hops, minimal %d",
					src, dst, len(hops), p.MinimalHops(src, dst))
			}
			globals := 0
			for _, h := range hops {
				if h.global {
					if h.vc != 0 {
						t.Fatalf("global hop on gVC%d, want gVC1", h.vc+1)
					}
					globals++
				} else if h.vc != globals {
					t.Fatalf("local hop on lVC%d after %d globals", h.vc+1, globals)
				}
			}
		}
	}
}

// TestValiantPathShape checks the 5-hop bound and that the intermediate
// group differs from source and destination.
func TestValiantPathShape(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, Valiant, p)
	v := newFakeView(p)
	r := rng.New(7, 7)
	for trial := 0; trial < 200; trial++ {
		src := r.Intn(p.Routers)
		dst := r.Intn(p.Routers)
		if src == dst {
			continue
		}
		var st PacketState
		st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
		hops := walk(t, alg, p, v, &st, r, 6)
		if len(hops) > 5 {
			t.Fatalf("valiant path of %d hops", len(hops))
		}
		if st.GlobalHops > 2 {
			t.Fatalf("valiant took %d global hops", st.GlobalHops)
		}
		// VC sequence must be ascending in the order
		// lVC1<gVC1<lVC2<gVC2<lVC3.
		assertAscending(t, hops)
	}
}

// rank maps a hop to the paper's global VC order for 3/2 mechanisms.
func rank(h hopRec) int {
	if h.global {
		return 2*h.vc + 1 // gVC1=1, gVC2=3
	}
	return 2 * h.vc // lVC1=0, lVC2=2, lVC3=4
}

func assertAscending(t *testing.T, hops []hopRec) {
	t.Helper()
	for i := 1; i < len(hops); i++ {
		if rank(hops[i]) < rank(hops[i-1]) {
			t.Fatalf("VC order violated at hop %d: %+v", i, hops)
		}
	}
}

// TestAdaptiveMinimalWhenIdle: with empty queues every adaptive mechanism
// routes minimally (zero misroutes).
func TestAdaptiveMinimalWhenIdle(t *testing.T) {
	p := topology.MustNew(2)
	for _, spec := range []Spec{PAR62, RLM, OLM} {
		alg := mustAlg(t, spec, p)
		v := newFakeView(p)
		r := rng.New(3, 3)
		for trial := 0; trial < 100; trial++ {
			src := r.Intn(p.Routers)
			dst := r.Intn(p.Routers)
			if src == dst {
				continue
			}
			var st PacketState
			st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
			hops := walk(t, alg, p, v, &st, r, 4)
			if st.LocalMisCount != 0 || st.GlobalMisCount != 0 {
				t.Fatalf("%v misrouted on an idle network", spec)
			}
			if len(hops) != p.MinimalHops(src, dst) {
				t.Fatalf("%v: non-minimal path on idle network", spec)
			}
		}
	}
}

// blockMinimal makes the minimal output of st at router unclaimable and
// congested, so the trigger considers candidates.
func blockMinimal(v *fakeView, p *topology.P, spec Spec, st *PacketState, router int) {
	port, global, _ := minimalNext(p, st, router)
	vcs, globalVCs := spec.VCs()
	if global {
		vcs = globalVCs
	}
	for vc := 0; vc < vcs; vc++ {
		v.blocked[[2]int{port, vc}] = true
		v.occupancy[[2]int{port, vc}] = 32
	}
}

// TestGlobalMisrouteTrigger: blocking the minimal global port at the source
// router must produce a Valiant commitment for adaptive mechanisms.
func TestGlobalMisrouteTrigger(t *testing.T) {
	p := topology.MustNew(2)
	for _, spec := range []Spec{PAR62, RLM, OLM} {
		alg := mustAlg(t, spec, p)
		v := newFakeView(p)
		r := rng.New(5, 5)
		// Source router 0 (group 0); destination in group reached via
		// router 0's own global port so the minimal hop is global.
		src := 0
		k := p.GlobalChannelOfPort(0, p.GlobalPortBase())
		dstGroup := p.TargetGroup(0, k)
		dst := p.RouterID(dstGroup, 1)
		var st PacketState
		st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
		blockMinimal(v, p, spec, &st, src)
		dec := alg.Route(v, &st, src, 8, r)
		if dec.Wait {
			t.Fatalf("%v waited instead of misrouting", spec)
		}
		if dec.Kind != KindGlobalMis {
			t.Fatalf("%v chose %v, want global misroute", spec, dec.Kind)
		}
		if dec.NewValiant < 0 || dec.NewValiant == dstGroup || dec.NewValiant == 0 {
			t.Fatalf("%v picked intermediate group %d", spec, dec.NewValiant)
		}
	}
}

// TestLocalMisrouteInDestinationGroup: blocking the direct local port in
// the destination group must produce a detour plus forced exit hop.
func TestLocalMisrouteInDestinationGroup(t *testing.T) {
	p := topology.MustNew(2)
	for _, spec := range []Spec{PAR62, RLM, OLM} {
		alg := mustAlg(t, spec, p)
		v := newFakeView(p)
		r := rng.New(9, 9)
		// Intra-group traffic: router 0 -> router 1, group 0 — the
		// source group is the destination group, so local misrouting
		// is allowed.
		var st PacketState
		st.Init(p, p.NodeID(0, 0), p.NodeID(1, 0))
		blockMinimal(v, p, spec, &st, 0)
		dec := alg.Route(v, &st, 0, 8, r)
		if dec.Wait {
			t.Fatalf("%v waited instead of local misrouting", spec)
		}
		if dec.Kind != KindLocalMis {
			t.Fatalf("%v chose kind %v, want local misroute", spec, dec.Kind)
		}
		if dec.LocalFinal != 1 {
			t.Fatalf("%v forced target %d, want 1", spec, dec.LocalFinal)
		}
		k := p.LocalPortTarget(0, dec.Port)
		if k == 0 || k == 1 {
			t.Fatalf("%v detoured through %d", spec, k)
		}
		if spec == RLM && !NewParityTable().AllowedHops(0, k, 1) {
			t.Fatalf("RLM detour 0->%d->1 violates the parity-sign rule", k)
		}
		// Commit and verify the forced hop.
		CommitHop(p, &st, 0, dec)
		if st.PendingLocal != 1 {
			t.Fatalf("pending local %d after misroute", st.PendingLocal)
		}
		kr := p.RouterID(0, k)
		dec2 := alg.Route(v, &st, kr, 8, r)
		if dec2.Wait {
			t.Fatalf("%v: forced hop waited", spec)
		}
		if got := p.LocalPortTarget(k, dec2.Port); got != 1 {
			t.Fatalf("%v: forced hop went to %d, want 1", spec, got)
		}
		CommitHop(p, &st, kr, dec2)
		if st.PendingLocal != -1 {
			t.Fatal("pending target not cleared")
		}
		if st.LocalMisCount != 1 {
			t.Fatalf("misroute count %d", st.LocalMisCount)
		}
	}
}

// TestNoLocalMisrouteInSourceGroupForRemoteTraffic: the paper allows local
// misrouting only in intermediate and destination supernodes.
func TestNoLocalMisrouteInSourceGroupForRemoteTraffic(t *testing.T) {
	p := topology.MustNew(2)
	for _, spec := range []Spec{PAR62, RLM, OLM} {
		alg := mustAlg(t, spec, p)
		v := newFakeView(p)
		r := rng.New(11, 3)
		// Destination remote; minimal first hop is local (to the
		// channel owner), which we block. Also block every global
		// port so global misrouting cannot fire.
		dstGroup := p.TargetGroup(0, p.ChannelsPerGrp-1) // owned by last router
		dst := p.RouterID(dstGroup, 0)
		var st PacketState
		st.Init(p, p.NodeID(0, 0), p.NodeID(dst, 0))
		blockMinimal(v, p, spec, &st, 0)
		_, globalVCs := spec.VCs()
		for port := p.GlobalPortBase(); port < p.EjectPortBase(); port++ {
			for vc := 0; vc < globalVCs; vc++ {
				v.blocked[[2]int{port, vc}] = true
			}
		}
		// Remote-channel redirects may still fire; forbid them by
		// blocking all local ports except the minimal one... instead,
		// simply require that any non-wait decision is not a local
		// misroute.
		for i := 0; i < 50; i++ {
			dec := alg.Route(v, &st, 0, 8, r)
			if !dec.Wait && dec.Kind == KindLocalMis {
				t.Fatalf("%v local-misrouted in the source group", spec)
			}
		}
	}
}

// TestOLMVCDiscipline replays the paper's Figure 3 route c: global
// misrouting after a first minimal hop, local misroutes in the
// intermediate and destination groups, with the published VC sequence
// lVC1 lVC1 gVC1 lVC1 lVC2 gVC2 lVC{1,2} lVC3.
func TestOLMVCDiscipline(t *testing.T) {
	p := topology.MustNew(4) // need enough routers for detours
	alg := mustAlg(t, OLM, p)
	v := newFakeView(p)
	r := rng.New(13, 13)

	// Construct the walk manually, forcing misroutes by blocking minimal
	// outputs at each step.
	var st PacketState
	// dst in a remote group, reached via a channel NOT owned by the
	// source router, so the first minimal hop is local.
	src := p.RouterID(0, 0)
	dstGroup := p.TargetGroup(0, p.ChannelsPerGrp-1)
	dst := p.RouterID(dstGroup, 2)
	st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))

	// Hop 1: minimal local (lVC1).
	dec := alg.Route(v, &st, src, 8, r)
	if dec.Wait || p.IsGlobalPort(dec.Port) || dec.VC != 0 {
		t.Fatalf("hop 1: %+v", dec)
	}
	cur := commitAndMove(p, &st, src, dec)

	// Hop 2: block the minimal global port; expect a Valiant commit.
	blockMinimal(v, p, OLM, &st, cur)
	dec = alg.Route(v, &st, cur, 8, r)
	if dec.Wait || dec.Kind != KindGlobalMis {
		t.Fatalf("hop 2: %+v", dec)
	}
	// Own-port global misroute uses gVC1; a remote-channel redirect uses
	// lVC1 first. Follow whichever was chosen until the packet leaves
	// the group.
	for !p.IsGlobalPort(dec.Port) {
		if dec.VC != 0 {
			t.Fatalf("source-group redirect must ride lVC1: %+v", dec)
		}
		cur = commitAndMove(p, &st, cur, dec)
		dec = alg.Route(v, &st, cur, 8, r)
		if dec.Wait {
			t.Fatal("redirect stalled")
		}
	}
	if dec.VC != 0 {
		t.Fatalf("first global hop on gVC%d", dec.VC+1)
	}
	cur = commitAndMove(p, &st, cur, dec)
	if st.GlobalHops != 1 {
		t.Fatalf("global hops %d", st.GlobalHops)
	}

	// Intermediate group: block the minimal local exit; expect a local
	// misroute on lVC1 and a forced hop on lVC2.
	blockMinimal(v, p, OLM, &st, cur)
	dec = alg.Route(v, &st, cur, 8, r)
	if dec.Wait {
		t.Skip("intermediate arrival router owns the exit channel; geometry skip")
	}
	if dec.Kind != KindLocalMis || dec.VC != 0 {
		t.Fatalf("intermediate misroute: %+v", dec)
	}
	cur = commitAndMove(p, &st, cur, dec)
	dec = alg.Route(v, &st, cur, 8, r)
	if dec.Wait || dec.VC != 1 {
		t.Fatalf("intermediate forced hop must ride lVC2: %+v", dec)
	}
	cur = commitAndMove(p, &st, cur, dec)

	// Second global hop on gVC2.
	dec = alg.Route(v, &st, cur, 8, r)
	if dec.Wait || !p.IsGlobalPort(dec.Port) || dec.VC != 1 {
		t.Fatalf("second global hop: %+v", dec)
	}
	cur = commitAndMove(p, &st, cur, dec)
	if st.CurGroup != st.DstGroup {
		t.Fatalf("not in destination group")
	}

	// Destination group: block the direct port; expect a misroute on
	// lVC2 (preferred) or lVC1, then the final hop on lVC3.
	if int16(cur) != st.DstRouter {
		blockMinimal(v, p, OLM, &st, cur)
		dec = alg.Route(v, &st, cur, 8, r)
		if dec.Wait || dec.Kind != KindLocalMis {
			t.Fatalf("destination misroute: %+v", dec)
		}
		if dec.VC != 1 && dec.VC != 0 {
			t.Fatalf("destination misroute on lVC%d", dec.VC+1)
		}
		cur = commitAndMove(p, &st, cur, dec)
		dec = alg.Route(v, &st, cur, 8, r)
		if dec.Wait || dec.VC != 2 {
			t.Fatalf("final hop must ride lVC3: %+v", dec)
		}
		cur = commitAndMove(p, &st, cur, dec)
	}
	if int16(cur) != st.DstRouter {
		t.Fatalf("did not arrive: at %d, dst %d", cur, st.DstRouter)
	}
	if st.LocalMisCount < 1 || st.GlobalMisCount != 1 {
		t.Fatalf("misroute counters: %d local, %d global", st.LocalMisCount, st.GlobalMisCount)
	}
}

func commitAndMove(p *topology.P, st *PacketState, router int, dec Decision) int {
	next, _ := p.LinkTarget(router, dec.Port)
	CommitHop(p, st, router, dec)
	return next
}

// TestRLMForcedPairLegality: every RLM local misroute decision satisfies
// the parity-sign restriction by construction; fuzz many blocked scenarios.
func TestRLMForcedPairLegality(t *testing.T) {
	p := topology.MustNew(4)
	alg := mustAlg(t, RLM, p)
	tab := NewParityTable()
	r := rng.New(17, 1)
	for trial := 0; trial < 500; trial++ {
		v := newFakeView(p)
		i := r.Intn(p.RoutersPerGroup)
		j := r.Intn(p.RoutersPerGroup)
		if i == j {
			continue
		}
		var st PacketState
		st.Init(p, p.NodeID(p.RouterID(0, i), 0), p.NodeID(p.RouterID(0, j), 0))
		blockMinimal(v, p, RLM, &st, p.RouterID(0, i))
		// Randomly congest some other ports.
		for n := 0; n < 5; n++ {
			v.occupancy[[2]int{r.Intn(p.LocalPorts), 0}] = r.Intn(40)
		}
		dec := alg.Route(v, &st, p.RouterID(0, i), 8, r)
		if dec.Wait {
			continue
		}
		if dec.Kind != KindLocalMis {
			t.Fatalf("unexpected kind %v", dec.Kind)
		}
		k := p.LocalPortTarget(i, dec.Port)
		if !tab.AllowedHops(i, k, j) {
			t.Fatalf("RLM chose forbidden detour %d->%d->%d", i, k, j)
		}
	}
}

// TestPARAscendingVCs fuzzes PAR-6/2 walks with random blocking and checks
// the strict Günther order lVC1 lVC2 gVC1 lVC3 lVC4 gVC2 lVC5 lVC6.
func TestPARAscendingVCs(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, PAR62, p)
	r := rng.New(23, 5)
	parRank := func(h hopRec) int {
		if h.global {
			return []int{2, 5}[h.vc]
		}
		return []int{0, 1, 3, 4, 6, 7}[h.vc]
	}
	for trial := 0; trial < 300; trial++ {
		v := newFakeView(p)
		src := r.Intn(p.Routers)
		dst := r.Intn(p.Routers)
		if src == dst {
			continue
		}
		var st PacketState
		st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
		// Congest a random sample of ports to provoke misrouting.
		for n := 0; n < 6; n++ {
			port := r.Intn(p.EjectPortBase())
			for vc := 0; vc < 6; vc++ {
				v.blocked[[2]int{port, vc}] = true
				v.occupancy[[2]int{port, vc}] = 30
			}
		}
		router := src
		var hops []hopRec
		for hop := 0; hop < 10 && int16(router) != st.DstRouter; hop++ {
			dec := alg.Route(v, &st, router, 8, r)
			if dec.Wait {
				break // blocked; fine for this property test
			}
			hops = append(hops, hopRec{global: p.IsGlobalPort(dec.Port), vc: dec.VC, router: router})
			router = commitAndMove(p, &st, router, dec)
		}
		for i := 1; i < len(hops); i++ {
			if parRank(hops[i]) <= parRank(hops[i-1]) {
				t.Fatalf("PAR-6/2 VC order violated: %+v", hops)
			}
		}
		if st.GlobalHops > 2 || st.LocalHops > 6 {
			t.Fatalf("hop budget exceeded: %d locals, %d globals",
				st.LocalHops, st.GlobalHops)
		}
	}
}

// TestPBDivertsOnCongestion: with the minimal channel flagged congested,
// PB must take a Valiant route; without the flag it stays minimal.
func TestPBDivertsOnCongestion(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, PB, p)
	r := rng.New(29, 2)

	mk := func() PacketState {
		var st PacketState
		dstGroup := p.TargetGroup(0, 0) // channel 0, owned by router 0
		st.Init(p, p.NodeID(0, 0), p.NodeID(p.RouterID(dstGroup, 1), 0))
		return st
	}

	v := newFakeView(p)
	st := mk()
	dec := alg.Route(v, &st, 0, 8, r)
	if st.ValiantGroup >= 0 {
		t.Fatal("PB diverted without congestion")
	}
	if dec.Wait || !p.IsGlobalPort(dec.Port) {
		t.Fatalf("PB minimal decision: %+v", dec)
	}

	v = newFakeView(p)
	v.congested[0] = true // the minimal channel
	st = mk()
	_ = alg.Route(v, &st, 0, 8, r)
	if st.ValiantGroup < 0 {
		t.Fatal("PB did not divert off a congested channel")
	}
}

// TestCommitHopGroupTracking checks arrival bookkeeping on global hops.
func TestCommitHopGroupTracking(t *testing.T) {
	p := topology.MustNew(2)
	var st PacketState
	dstGroup := p.TargetGroup(0, 0)
	st.Init(p, p.NodeID(0, 0), p.NodeID(p.RouterID(dstGroup, 1), 0))
	st.LocalHopsInGroup = 1
	st.PrevRouter = 3
	dec := Decision{Port: p.GlobalPortBase(), VC: 0, Kind: KindMin, NewValiant: -1, LocalFinal: -1}
	CommitHop(p, &st, 0, dec)
	if st.CurGroup != int16(dstGroup) {
		t.Fatalf("group %d after global hop, want %d", st.CurGroup, dstGroup)
	}
	if st.LocalHopsInGroup != 0 || st.PrevRouter != -1 {
		t.Fatal("per-group state not reset on group change")
	}
	if st.GlobalHops != 1 {
		t.Fatalf("global hops %d", st.GlobalHops)
	}
}

// TestPacketStateFitsLargestFabric checks that the narrowed ids of a
// PacketState (int16 routers and groups, int8 in-group indices and ports)
// hold every value of every fabric NewTables accepts: for h = 1..16, the
// first and last node of the first and last group, each as source and as
// destination, must read back as topology computes them; and at h=16 a
// packet driven through CommitHop along a local, global, local-misroute,
// local path must track its group, previous router and pending exit at
// the largest ids.
func TestPacketStateFitsLargestFabric(t *testing.T) {
	for h := 1; h <= 16; h++ {
		p := topology.MustNew(h)
		last := p.Groups - 1
		nodes := []int{
			p.NodeID(p.RouterID(0, 0), 0),
			p.NodeID(p.RouterID(0, p.RoutersPerGroup-1), h-1),
			p.NodeID(p.RouterID(last, 0), 0),
			p.Nodes - 1,
		}
		for _, src := range nodes {
			for _, dst := range nodes {
				var st PacketState
				st.Init(p, src, dst)
				sr, dr := p.RouterOfNode(src), p.RouterOfNode(dst)
				for _, f := range []struct {
					name      string
					got, want int
				}{
					{"SrcRouter", int(st.SrcRouter), sr},
					{"DstRouter", int(st.DstRouter), dr},
					{"DstGroup", int(st.DstGroup), p.GroupOf(dr)},
					{"CurGroup", int(st.CurGroup), p.GroupOf(sr)},
					{"DstIdx", int(st.DstIdx), p.IndexInGroup(dr)},
					{"DstEject", int(st.DstEject), p.EjectPortOfNode(dst)},
					{"ValiantGroup", int(st.ValiantGroup), -1},
					{"PrevRouter", int(st.PrevRouter), -1},
					{"PendingLocal", int(st.PendingLocal), -1},
				} {
					if f.got != f.want {
						t.Errorf("h=%d %d->%d: %s = %d, want %d", h, src, dst, f.name, f.got, f.want)
					}
				}
			}
		}
	}

	p := topology.MustNew(16)
	last := p.Groups - 1
	dstIdx := p.RoutersPerGroup - 1
	var st PacketState
	st.Init(p, 0, p.Nodes-1)
	owner, gport := p.GlobalPortOfChannel(p.ChannelToGroup(0, last))
	router := p.RouterID(0, (owner+1)%p.RoutersPerGroup)
	// hop takes the hop out of router through port and checks where the
	// packet's state says it is.
	hop := func(port int, kind Kind, localFinal, curGroup, prev, pending int) {
		t.Helper()
		CommitHop(p, &st, router, Decision{Port: port, Kind: kind, NewValiant: -1, LocalFinal: localFinal})
		if p.IsLocalPort(port) {
			router = p.RouterID(p.GroupOf(router), p.LocalPortTarget(p.IndexInGroup(router), port))
		} else {
			router, _ = p.LinkTarget(router, port)
		}
		if int(st.CurGroup) != curGroup || int(st.PrevRouter) != prev || int(st.PendingLocal) != pending {
			t.Fatalf("at router %d: CurGroup %d PrevRouter %d PendingLocal %d, want %d %d %d",
				router, st.CurGroup, st.PrevRouter, st.PendingLocal, curGroup, prev, pending)
		}
	}
	src := router
	hop(p.LocalPort(p.IndexInGroup(router), owner), KindMin, -1, 0, src, -1)
	hop(gport, KindMin, -1, last, -1, -1)
	if p.GroupOf(router) != last {
		t.Fatalf("global hop landed in group %d, want %d", p.GroupOf(router), last)
	}
	landed, detour := router, (p.IndexInGroup(router)+1)%p.RoutersPerGroup
	if detour == dstIdx {
		detour = (detour + 1) % p.RoutersPerGroup
	}
	hop(p.LocalPort(p.IndexInGroup(router), detour), KindLocalMis, dstIdx, last, landed, dstIdx)
	detoured := router
	hop(p.LocalPort(p.IndexInGroup(router), dstIdx), KindMin, -1, last, detoured, -1)
	if router != int(st.DstRouter) || router != p.Routers-1 {
		t.Fatalf("path ended at router %d, want the destination %d (the last router %d)",
			router, st.DstRouter, p.Routers-1)
	}
	if st.LocalHops != 3 || st.GlobalHops != 1 || st.LocalMisCount != 1 {
		t.Fatalf("hops local %d global %d local misroutes %d, want 3 1 1",
			st.LocalHops, st.GlobalHops, st.LocalMisCount)
	}
}

func TestCommitHopPanicsOnEjectPort(t *testing.T) {
	p := topology.MustNew(2)
	var st PacketState
	st.Init(p, 0, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("CommitHop on eject port did not panic")
		}
	}()
	CommitHop(p, &st, 0, Decision{Port: p.EjectPortBase()})
}

func BenchmarkRouteMinimal(b *testing.B) {
	p := topology.MustNew(8)
	alg, _ := New(Minimal, Config{Topo: p})
	v := newFakeView(p)
	r := rng.New(1, 1)
	var st PacketState
	st.Init(p, 0, p.Nodes-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alg.Route(v, &st, 0, 8, r)
	}
}

func BenchmarkRouteOLMBlocked(b *testing.B) {
	p := topology.MustNew(8)
	alg, _ := New(OLM, Config{Topo: p, Threshold: 0.45, RemoteCandidates: 2})
	v := newFakeView(p)
	r := rng.New(1, 1)
	var st PacketState
	st.Init(p, 0, p.Nodes-1)
	port, _, _ := minimalNext(p, &st, 0)
	for vc := 0; vc < 3; vc++ {
		v.blocked[[2]int{port, vc}] = true
		v.occupancy[[2]int{port, vc}] = 32
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alg.Route(v, &st, 0, 8, r)
	}
}
