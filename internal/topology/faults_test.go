package topology

import (
	"testing"

	"repro/internal/rng"
)

func TestFaultSetSymmetry(t *testing.T) {
	p := MustNew(2)
	f := NewFaultSet(p)
	if !f.Empty() || f.DownGlobal() != 0 || f.DownLocal() != 0 {
		t.Fatal("fresh fault set not empty")
	}
	// A global link, seen from either end.
	r, port := 0, p.GlobalPortBase()
	rr, rp := p.GlobalLink(r, port)
	f.SetLink(r, port, true)
	if !f.Down(r, port) || !f.Down(rr, rp) {
		t.Fatalf("global link (%d,%d)/(%d,%d) not down on both ends", r, port, rr, rp)
	}
	if f.DownGlobal() != 1 || f.DownLocal() != 0 {
		t.Fatalf("counts %d/%d after one global kill", f.DownGlobal(), f.DownLocal())
	}
	// Killing again is a no-op; repairing from the *other* end works.
	f.SetLink(r, port, true)
	if f.DownGlobal() != 1 {
		t.Fatal("double kill double-counted")
	}
	f.SetLink(rr, rp, false)
	if f.Down(r, port) || !f.Empty() {
		t.Fatal("repair from the remote end did not clear the link")
	}
	// A local link.
	f.SetLink(1, 0, true)
	lr, lp := p.LocalLink(1, 0)
	if !f.Down(lr, lp) || f.DownLocal() != 1 {
		t.Fatal("local link not symmetric")
	}
}

func TestFaultSetRouteQueries(t *testing.T) {
	p := MustNew(2)
	f := NewFaultSet(p)
	// Kill the channel from group 0 to group 3.
	k := p.ChannelToGroup(0, 3)
	idx, port := p.GlobalPortOfChannel(k)
	f.SetLink(p.RouterID(0, idx), port, true)
	if !f.RouteDown(0, 3) {
		t.Fatal("RouteDown misses the killed channel")
	}
	if !f.RouteDown(3, 0) {
		t.Fatal("RouteDown not symmetric (paired channel is the same wire)")
	}
	if f.RouteDown(0, 2) || f.RouteDown(0, 0) {
		t.Fatal("RouteDown true for a live or self route")
	}
	// Kill the local link 0-3 of group 1.
	f.SetLink(p.RouterID(1, 0), p.LocalPort(0, 3), true)
	if !f.LocalRouteDown(1, 0, 3) || !f.LocalRouteDown(1, 3, 0) {
		t.Fatal("LocalRouteDown misses the killed link")
	}
	if f.LocalRouteDown(1, 0, 2) || f.LocalRouteDown(0, 0, 3) || f.LocalRouteDown(1, 2, 2) {
		t.Fatal("LocalRouteDown true for a live link, other group, or self")
	}
}

func TestFaultSetConnected(t *testing.T) {
	p := MustNew(1) // 3 groups of 2 routers, 1 local link each
	f := NewFaultSet(p)
	connected := func() bool { _, _, part := f.Partition(); return !part }
	if !connected() {
		t.Fatal("pristine network reported disconnected")
	}
	// Cut every link of router 0: its local link and its global channel.
	f.SetLink(0, 0, true)
	if !connected() {
		t.Fatal("one cut should leave the net connected")
	}
	f.SetLink(0, p.GlobalPortBase(), true)
	if connected() {
		t.Fatal("isolated router not detected")
	}
	f.SetLink(0, 0, false)
	if !connected() {
		t.Fatal("repair did not reconnect")
	}
}

func TestLinkTotals(t *testing.T) {
	for _, h := range []int{1, 2, 4} {
		p := MustNew(h)
		f := NewFaultSet(p)
		// Fail every link, from a sweep over all routers and ports; the
		// class counters must land exactly on the closed-form totals.
		for r := 0; r < p.Routers; r++ {
			for port := 0; port < p.EjectPortBase(); port++ {
				f.SetLink(r, port, true)
			}
		}
		if f.DownGlobal() != TotalGlobalLinks(p) {
			t.Errorf("h=%d: %d global links down, want %d", h, f.DownGlobal(), TotalGlobalLinks(p))
		}
		if f.DownLocal() != TotalLocalLinks(p) {
			t.Errorf("h=%d: %d local links down, want %d", h, f.DownLocal(), TotalLocalLinks(p))
		}
	}
}

func TestRandomFaultsDeterministicAndSized(t *testing.T) {
	p := MustNew(3)
	build := func(seed uint64) *FaultSet {
		f := NewFaultSet(p)
		if err := RandomFaults(f, 0.2, 0.1, seed); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(7), build(7)
	for r := 0; r < p.Routers; r++ {
		if a.PortMask(r) != b.PortMask(r) {
			t.Fatalf("same seed drew different faults at router %d", r)
		}
	}
	wantG := int(0.2*float64(TotalGlobalLinks(p)) + 0.5)
	wantL := int(0.1*float64(TotalLocalLinks(p)) + 0.5)
	if a.DownGlobal() != wantG || a.DownLocal() != wantL {
		t.Fatalf("drew %d/%d links, want %d/%d", a.DownGlobal(), a.DownLocal(), wantG, wantL)
	}
	c := build(8)
	same := true
	for r := 0; r < p.Routers; r++ {
		if a.PortMask(r) != c.PortMask(r) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical faults (suspicious)")
	}
	if err := RandomFaults(NewFaultSet(p), 1.0, 0, 1); err == nil {
		t.Fatal("fraction 1.0 accepted")
	}
}

func TestFaultSetClone(t *testing.T) {
	p := MustNew(2)
	f := NewFaultSet(p)
	f.SetLink(0, 0, true)
	c := f.Clone()
	c.SetLink(5, 1, true)
	if f.Down(5, 1) {
		t.Fatal("clone writes leaked into the original")
	}
	if !c.Down(0, 0) || c.DownLocal() != 2 {
		t.Fatal("clone lost state")
	}
}

// TestFaultSetApplyMatchesDefinition drives Apply with a seeded random mix
// of link kills and repairs, router kills and revivals (so repairs land
// under dead endpoints) and after every call checks the derived state
// against its definition: RouteDown(g, tg) is Down of the global port that
// owns the channel — the div/mod chain the channel matrix replaces — and is
// symmetric; Apply's return is the router's port mask before XOR after; a
// Clone is indistinguishable and independent.
func TestFaultSetApplyMatchesDefinition(t *testing.T) {
	for _, h := range []int{2, 3} {
		p := MustNew(h)
		routeDownByDefinition := func(f *FaultSet, when string) {
			t.Helper()
			for g := 0; g < p.Groups; g++ {
				for tg := 0; tg < p.Groups; tg++ {
					want := false
					if g != tg {
						idx, port := p.GlobalPortOfChannel(p.ChannelToGroup(g, tg))
						want = f.Down(p.RouterID(g, idx), port)
					}
					if got := f.RouteDown(g, tg); got != want || got != f.RouteDown(tg, g) {
						t.Fatalf("h=%d %s: RouteDown(%d,%d) = %v (reverse %v), owning port down = %v",
							h, when, g, tg, got, f.RouteDown(tg, g), want)
					}
				}
			}
		}
		f := NewFaultSet(p)
		r := rng.New(uint64(h), 77)
		for step := 0; step < 400; step++ {
			router, port := r.Intn(p.Routers), r.Intn(p.EjectPortBase())
			if r.Intn(4) == 0 {
				port = WholeRouter
			}
			down := r.Intn(2) == 0
			before := f.PortMask(router)
			changed := f.Apply(router, port, down)
			if want := before ^ f.PortMask(router); changed != want {
				t.Fatalf("h=%d step %d: Apply(%d, %d, %v) = %#x, masks changed by %#x",
					h, step, router, port, down, changed, want)
			}
			routeDownByDefinition(f, "after Apply")

			c := f.Clone()
			key := f.StateKey()
			if c.StateKey() != key {
				t.Fatalf("h=%d step %d: clone's StateKey differs", h, step)
			}
			routeDownByDefinition(c, "clone")
			// The clone shares nothing: a write to it leaves f alone.
			c.Apply(router, WholeRouter, !c.RouterDown(router))
			routeDownByDefinition(c, "written clone")
			if f.StateKey() != key {
				t.Fatalf("h=%d step %d: a write to the clone reached the original's masks", h, step)
			}
			routeDownByDefinition(f, "after a write to its clone")
		}
		if f.Empty() {
			t.Fatalf("h=%d: the random walk ended on a pristine set (suspicious)", h)
		}
	}
}
