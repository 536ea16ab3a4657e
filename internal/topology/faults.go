package topology

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/rng"
)

// WholeRouter, passed as a port to Apply or as an Event's Port, names the
// router as a whole instead of one of its links.
const WholeRouter = -1

// FaultSet tracks which links and routers of a dragonfly are failed. Link
// state is one output-port bitmask per router. A link is a full-duplex
// physical channel: failing it always removes both directions, so the masks
// of the two endpoint routers stay symmetric. A run's fault timeline is a
// Schedule (schedule.go): a boot FaultSet plus the events that change it,
// checked for connectivity once, here. The engine holds the physical state
// in one FaultSet and the routing mechanisms' possibly stale view of it in
// another (the same one when the view cannot lag); they query it through
// core.View (link-state knowledge, the information a subnet manager
// broadcasting failed links would give recomputed routing tables).
//
// Faults are layered: the effective state of a link is down when the link
// itself was failed (SetLink) or when either endpoint router is dead
// (SetRouter). The two layers are tracked separately so repairing a router
// revives exactly the links that have no other reason to stay down, and
// repairing a link under a dead router leaves the port dead until the
// router comes back.
//
// A FaultSet is plain data with no synchronization: the engine only mutates
// it in the serial section between cycles.
type FaultSet struct {
	p        *P
	down     []uint64 // effective per-router mask: link failed or an endpoint dead
	linkDown []uint64 // explicitly failed links only (SetLink layer)
	dead     []bool   // whole-router failures (SetRouter layer)
	// channelDown answers RouteDown with one load: [Groups x Groups], true
	// where the single global channel between two groups is effectively
	// down. setEffective keeps it in step with down.
	channelDown []bool

	downGlobal  int // effectively failed global links (both directions = one)
	downLocal   int // effectively failed local links
	downRouters int // dead routers
}

// NewFaultSet returns an all-alive fault set for topology p.
func NewFaultSet(p *P) *FaultSet {
	return &FaultSet{
		p:           p,
		down:        make([]uint64, p.Routers),
		linkDown:    make([]uint64, p.Routers),
		dead:        make([]bool, p.Routers),
		channelDown: make([]bool, p.Groups*p.Groups),
	}
}

// Topology returns the dragonfly the set describes.
func (f *FaultSet) Topology() *P { return f.p }

// Clone returns an independent copy.
func (f *FaultSet) Clone() *FaultSet {
	c := *f
	c.down = slices.Clone(f.down)
	c.linkDown = slices.Clone(f.linkDown)
	c.dead = slices.Clone(f.dead)
	c.channelDown = slices.Clone(f.channelDown)
	return &c
}

// setEffective flips the effective state of the link (r, port)—(rr, rp) and
// keeps the per-class counters and the channel matrix in step: the one
// place effective link state changes. The caller guarantees the state
// actually changes.
func (f *FaultSet) setEffective(r, port, rr, rp int, down bool) {
	bit, rbit := uint64(1)<<uint(port), uint64(1)<<uint(rp)
	delta := 1
	if down {
		f.down[r] |= bit
		f.down[rr] |= rbit
	} else {
		f.down[r] &^= bit
		f.down[rr] &^= rbit
		delta = -1
	}
	if f.p.IsGlobalPort(port) {
		f.downGlobal += delta
		g, tg := f.p.GroupOf(r), f.p.GroupOf(rr)
		f.channelDown[g*f.p.Groups+tg] = down
		f.channelDown[tg*f.p.Groups+g] = down
	} else {
		f.downLocal += delta
	}
}

// SetLink fails (down=true) or repairs (down=false) the physical link
// driven by the given output port of router r, in both directions. Setting
// a link to its current explicit state is a no-op. It panics on ejection
// ports, which have no link. The return value reports whether the
// effective state of the link changed: repairing or failing a link whose
// endpoint router is dead records the explicit state but leaves the link
// effectively down.
func (f *FaultSet) SetLink(r, port int, down bool) bool {
	if !f.p.IsLocalPort(port) && !f.p.IsGlobalPort(port) {
		panic(fmt.Sprintf("topology: SetLink(%d, %d): not a link port", r, port))
	}
	bit := uint64(1) << uint(port)
	if f.linkDown[r]&bit != 0 == down {
		return false
	}
	rr, rp := f.p.LinkTarget(r, port)
	rbit := uint64(1) << uint(rp)
	if down {
		f.linkDown[r] |= bit
		f.linkDown[rr] |= rbit
	} else {
		f.linkDown[r] &^= bit
		f.linkDown[rr] &^= rbit
	}
	if f.dead[r] || f.dead[rr] {
		return false // pinned down by the dead endpoint either way
	}
	f.setEffective(r, port, rr, rp, down)
	return true
}

// SetRouter fails (down=true) or repairs (down=false) router r as a whole:
// every link port of the router goes down with it (its ejection ports have
// no link; the engine parks the attached nodes separately). Setting a
// router to its current state is a no-op. The returned mask holds r's
// ports whose effective link state changed — on repair, links that were
// also explicitly failed or whose far endpoint is still dead stay down and
// are not reported.
func (f *FaultSet) SetRouter(r int, down bool) uint64 {
	if f.dead[r] == down {
		return 0
	}
	f.dead[r] = down
	if down {
		f.downRouters++
	} else {
		f.downRouters--
	}
	var changed uint64
	for port := 0; port < f.p.EjectPortBase(); port++ {
		rr, rp := f.p.LinkTarget(r, port)
		bit := uint64(1) << uint(port)
		effDown := f.linkDown[r]&bit != 0 || f.dead[r] || f.dead[rr]
		if f.down[r]&bit != 0 == effDown {
			continue
		}
		f.setEffective(r, port, rr, rp, effDown)
		changed |= bit
	}
	return changed
}

// Apply is SetRouter(r, down) when port is WholeRouter and SetLink(r, port,
// down) otherwise: the one interpretation of a fault event's (router, port)
// pair. It returns r's ports whose effective link state changed.
func (f *FaultSet) Apply(r, port int, down bool) uint64 {
	if port == WholeRouter {
		return f.SetRouter(r, down)
	}
	if f.SetLink(r, port, down) {
		return 1 << uint(port)
	}
	return 0
}

// Down reports whether the link on output port of router r is effectively
// failed (explicitly, or via a dead endpoint router).
func (f *FaultSet) Down(r, port int) bool {
	return f.down[r]&(1<<uint(port)) != 0
}

// RouterDown reports whether router r is dead as a whole.
func (f *FaultSet) RouterDown(r int) bool { return f.dead[r] }

// PortMask returns router r's effective failed-port bitmask.
func (f *FaultSet) PortMask(r int) uint64 { return f.down[r] }

// DownGlobal and DownLocal count the failed physical links per class.
func (f *FaultSet) DownGlobal() int { return f.downGlobal }

// DownLocal counts the failed local links.
func (f *FaultSet) DownLocal() int { return f.downLocal }

// DownRouters counts the dead routers.
func (f *FaultSet) DownRouters() int { return f.downRouters }

// Empty reports whether every link and router is alive.
func (f *FaultSet) Empty() bool {
	return f.downGlobal == 0 && f.downLocal == 0 && f.downRouters == 0
}

// RouteDown reports whether the single global channel from group g to group
// tg is failed. It is the group-pair reachability question every mechanism
// asks when steering toward a remote group.
func (f *FaultSet) RouteDown(g, tg int) bool { return f.channelDown[g*f.p.Groups+tg] }

// LocalRouteDown reports whether the local link between router indices i
// and j of group is failed.
func (f *FaultSet) LocalRouteDown(group, i, j int) bool {
	if i == j {
		return false
	}
	return f.Down(f.p.RouterID(group, i), f.p.LocalPort(i, j))
}

// TotalGlobalLinks returns the number of physical global links of p: one
// per unordered group pair.
func TotalGlobalLinks(p *P) int { return p.Groups * (p.Groups - 1) / 2 }

// TotalLocalLinks returns the number of physical local links of p: one per
// unordered router pair inside each group.
func TotalLocalLinks(p *P) int {
	return p.Groups * p.RoutersPerGroup * (p.RoutersPerGroup - 1) / 2
}

// Partition probes reachability over the surviving links. Dead routers are
// out of the network by definition (every link port is down) and do not
// count as unreachable: the network is partitioned when two LIVE routers
// cannot reach each other. On a partition it returns a witness pair (a, b)
// — the BFS root and the first live router it cannot reach — for
// diagnostics; when every router is dead it returns (-1, -1, true).
func (f *FaultSet) Partition() (a, b int, partitioned bool) {
	p := f.p
	start := -1
	for r := 0; r < p.Routers; r++ {
		if !f.dead[r] {
			start = r
			break
		}
	}
	if start < 0 {
		return -1, -1, true
	}
	seen := make([]bool, p.Routers)
	queue := make([]int, 0, p.Routers)
	seen[start] = true
	queue = append(queue, start)
	visited := 1
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		up := ^f.down[r] & (1<<uint(p.EjectPortBase()) - 1)
		for m := up; m != 0; m &= m - 1 {
			rr, _ := p.LinkTarget(r, bits.TrailingZeros64(m))
			if !seen[rr] {
				seen[rr] = true
				visited++
				queue = append(queue, rr)
			}
		}
	}
	if visited == p.Routers-f.downRouters {
		return 0, 0, false
	}
	for r := 0; r < p.Routers; r++ {
		if !seen[r] && !f.dead[r] {
			return start, r, true
		}
	}
	return 0, 0, false // unreachable: the counts guarantee a witness
}

// StateKey returns an exact byte encoding of the effective fault state
// (link masks plus dead-router flags). Two sets over the same topology
// share a key iff they are indistinguishable to routing, so NewSchedule can
// dedupe connectivity checks across repeated states — flap schedules
// revisit the same handful of states thousands of times.
func (f *FaultSet) StateKey() string {
	buf := make([]byte, 0, 8*len(f.down)+(len(f.dead)+7)/8)
	for _, m := range f.down {
		buf = append(buf,
			byte(m), byte(m>>8), byte(m>>16), byte(m>>24),
			byte(m>>32), byte(m>>40), byte(m>>48), byte(m>>56))
	}
	var acc byte
	for i, d := range f.dead {
		if d {
			acc |= 1 << uint(i%8)
		}
		if i%8 == 7 {
			buf = append(buf, acc)
			acc = 0
		}
	}
	if len(f.dead)%8 != 0 {
		buf = append(buf, acc)
	}
	return string(buf)
}

// RandomFaults fails a deterministic pseudo-random selection of links in f:
// round(globalFrac * TotalGlobalLinks) global links and round(localFrac *
// TotalLocalLinks) local links, drawn without replacement from a SplitMix
// stream of seed. The same (topology, fractions, seed) always yields the
// same failed set, so configurations remain content-addressable.
func RandomFaults(f *FaultSet, globalFrac, localFrac float64, seed uint64) error {
	// The negated form rejects NaN along with out-of-range values.
	if !(globalFrac >= 0 && globalFrac < 1) || !(localFrac >= 0 && localFrac < 1) {
		return fmt.Errorf("topology: fault fractions %v/%v outside [0, 1)", globalFrac, localFrac)
	}
	p := f.p
	// Streams 1e9+1/1e9+3 sit far from the engine's per-router (2id+1) and
	// per-node (2node+2e6) streams for every simulatable size.
	if globalFrac > 0 {
		r := rng.New(seed, 1_000_000_001)
		links := make([][2]int, 0, TotalGlobalLinks(p))
		for g := 0; g < p.Groups; g++ {
			for k := 0; k < p.ChannelsPerGrp; k++ {
				if p.TargetGroup(g, k) < g {
					continue // counted from the lower-numbered group
				}
				idx, port := p.GlobalPortOfChannel(k)
				links = append(links, [2]int{p.RouterID(g, idx), port})
			}
		}
		for _, l := range pickLinks(links, globalFrac, r) {
			f.SetLink(l[0], l[1], true)
		}
	}
	if localFrac > 0 {
		r := rng.New(seed, 1_000_000_003)
		links := make([][2]int, 0, TotalLocalLinks(p))
		for g := 0; g < p.Groups; g++ {
			for i := 0; i < p.RoutersPerGroup; i++ {
				for j := i + 1; j < p.RoutersPerGroup; j++ {
					links = append(links, [2]int{p.RouterID(g, i), p.LocalPort(i, j)})
				}
			}
		}
		for _, l := range pickLinks(links, localFrac, r) {
			f.SetLink(l[0], l[1], true)
		}
	}
	return nil
}

// pickLinks selects round(frac*len) links by partial Fisher-Yates shuffle.
func pickLinks(links [][2]int, frac float64, r *rng.PCG) [][2]int {
	n := int(math.Round(frac * float64(len(links))))
	if n > len(links) {
		n = len(links)
	}
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(links)-i)
		links[i], links[j] = links[j], links[i]
	}
	return links[:n]
}
