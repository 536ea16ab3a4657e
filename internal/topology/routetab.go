// routetab.go is the precomputed routing-table layer: flat, read-only
// lookup tables derived once from the closed-form dragonfly arithmetic of
// topology.go, so per-packet route evaluation becomes index walks instead
// of repeated div/mod chains. Real dragonfly routers work exactly this way
// — a fabric manager computes routing tables at boot (and recomputes them
// on faults); the per-packet data path only consults them.
//
// All tables are pure functions of the topology parameter h. They are
// immutable after NewRouteTable, so one instance is shared read-only by
// every router of a simulation (and by every worker of the parallel
// executor) without synchronization. Fault state deliberately lives
// elsewhere: in FaultSet, which the engine holds twice — the physical
// state and the routing mechanisms' view of it (see internal/engine).
package topology

// MinHop is one entry of the minimal-route table: the next-hop output port
// a router uses toward a target group, whether that hop is global, and the
// in-group index of the exit router the hop steers to (the global channel
// owner; -1 when the hop is the global channel itself).
type MinHop struct {
	Port   int16
	Exit   int16 // exit router index within the group; -1 on global hops
	Global bool
}

// RouteTable holds the precomputed tables of one dragonfly instance.
type RouteTable struct {
	p *P

	// groupOf and indexOf replace the div/mod of GroupOf / IndexInGroup
	// with one indexed load on the per-packet paths.
	groupOf []int32 // router id -> group
	indexOf []int32 // router id -> index within its group

	// minRows is the minimal next-hop table, flattened [RoutersPerGroup x
	// Groups]: minRows[idx*Groups+d] is the hop router index idx takes
	// toward the group at cyclic offset d = (tg-g) mod Groups (d >= 1).
	// The entry depends only on (idx, d), never on the absolute group, so
	// one row set serves every group of the machine. Entry d=0 is invalid
	// (a router never steers "toward" its own group through this table).
	minRows []MinHop

	// ownerOf[d] is the in-group index of the router owning the global
	// channel toward offset d (the channel d-1); ownerOf[0] is -1.
	ownerOf []int16

	// gpm is the global-port matrix, flattened [RoutersPerGroup x Groups]:
	// gpm[idx*Groups+d] is the global output port of router index idx
	// driving the channel toward offset d, or -1 when idx does not own
	// that channel. gpm[idx*Groups+0] is -1.
	gpm []int16

	// localPort is flattened [RoutersPerGroup x RoutersPerGroup]:
	// localPort[from*RPG+to] is the local output port from router index
	// from to index to (-1 on the diagonal).
	localPort []int16

	// localTarget is flattened [RoutersPerGroup x LocalPorts]:
	// localTarget[idx*LocalPorts+port] is the in-group index reached
	// through local port of router index idx.
	localTarget []int16

	// ringPort[idx] is the output port of OFAR's escape-ring hop at a
	// router with in-group index idx: descending local hops, router 0
	// crossing on global channel 0.
	ringPort []int16
}

// NewRouteTable computes the full table set for p. Construction is
// O(RoutersPerGroup x Groups) — microseconds even at paper scale — and is
// done once per simulation.
func NewRouteTable(p *P) *RouteTable {
	rpg, groups := p.RoutersPerGroup, p.Groups
	t := &RouteTable{
		p:           p,
		groupOf:     make([]int32, p.Routers),
		indexOf:     make([]int32, p.Routers),
		minRows:     make([]MinHop, rpg*groups),
		ownerOf:     make([]int16, groups),
		gpm:         make([]int16, rpg*groups),
		localPort:   make([]int16, rpg*rpg),
		localTarget: make([]int16, rpg*p.LocalPorts),
		ringPort:    make([]int16, rpg),
	}
	for r := 0; r < p.Routers; r++ {
		t.groupOf[r] = int32(p.GroupOf(r))
		t.indexOf[r] = int32(p.IndexInGroup(r))
	}
	t.ownerOf[0] = -1
	for d := 1; d < groups; d++ {
		owner, _ := p.GlobalPortOfChannel(d - 1)
		t.ownerOf[d] = int16(owner)
	}
	for from := 0; from < rpg; from++ {
		for to := 0; to < rpg; to++ {
			if from == to {
				t.localPort[from*rpg+to] = -1
				continue
			}
			t.localPort[from*rpg+to] = int16(p.LocalPort(from, to))
		}
		for port := 0; port < p.LocalPorts; port++ {
			t.localTarget[from*p.LocalPorts+port] = int16(p.LocalPortTarget(from, port))
		}
	}
	for idx := 0; idx < rpg; idx++ {
		t.minRows[idx*groups] = MinHop{Port: -1, Exit: -1}
		t.gpm[idx*groups] = -1
		for d := 1; d < groups; d++ {
			k := d - 1
			owner, gport := p.GlobalPortOfChannel(k)
			e := MinHop{Exit: int16(owner)}
			if owner == idx {
				e.Port = int16(gport)
				e.Exit = -1
				e.Global = true
				t.gpm[idx*groups+d] = int16(gport)
			} else {
				e.Port = int16(p.LocalPort(idx, owner))
				t.gpm[idx*groups+d] = -1
			}
			t.minRows[idx*groups+d] = e
		}
		if idx > 0 {
			t.ringPort[idx] = int16(p.LocalPort(idx, idx-1))
		} else {
			t.ringPort[idx] = int16(p.GlobalPortBase())
		}
	}
	return t
}

// Topology returns the dragonfly the tables describe.
func (t *RouteTable) Topology() *P { return t.p }

// GroupOf returns the group of router r by table lookup.
func (t *RouteTable) GroupOf(r int) int { return int(t.groupOf[r]) }

// IndexOf returns router r's index within its group by table lookup.
func (t *RouteTable) IndexOf(r int) int { return int(t.indexOf[r]) }

// GroupOffset returns the cyclic offset d = (tg-g) mod Groups without a
// division (both arguments are in [0, Groups)).
func (t *RouteTable) GroupOffset(g, tg int) int {
	d := tg - g
	if d < 0 {
		d += t.p.Groups
	}
	return d
}

// MinHopTo returns the minimal next hop of a router with in-group index
// idx toward the group at cyclic offset d >= 1.
func (t *RouteTable) MinHopTo(idx, d int) MinHop {
	return t.minRows[idx*t.p.Groups+d]
}

// OwnerOf returns the in-group index of the router owning the global
// channel toward cyclic offset d >= 1.
func (t *RouteTable) OwnerOf(d int) int { return int(t.ownerOf[d]) }

// GlobalPortTo returns the global output port of router index idx driving
// the channel toward cyclic offset d, or -1 when idx does not own it.
func (t *RouteTable) GlobalPortTo(idx, d int) int { return int(t.gpm[idx*t.p.Groups+d]) }

// LocalPortTo returns the local output port from in-group index from to
// index to (-1 when from == to).
func (t *RouteTable) LocalPortTo(from, to int) int {
	return int(t.localPort[from*t.p.RoutersPerGroup+to])
}

// LocalTargetOf returns the in-group index reached through local port of
// router index idx.
func (t *RouteTable) LocalTargetOf(idx, port int) int {
	return int(t.localTarget[idx*t.p.LocalPorts+port])
}

// RingPortOf returns the escape-ring output port at in-group index idx.
func (t *RouteTable) RingPortOf(idx int) int { return int(t.ringPort[idx]) }
