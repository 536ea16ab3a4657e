// Package topology models the canonical well-balanced Dragonfly network of
// Kim et al. as used by García et al. (ICPP 2013): supernodes (groups) of
// 2h routers fully connected by local links, and 2h²+1 groups fully
// connected by global links, with h compute nodes per router.
//
// Identifier conventions used across the simulator:
//
//   - routers are numbered 0..R-1 globally, router r belongs to group
//     r / (2h) and has index r % (2h) inside it;
//   - nodes are numbered 0..N-1 globally, node n attaches to router n / h;
//   - every router has 4h-1 ports, split into output classes
//     [0, 2h-1) local, [2h-1, 3h-1) global, [3h-1, 4h-1) ejection
//     (injection ports mirror ejection ports on the input side).
//
// Global channels use the "consecutive" assignment: channel k of group g
// (k in [0, 2h²)) connects to group (g+k+1) mod G and is owned by router
// index k/h on its port k%h. The paired channel on the remote side is
// G-2-k. This layout reproduces the pathological intermediate-group local
// link saturation under ADVG+h traffic described in the paper.
package topology

import "fmt"

// P holds the derived parameters of a dragonfly instance. All fields are
// immutable after New.
type P struct {
	H               int // the sizing parameter (nodes per router)
	RoutersPerGroup int // 2h
	Groups          int // 2h²+1
	Routers         int // RoutersPerGroup * Groups
	Nodes           int // Routers * H
	ChannelsPerGrp  int // 2h² global channels leaving each group

	LocalPorts  int // 2h-1 local output ports per router
	GlobalPorts int // h global output ports per router
	Ports       int // 4h-1 total output ports per router
}

// New builds the parameter set for a well-balanced dragonfly with the given
// h. It returns an error if h < 1.
func New(h int) (*P, error) {
	if h < 1 {
		return nil, fmt.Errorf("topology: h must be >= 1, got %d", h)
	}
	p := &P{
		H:               h,
		RoutersPerGroup: 2 * h,
		Groups:          2*h*h + 1,
		ChannelsPerGrp:  2 * h * h,
		LocalPorts:      2*h - 1,
		GlobalPorts:     h,
		Ports:           4*h - 1,
	}
	p.Routers = p.RoutersPerGroup * p.Groups
	p.Nodes = p.Routers * h
	return p, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(h int) *P {
	p, err := New(h)
	if err != nil {
		panic(err)
	}
	return p
}

// GroupOf returns the group of router r.
func (p *P) GroupOf(r int) int { return r / p.RoutersPerGroup }

// IndexInGroup returns the index of router r inside its group.
func (p *P) IndexInGroup(r int) int { return r % p.RoutersPerGroup }

// RouterID returns the global router id for (group, index).
func (p *P) RouterID(group, idx int) int { return group*p.RoutersPerGroup + idx }

// RouterOfNode returns the router node n attaches to.
func (p *P) RouterOfNode(n int) int { return n / p.H }

// NodeID returns the global node id of the k-th node of router r.
func (p *P) NodeID(r, k int) int { return r*p.H + k }

// NodeIndex returns the index of node n at its router (0..h-1).
func (p *P) NodeIndex(n int) int { return n % p.H }

// Port class boundaries (output side). Input ports use the same layout with
// injection ports where ejection ports sit.

// LocalPortBase is the first local port (always 0).
const LocalPortBase = 0

// GlobalPortBase returns the first global port index.
func (p *P) GlobalPortBase() int { return 2*p.H - 1 }

// EjectPortBase returns the first ejection (output) / injection (input)
// port index.
func (p *P) EjectPortBase() int { return 3*p.H - 1 }

// IsLocalPort reports whether port is a local link port.
func (p *P) IsLocalPort(port int) bool { return port >= 0 && port < p.GlobalPortBase() }

// IsGlobalPort reports whether port is a global link port.
func (p *P) IsGlobalPort(port int) bool {
	return port >= p.GlobalPortBase() && port < p.EjectPortBase()
}

// IsEjectPort reports whether port is an ejection/injection port.
func (p *P) IsEjectPort(port int) bool {
	return port >= p.EjectPortBase() && port < p.Ports
}

// LocalPort returns the local output port router index from uses to reach
// router index to within the same group. It panics if from == to.
func (p *P) LocalPort(from, to int) int {
	if from == to {
		// A constant message keeps LocalPort inlinable (FaultSet.LocalRouteDown
		// sits under every routing-plan build of a faulted run).
		panic("topology: LocalPort from a router index to itself")
	}
	if to < from {
		return to
	}
	return to - 1
}

// LocalPortTarget returns the in-group router index reached through local
// port of router index from.
func (p *P) LocalPortTarget(from, port int) int {
	if port < from {
		return port
	}
	return port + 1
}

// GlobalChannelOfPort returns the group-level global channel k served by
// the given global port of router index idx.
func (p *P) GlobalChannelOfPort(idx, port int) int {
	return idx*p.H + (port - p.GlobalPortBase())
}

// GlobalPortOfChannel returns the owning router index and port of channel k.
func (p *P) GlobalPortOfChannel(k int) (idx, port int) {
	return k / p.H, p.GlobalPortBase() + k%p.H
}

// TargetGroup returns the group reached through channel k of group g.
func (p *P) TargetGroup(g, k int) int {
	return (g + k + 1) % p.Groups
}

// ChannelToGroup returns the channel of group g that reaches group tg.
// It panics if g == tg (no self channel exists).
func (p *P) ChannelToGroup(g, tg int) int {
	if g == tg {
		panic(fmt.Sprintf("topology: ChannelToGroup(%d, %d) within one group", g, tg))
	}
	k := tg - g - 1
	if k < 0 {
		k += p.Groups
	}
	return k
}

// PairedChannel returns the channel k' on the remote side of channel k.
func (p *P) PairedChannel(k int) int { return p.Groups - 2 - k }

// GlobalLink resolves the remote endpoint of the global port of router r:
// the remote router id and its (global input/output) port.
func (p *P) GlobalLink(r, port int) (remote, remotePort int) {
	g := p.GroupOf(r)
	k := p.GlobalChannelOfPort(p.IndexInGroup(r), port)
	tg := p.TargetGroup(g, k)
	kp := p.PairedChannel(k)
	idx, rp := p.GlobalPortOfChannel(kp)
	return p.RouterID(tg, idx), rp
}

// LocalLink resolves the remote endpoint of the local port of router r:
// the remote router id and the symmetric port index at the remote side.
func (p *P) LocalLink(r, port int) (remote, remotePort int) {
	g, idx := p.GroupOf(r), p.IndexInGroup(r)
	tj := p.LocalPortTarget(idx, port)
	return p.RouterID(g, tj), p.LocalPort(tj, idx)
}

// LinkTarget resolves any non-ejection output port to its remote endpoint.
func (p *P) LinkTarget(r, port int) (remote, remotePort int) {
	if p.IsLocalPort(port) {
		return p.LocalLink(r, port)
	}
	if p.IsGlobalPort(port) {
		return p.GlobalLink(r, port)
	}
	panic(fmt.Sprintf("topology: LinkTarget(%d, %d): not a link port", r, port))
}

// EjectPortOfNode returns the ejection output port of node n at its router.
func (p *P) EjectPortOfNode(n int) int {
	return p.EjectPortBase() + p.NodeIndex(n)
}

// MinimalLocalTarget returns the router index (within the group of cur)
// a packet must reach so it can leave the group toward targetGroup, given
// the current router id cur. If the current group is the target group the
// notion is undefined here; callers handle the in-group case themselves.
func (p *P) MinimalLocalTarget(cur, targetGroup int) int {
	k := p.ChannelToGroup(p.GroupOf(cur), targetGroup)
	idx, _ := p.GlobalPortOfChannel(k)
	return idx
}

// MinimalHops returns the number of router-to-router hops on the minimal
// path between routers a and b (0..3).
func (p *P) MinimalHops(a, b int) int {
	if a == b {
		return 0
	}
	ga, gb := p.GroupOf(a), p.GroupOf(b)
	if ga == gb {
		return 1
	}
	hops := 1 // the global hop
	ka := p.ChannelToGroup(ga, gb)
	ia, _ := p.GlobalPortOfChannel(ka)
	if ia != p.IndexInGroup(a) {
		hops++
	}
	kb := p.PairedChannel(ka)
	ib, _ := p.GlobalPortOfChannel(kb)
	if ib != p.IndexInGroup(b) {
		hops++
	}
	return hops
}
