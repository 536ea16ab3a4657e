package engine

import "repro/internal/core"

// Packet is one network packet. The engine moves it phit by phit; buffers
// and links reference it by pointer, so a packet is allocated once per
// injection and recycled after delivery.
type Packet struct {
	ID         int64
	Size       int32 // phits
	Phase      int32 // workload-global phase id active at generation
	CreatedAt  int64 // cycle the traffic process generated it
	InjectedAt int64 // cycle its head left the injection queue (-1 until then)

	St core.PacketState // routing state
}

// packetList is one worker's free packets. Injection pops from the list of
// the injecting router's worker; delivery and the drop sink push onto the
// list of the router that finalized the packet. Routers never change
// workers (see Sim.allocate), so each list has exactly one goroutine
// touching it and needs no lock. Padded so workers never share a cache line.
type packetList struct {
	free []*Packet
	made int64 // packets this list had to allocate (all-time)
	_    [4]int64
}

// get pops a zeroed packet, allocating one when the list is empty.
func (l *packetList) get() *Packet {
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		return p
	}
	l.made++
	return new(Packet)
}

// put zeroes a finalized packet and keeps it. Callers must not retain
// references afterwards.
func (l *packetList) put(p *Packet) {
	*p = Packet{}
	l.free = append(l.free, p)
}
