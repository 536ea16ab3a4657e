package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// MaxPacketPhits is the largest packet the engine runs: a VC buffer entry
// counts a packet's arrived and sent phits in 16 bits each.
const MaxPacketPhits = math.MaxUint16

// MaxPhases is the most workload phases a run may track: a packet keeps
// its phase id in 16 bits.
const MaxPhases = math.MaxInt16

// Packet is one network packet. The engine moves it phit by phit; buffers
// and links name it by pktRef, and the Sim owns it (see packetArena) from
// the first run that injects it to the Sim's last. It holds no pointer, so
// neither the arena nor any ring that names a packet is scanned by the
// collector. It carries no size (every packet has the Sim's one size) and
// no id, and its phase id fits 16 bits (Config.validate refuses more than
// MaxPhases phases), so it is 48 bytes and a 64-packet chunk fills the
// allocator's 3,072-byte size class exactly.
type Packet struct {
	CreatedAt  int64 // cycle the traffic process generated it
	InjectedAt int64 // cycle its head left the injection queue (-1 until then)
	Phase      int16 // workload-global phase id active at generation

	St core.PacketState // routing state
}

// pktRef names one packet of the Sim's arena: chunk<<pktChunkBits | slot.
// Zero means "no packet", so slot 0 of chunk 0 is never handed out.
type pktRef uint32

const (
	pktChunkBits = 6
	pktChunkLen  = 1 << pktChunkBits
	// maxPktChunks bounds the directory so that every ref fits the 28
	// bits a link's phit slot gives it (see phitSlot): 2^28 packets, where
	// a saturated h=16 fabric holds about 35M.
	maxPktChunks = 1 << (28 - pktChunkBits)
)

// pktChunk is the arena's unit of growth: small enough that a fresh
// low-load Sim pays little for its first packets, large enough that taking
// one costs a worker one atomic per 64 packets. It fills the allocator's
// 3,072-byte size class.
type pktChunk [pktChunkLen]Packet

// packetArena holds every packet a Sim ever made. A worker whose free list
// runs dry takes the next chunk index from next and fills that directory
// slot; no two workers write one slot, and a ref crosses to another worker
// only over a global link, which is read at least one block barrier after
// the write. The directory itself never moves while workers step: it grows
// only in the serial section (see reserve), always far enough ahead that
// no block can use up its free slots.
type packetArena struct {
	chunks []*pktChunk // the directory; slots >= next are nil
	next   atomic.Int32
}

// at returns the packet ref names.
func (a *packetArena) at(ref pktRef) *Packet {
	return &a.chunks[ref>>pktChunkBits][ref&(pktChunkLen-1)]
}

// reserve grows the directory, if needed, to at least free unused slots.
// Only called from the serial section.
func (a *packetArena) reserve(free int) {
	if need := int(a.next.Load()) + free; need > len(a.chunks) {
		if need > maxPktChunks {
			panic(fmt.Sprintf("engine: packet directory past %d chunks: refs would overflow a phit slot", maxPktChunks))
		}
		chunks := make([]*pktChunk, min(max(need, 2*len(a.chunks)), maxPktChunks))
		copy(chunks, a.chunks)
		a.chunks = chunks
	}
}

// reservePackets keeps the packet directory a block ahead. Every node
// injects at most one packet per cycle, and a worker takes a chunk only
// when its free list is empty, so no block takes more than
// ⌈Nodes × blockMax / 64⌉ chunks plus one per worker. Called from the
// serial section only: init and finishBlock.
func (s *Sim) reservePackets() {
	s.arena.reserve((s.topo.Nodes*s.blockMax+pktChunkLen-1)/pktChunkLen + s.shape.workers)
}

// take makes the next chunk and hands its refs to l.
func (a *packetArena) take(l *packetList) {
	k := int(a.next.Add(1) - 1)
	if k >= len(a.chunks) {
		panic(fmt.Sprintf("engine: packet directory exhausted within a block (%d chunks)", len(a.chunks)))
	}
	a.chunks[k] = new(pktChunk)
	l.made += int64(l.addChunk(k))
}

// deal zeroes every packet and returns each to a worker list, chunk k to
// list k mod len(lists), whatever the last run left buffered or on a wire.
// Only called from the serial section, between runs.
func (a *packetArena) deal(lists []packetList) {
	for i := range lists {
		lists[i].free = lists[i].free[:0]
	}
	for k, c := range a.chunks[:a.next.Load()] {
		clear(c[:])
		lists[k%len(lists)].addChunk(k)
	}
}

// packetList is one worker's free packets. Injection pops from the list of
// the injecting router's worker; delivery and the drop sink push onto the
// list of the router that finalized the packet. Routers never change
// workers (see Sim.allocate), so each list has exactly one goroutine
// touching it and needs no lock. A worker that finalizes more packets than
// it injects keeps the surplus until the next init deals the arena out
// again. Padded so workers never share a cache line.
type packetList struct {
	free []pktRef
	made int64 // packets this list took from the arena (all-time)
	_    [4]int64
}

// get pops a zeroed packet, taking a fresh chunk of a when the list is
// empty.
func (l *packetList) get(a *packetArena) (pktRef, *Packet) {
	if len(l.free) == 0 {
		a.take(l)
	}
	n := len(l.free) - 1
	ref := l.free[n]
	l.free = l.free[:n]
	return ref, a.at(ref)
}

// addChunk pushes chunk k's refs onto the list and returns how many: all
// but ref 0, which reads as "no packet".
func (l *packetList) addChunk(k int) int {
	n := len(l.free)
	for slot := pktChunkLen - 1; slot >= 0; slot-- {
		if ref := pktRef(k<<pktChunkBits | slot); ref != 0 {
			l.free = append(l.free, ref)
		}
	}
	return len(l.free) - n
}

// put zeroes a finalized packet and keeps it. Callers must not use ref
// afterwards.
func (l *packetList) put(ref pktRef, p *Packet) {
	*p = Packet{}
	l.free = append(l.free, ref)
}
