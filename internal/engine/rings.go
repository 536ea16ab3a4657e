package engine

import (
	"fmt"
	"math"
	"sync/atomic"
)

// ringRef names the first slot of a ring in a ringArena: the chunk index
// shifted left by ringChunkBits, or'd with the offset in the chunk. Slot i
// of the ring is ref+i: a ring lies within one chunk, or owns consecutive
// chunks. Zero names no ring: chunk 0 is never made.
type ringRef uint32

const (
	ringChunkBits = 10
	// ringChunkLen is the slots per chunk: 8 KiB of VC entries, 4 KiB of
	// phit slots, 1 KiB of credit slots — dozens of rings, so a fresh Sim
	// pays one allocation per many rings, and a ring that no longer fits
	// leaves at most a small share of its chunk unused (512-slot chunks
	// cost scale_h8 2.6% more alloc_mb for 0.7% less on lowload_small). A
	// constant, so a slot's address is one directory load and a mask.
	ringChunkLen = 1 << ringChunkBits
	// maxRingChunks bounds the directory so that every slot has a 32-bit
	// ref.
	maxRingChunks = 1 << (32 - ringChunkBits)
)

// ringArena holds every ring of one slot type a Sim ever made — the VC
// entry rings, the link phit rings or the link credit rings — in
// fixed-length chunks of pointer-free slots, so the collector scans none
// of them and a header names its ring by a 32-bit ref instead of a slice.
// It follows packetArena's chunk-and-directory design: a worker bumps
// rings out of its own current chunk (ringCursor) and, when a ring no
// longer fits, takes the next chunk index from next and fills that
// directory slot; no two workers write one slot. A ring of more than half
// a chunk takes consecutive chunks of its own. A ring crosses to another
// worker only over a global link, whose reader reads the ref at least one
// block barrier after the writer made the ring. The directory never
// moves while workers step: allocate sizes it for the shape's worst case,
// every ring made (see ringDirLen). A re-lay zeroes every ring ref and
// keeps the chunks, which the next layout's rings are bumped out of again
// (see relay).
type ringArena[T any] struct {
	chunks []*[ringChunkLen]T // the directory; slot 0 is nil, and so is every slot no layout took
	next   *atomic.Int32      // the next chunk index (behind a pointer: the Sim copies arenas)
}

// ringCursor is one worker's bump position in an arena: the ref of its
// current chunk's next free slot and how many slots that chunk has left.
type ringCursor struct {
	ref  ringRef
	left int32
}

// ringCursors is one worker's cursors in the Sim's three arenas. Padded so
// workers never share a cache line.
type ringCursors struct {
	entries, phits, credits ringCursor
	_                       [40]byte
}

// ringArenas are the Sim's three ring arenas. The Sim holds them by
// value, so a slot is one directory load from the Sim the router already
// points to.
type ringArenas struct {
	entries ringArena[fifoEntry]
	phits   ringArena[phitSlot]
	credits ringArena[creditSlot]
}

// relay readies the arena for a new layout, whose rings name no slot yet:
// bumping restarts at chunk 1, over the chunks an earlier layout made (see
// take), and the directory grows to dirLen chunks (see ringDirLen) when it
// is shorter. It is never truncated, so no made chunk is lost.
func (a *ringArena[T]) relay(dirLen int) {
	if len(a.chunks) < dirLen {
		chunks := make([]*[ringChunkLen]T, dirLen)
		copy(chunks, a.chunks)
		a.chunks = chunks
	}
	if a.next == nil {
		a.next = new(atomic.Int32)
	}
	a.next.Store(1)
}

// at returns the slot ref names.
func (a *ringArena[T]) at(ref ringRef) *T {
	return &a.chunks[ref>>ringChunkBits][ref&(ringChunkLen-1)]
}

// alloc makes a ring of n slots: bumped out of the current chunk of c's
// worker (a fresh one when it has fewer than n slots left), or, for more
// than half a chunk, in chunks of its own.
func (a *ringArena[T]) alloc(c *ringCursor, n int32) ringRef {
	if n > ringChunkLen/2 {
		return a.take((n + ringChunkLen - 1) / ringChunkLen)
	}
	if c.left < n {
		c.ref, c.left = a.take(1), ringChunkLen
	}
	ref := c.ref
	c.ref += ringRef(n)
	c.left -= n
	return ref
}

// take hands out m chunks of consecutive indices and returns the ref of
// the first one's first slot. A chunk an earlier layout made is emptied
// and reused; only a directory slot that never held one gets a new chunk.
func (a *ringArena[T]) take(m int32) ringRef {
	k := a.next.Add(m) - m
	if int(k+m) > len(a.chunks) {
		panic(fmt.Sprintf("engine: ring directory exhausted (%d chunks)", len(a.chunks)))
	}
	for i := k; i < k+m; i++ {
		if c := a.chunks[i]; c != nil {
			clear(c[:])
		} else {
			a.chunks[i] = new([ringChunkLen]T)
		}
	}
	return ringRef(k) << ringChunkBits
}

// clear empties every ring the layout made so far, keeping them: the rings
// a run grew serve the next run of the same shape. Only called from the
// serial section, between runs.
func (a *ringArena[T]) clear() {
	for _, c := range a.chunks[1:a.next.Load()] {
		clear(c[:])
	}
}

// ringClass is count rings of n slots each.
type ringClass struct {
	count, n int64
}

// ringDirLen sizes the directory of an arena holding the given classes
// of rings, every ring made, by workers bumping concurrently. A ring of
// more than half a chunk takes ⌈n/ringChunkLen⌉ chunks of its own. Each
// bump chunk but a worker's current one was left only when a ring no
// longer fit, so it holds more than ringChunkLen - s used slots, s the
// largest bumped ring. Slot 0 is chunk 0, never made. It refuses an arena
// whose slots 32-bit refs could not name.
func ringDirLen(workers int, classes ...ringClass) (int, error) {
	var bumped, maxBumped, own int64
	for _, c := range classes {
		if c.n > ringChunkLen/2 {
			own += c.count * ((c.n + ringChunkLen - 1) / ringChunkLen)
		} else {
			bumped += c.count * c.n
			maxBumped = max(maxBumped, c.n)
		}
	}
	per := ringChunkLen - maxBumped + 1
	chunks := 1 + (bumped+per-1)/per + own + int64(workers)
	if chunks > maxRingChunks {
		return 0, fmt.Errorf("engine: %d ring chunks of %d slots exceed the %d that 32-bit ring refs name",
			chunks, ringChunkLen, maxRingChunks)
	}
	return int(chunks), nil
}

// ringDirs sizes the directories of the shape's three arenas — VC entry rings, link phit
// rings, link credit rings — for every ring made, or refuses the shape
// when some arena's refs could not name them all (an absurd buffer or
// latency), so Init fails before anything is sized from it.
func (sh *shape) ringDirs() (entries, phits, credits int, err error) {
	p := &sh.topo
	routers := int64(p.Routers)
	var vcs []ringClass
	for _, c := range []struct{ ports, vcs, capacity int64 }{
		{int64(p.LocalPorts), int64(sh.localVCs), int64(sh.bufLocal)},
		{int64(p.GlobalPorts), int64(sh.globalVCs), int64(sh.bufGlobal)},
		{int64(p.H), 1, int64(sh.injQueuePackets) * int64(sh.packetPhits)},
	} {
		if c.capacity > math.MaxInt32 {
			return entries, phits, credits, fmt.Errorf("engine: a %d-phit VC buffer exceeds the %d phits a buffer counts",
				c.capacity, math.MaxInt32)
		}
		vcs = append(vcs, ringClass{routers * c.ports * c.vcs, int64(ringEntries(int(c.capacity), sh.packetPhits))})
	}
	var links []ringClass
	for _, c := range []struct{ ports, latency int64 }{
		{int64(p.LocalPorts), int64(sh.latLocal)},
		{int64(p.GlobalPorts), int64(sh.latGlobal)},
	} {
		if c.latency > 1<<29 {
			return entries, phits, credits, fmt.Errorf("engine: a %d-cycle link exceeds the ring refs", c.latency)
		}
		links = append(links, ringClass{routers * c.ports, int64(arrivalSlotCount(int(c.latency)))})
	}
	if entries, err = ringDirLen(sh.workers, vcs...); err != nil {
		return
	}
	if phits, err = ringDirLen(sh.workers, links...); err != nil {
		return
	}
	credits, err = ringDirLen(sh.workers, links...)
	return
}
