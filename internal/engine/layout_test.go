package engine

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/topology"
)

// inVCs returns input port's VC buffers.
func (r *router) inVCs(port int) []vcBuffer {
	vc0 := r.in[port].vc0
	return r.vcs[vc0 : vc0+int32(r.out[port].nvc)]
}

// TestHotHeadersFitOneLine pins the headers the per-cycle path loads: a
// VC buffer header in 24 bytes, a link in 32, an output port within half
// a 64-byte cache line, the router fields every step reads (arrivals, the
// injection appointment, occupancy, the Piggybacking cooldown and parity)
// in its first line, a node's phase cache and appointment in 24 bytes, a
// packet in 48 bytes and its arena chunk in the allocator's 3,072-byte
// size class — and the ring slots at their packed sizes: a phit in 4
// bytes, a credit in 1.
func TestHotHeadersFitOneLine(t *testing.T) {
	var r router
	for name, end := range map[string]uintptr{
		"arrivals": unsafe.Offsetof(r.arrivals) + unsafe.Sizeof(r.arrivals),
		"injectAt": unsafe.Offsetof(r.injectAt) + unsafe.Sizeof(r.injectAt),
		"occupied": unsafe.Offsetof(r.occupied) + unsafe.Sizeof(r.occupied),
		"parity":   unsafe.Offsetof(r.parity) + unsafe.Sizeof(r.parity),
	} {
		if end > 64 {
			t.Errorf("router.%s ends at byte %d, past the first cache line", name, end)
		}
	}
	if n := unsafe.Sizeof(nodePhase{}); n > 24 {
		t.Errorf("nodePhase is %d bytes, want <= 24", n)
	}
	if n := unsafe.Sizeof(vcBuffer{}); n > 24 {
		t.Errorf("vcBuffer is %d bytes, want <= 24", n)
	}
	if n := unsafe.Sizeof(link{}); n > 32 {
		t.Errorf("link is %d bytes, want <= 32", n)
	}
	if n := unsafe.Sizeof(Packet{}); n > 48 {
		t.Errorf("Packet is %d bytes, want <= 48", n)
	}
	if n := unsafe.Sizeof(pktChunk{}); n > 3072 {
		t.Errorf("pktChunk is %d bytes, want <= 3072", n)
	}
	if n := unsafe.Sizeof(outPort{}); n > 32 {
		t.Errorf("outPort is %d bytes, want <= 32", n)
	}
	if n := unsafe.Sizeof(phitSlot(0)); n != 4 {
		t.Errorf("phitSlot is %d bytes, want 4", n)
	}
	if n := unsafe.Sizeof(creditSlot(0)); n != 1 {
		t.Errorf("creditSlot is %d bytes, want 1", n)
	}
	if n := unsafe.Sizeof(fifoEntry{}); n != 8 {
		t.Errorf("fifoEntry is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(transfer{}); n > 12 {
		t.Errorf("transfer is %d bytes, want <= 12", n)
	}
	t.Logf("router %d B, link %d B, transfer %d B, packet %d B", unsafe.Sizeof(router{}),
		unsafe.Sizeof(link{}), unsafe.Sizeof(transfer{}), unsafe.Sizeof(Packet{}))
}

// TestRingsHoldNoPointers pins the collector-free layout: the packet, the
// arena chunk, every ring slot that names a packet or a credit, and the
// VC buffer and link headers that name their rings by ref hold no
// pointer-bearing field, so a field added later cannot quietly make the
// collector scan the arena, the rings or the fabric-wide buffer and link
// arrays again. A ring arena's chunks are slices of those slots: the
// directory is scanned, the chunks are not.
func TestRingsHoldNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: the collector would scan it", path, ty.Kind())
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	var rings ringArenas
	for _, ty := range []reflect.Type{
		reflect.TypeFor[Packet](), reflect.TypeFor[pktChunk](), reflect.TypeFor[phitSlot](),
		reflect.TypeFor[creditSlot](), reflect.TypeFor[fifoEntry](), reflect.TypeFor[transfer](),
		reflect.TypeFor[vcBuffer](), reflect.TypeFor[link](), reflect.TypeFor[ringRef](),
		reflect.TypeOf(rings.entries.chunks).Elem().Elem(), reflect.TypeOf(rings.phits.chunks).Elem().Elem(),
		reflect.TypeOf(rings.credits.chunks).Elem().Elem(),
	} {
		walk(ty.Name(), ty)
	}
}

// TestNewAllocsIndependentOfSize: building a fabric takes one allocation
// per field array, not one per router or port, so engine.New allocates
// as often at h=4 (528 routers) as at h=2 (36). Both sizes are built once
// before counting: the runtime's first growth to the larger heap may
// allocate once on its own.
func TestNewAllocsIndependentOfSize(t *testing.T) {
	for _, spec := range []core.Spec{core.Minimal, core.PB, core.RLM, core.OFAR} {
		cfgs := map[int]Config{2: testConfig(t, 2, spec, 0.3), 4: testConfig(t, 4, spec, 0.3)}
		build := func(h int) func() {
			return func() {
				if _, err := New(cfgs[h]); err != nil {
					t.Fatal(err)
				}
			}
		}
		build(2)()
		build(4)()
		allocs := map[int]float64{2: testing.AllocsPerRun(5, build(2)), 4: testing.AllocsPerRun(5, build(4))}
		if allocs[2] != allocs[4] {
			t.Errorf("%v: engine.New allocates %v times at h=2, %v at h=4", spec, allocs[2], allocs[4])
		}
	}
}

// TestRingRefsFitLargestFabric: the ring arenas name every slot by a
// 32-bit ref, so Init refuses a shape whose worst case — every VC entry
// ring and every link ring made — could not be named. Arithmetic only,
// nothing is allocated: the h=16 PAR-6/2 fabric (the most VCs per port) at
// the paper's buffers, packets and latencies fits each arena, with a
// directory a fraction of the rings it names; a global buffer of 2^20
// phits at h=16 is refused, and so is one of 2^30 phits by New at h=2,
// before the fabric is built.
func TestRingRefsFitLargestFabric(t *testing.T) {
	localVCs, globalVCs := core.PAR62.VCs()
	sh := shape{
		topo: *topology.MustNew(16), localVCs: localVCs, globalVCs: globalVCs,
		bufLocal: 32, bufGlobal: 256, packetPhits: 8, injQueuePackets: 16,
		latLocal: 10, latGlobal: 100, workers: 64, jobs: 1,
	}
	entries, phits, credits, err := sh.ringDirs()
	if err != nil {
		t.Fatalf("h=16 PAR-6/2 at the paper's buffers refused: %v", err)
	}
	for _, a := range []struct {
		name      string
		chunks    int
		slotBytes int64
	}{{"entries", entries, 8}, {"phits", phits, 4}, {"credits", credits, 1}} {
		slots := int64(a.chunks) * ringChunkLen
		if slots > 1<<32 {
			t.Errorf("%s: %d chunks of %d slots overflow 32-bit refs", a.name, a.chunks, ringChunkLen)
		}
		t.Logf("%s: a directory of %d chunks for %.0f MiB of rings at most", a.name, a.chunks,
			float64(slots*a.slotBytes)/(1<<20))
	}

	sh.bufGlobal = 1 << 20
	if _, _, _, err := sh.ringDirs(); err == nil {
		t.Error("h=16 PAR-6/2 with 2^20-phit global buffers accepted: its entry refs overflow")
	}
	cfg := testConfig(t, 2, core.Minimal, 0.1)
	cfg.BufGlobal = 1 << 30
	if _, err := New(cfg); err == nil {
		t.Error("New accepted 2^30-phit global buffers at h=2: their entry refs overflow")
	}
}

// TestReinitMakesNoRings: a same-shape re-initialisation keeps every ring
// the last run made and clears it, so a second run of the same
// configuration — a dragonfly.Runner lane's next point of a shape — takes
// no ring chunk, and allocates no ring byte, yet returns the same result.
func TestReinitMakesNoRings(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := func() Config {
			c := testConfig(t, 2, core.OLM, 0.3)
			c.Workers = workers
			c.Warmup, c.Measure = 300, 1200
			return c
		}
		sim, err := New(cfg())
		if err != nil {
			t.Fatal(err)
		}
		next := func() [3]int {
			r := &sim.rings
			return [3]int{int(r.entries.next.Load()), int(r.phits.next.Load()), int(r.credits.next.Load())}
		}
		first, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		made := next()
		if min(made[0], made[1], made[2]) <= 1 { // chunk 0 is never made
			t.Fatalf("workers %d: the first run made no rings (next chunks %v)", workers, made)
		}
		if err := sim.Init(cfg()); err != nil {
			t.Fatal(err)
		}
		second, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if again := next(); again != made {
			t.Errorf("workers %d: the second run took ring chunks: %v after the first, %v after the second", workers, made, again)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("workers %d: the re-initialised run's result differs from the first", workers)
		}
	}
}
