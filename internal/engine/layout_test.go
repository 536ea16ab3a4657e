package engine

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// inVCs returns input port's VC buffers.
func (r *router) inVCs(port int) []vcBuffer {
	vc0 := r.in[port].vc0
	return r.vcs[vc0 : vc0+int32(r.out[port].nvc)]
}

// TestHotHeadersFitOneLine pins the headers the per-cycle path loads: a
// VC buffer header within one 64-byte cache line, an output port within
// half of one, the router fields every step reads (arrivals, the injection
// appointment, occupancy, the Piggybacking cooldown and parity) in its
// first line, a node's phase cache and appointment in 24 bytes — and the
// ring slots that name a packet at their 32-bit-ref sizes.
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
	if n := unsafe.Sizeof(vcBuffer{}); n > 64 {
		t.Errorf("vcBuffer is %d bytes, want <= 64", n)
	}
	if n := unsafe.Sizeof(outPort{}); n > 32 {
		t.Errorf("outPort is %d bytes, want <= 32", n)
	}
	if n := unsafe.Sizeof(phitSlot{}); n != 8 {
		t.Errorf("phitSlot is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(fifoEntry{}); n != 8 {
		t.Errorf("fifoEntry is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(transfer{}); n > 12 {
		t.Errorf("transfer is %d bytes, want <= 12", n)
	}
	t.Logf("router %d B, link %d B, transfer %d B", unsafe.Sizeof(router{}), unsafe.Sizeof(link{}), unsafe.Sizeof(transfer{}))
}

// TestRingsHoldNoPointers pins the collector-free layout: the packet, the
// arena chunk and every ring slot that names a packet or a credit hold no
// pointer-bearing field, so a field added later cannot quietly make the
// collector scan the arena and the link, buffer and transfer rings again.
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
	for _, ty := range []reflect.Type{
		reflect.TypeFor[Packet](), reflect.TypeFor[pktChunk](), reflect.TypeFor[phitSlot](),
		reflect.TypeFor[creditSlot](), reflect.TypeFor[fifoEntry](), reflect.TypeFor[transfer](),
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
