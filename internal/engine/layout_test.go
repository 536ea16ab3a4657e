package engine

import (
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
// half of one.
func TestHotHeadersFitOneLine(t *testing.T) {
	if n := unsafe.Sizeof(vcBuffer{}); n > 64 {
		t.Errorf("vcBuffer is %d bytes, want <= 64", n)
	}
	if n := unsafe.Sizeof(outPort{}); n > 32 {
		t.Errorf("outPort is %d bytes, want <= 32", n)
	}
	t.Logf("router %d B, link %d B, transfer %d B", unsafe.Sizeof(router{}), unsafe.Sizeof(link{}), unsafe.Sizeof(transfer{}))
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
