package engine

import (
	"sync"
	"weak"

	"repro/internal/topology"
)

// idle is the process-wide set of idle fabrics: at most one per dragonfly,
// each a Sim whose run completed and whose owner gave it up (Release). A
// fabric serves any configuration of its h, re-laid in place (see
// Sim.allocate), so the dragonfly is its whole key. Every fabric is held
// by a weak pointer, so the set keeps none alive: an idle fabric can be
// taken until the collector finds nobody else holding it, and what sits
// idle is bounded by the collector alone. The mutex makes each take
// exclusive, so a taken fabric has one owner.
var idle struct {
	sync.Mutex
	fabrics map[topology.P]weak.Pointer[Sim]
}

// Acquire returns a simulation of cfg at cycle 0, ready to Run: the first
// of prev, when it has cfg's dragonfly, the idle fabric of that dragonfly,
// while it is still alive, and a new fabric, laid out for cfg by Init's
// path. prev is given up: nil, or a Sim whose run completed that the
// caller will not use again. It is either returned or goes idle — on
// error too, when nothing is returned.
func Acquire(cfg Config, prev *Sim) (*Sim, error) {
	sh, err := shapeOf(cfg)
	if err != nil {
		Release(prev)
		return nil, err
	}
	s := prev
	if s == nil || s.topo == nil || *s.topo != sh.topo {
		Release(prev)
		s = take(sh.topo)
	}
	if err := s.reinit(cfg, sh); err != nil {
		Release(s)
		return nil, err
	}
	return s, nil
}

// take removes the idle fabric of dragonfly p from the set and returns
// it, or a zero Sim when the set has none alive.
func take(p topology.P) *Sim {
	idle.Lock()
	defer idle.Unlock()
	s := idle.fabrics[p].Value()
	delete(idle.fabrics, p)
	if s == nil {
		s = new(Sim)
	}
	return s
}

// Release hands s, whose run completed, to the idle set, where it
// replaces any idle fabric of its dragonfly; the caller must not use s
// again. A nil Sim, or one without a fabric, is ignored. A canceled,
// failed or panicked run must not be released: its Sim is simply dropped.
func Release(s *Sim) {
	if s == nil || s.topo == nil {
		return
	}
	idle.Lock()
	defer idle.Unlock()
	if idle.fabrics == nil {
		idle.fabrics = map[topology.P]weak.Pointer[Sim]{}
	}
	// Forget the fabrics the collector took, so the set stays as small as
	// what it can still hand out.
	for p, w := range idle.fabrics {
		if w.Value() == nil {
			delete(idle.fabrics, p)
		}
	}
	idle.fabrics[*s.topo] = weak.Make(s)
}
