package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	dragonfly "repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/exp/queue"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Micro-probes time one layer's public functions on standalone objects,
// at fixed iteration counts, before a traced run starts any server — so
// each number is the layer's own cost with nothing else running.

// per returns elapsed time per iteration in the given unit (ns).
func per(start time.Time, iters int, unit time.Duration) float64 {
	return float64(time.Since(start)) / float64(unit) / float64(iters)
}

// probeView is the benchmark's own core.View: flat per-(port, VC)
// occupancy with selected outputs blocked, free of engine state, so the
// routing probes measure the decision path alone.
type probeView struct {
	occ     []int
	blocked []bool
	cap     int
}

const probeVCs = 16

func newProbeView(p *topology.P) *probeView {
	n := p.Ports * probeVCs
	return &probeView{occ: make([]int, n), blocked: make([]bool, n), cap: 32}
}

func (v *probeView) at(port, vc int) int           { return port*probeVCs + vc }
func (v *probeView) CanClaim(port, vc, _ int) bool { return !v.blocked[v.at(port, vc)] }
func (v *probeView) CanStart(port, vc, size int) bool {
	return v.cap-v.occ[v.at(port, vc)] >= size
}
func (v *probeView) Occupancy(port, vc int) int { return v.occ[v.at(port, vc)] }
func (v *probeView) Capacity(int, int) int      { return v.cap }
func (v *probeView) MinState(port, vc, size int) (int, bool, bool) {
	return v.Occupancy(port, vc), v.CanClaim(port, vc, size), v.CanStart(port, vc, size)
}
func (v *probeView) OccClaim(port, vc, size int) (int, bool) {
	return v.Occupancy(port, vc), v.CanClaim(port, vc, size)
}
func (v *probeView) GlobalCongested(int) bool { return false }
func (v *probeView) CurrentQueue() (int, int) { return 24, 32 }
func (v *probeView) HeadFullyArrived() bool   { return true }
func (v *probeView) Faulty() bool             { return false }
func (v *probeView) LinkDown(int) bool        { return false }
func (v *probeView) RouteDown(int, int) bool  { return false }
func (v *probeView) LocalDown(int, int) bool  { return false }
func (v *probeView) PortDead(int) bool        { return false }

// block makes every VC of port unclaimable and full, arming the
// misrouting trigger against it.
func (v *probeView) block(port int) {
	for vc := 0; vc < probeVCs; vc++ {
		v.blocked[v.at(port, vc)] = true
		v.occ[v.at(port, vc)] = v.cap
	}
}

// minimalPort is the minimal output of a packet at its source router.
func minimalPort(p *topology.P, st *core.PacketState) int {
	router := int(st.SrcRouter)
	idx, g := p.IndexInGroup(router), p.GroupOf(router)
	if tg := int(st.DstGroup); g != tg {
		owner, gport := p.GlobalPortOfChannel(p.ChannelToGroup(g, tg))
		if owner == idx {
			return gport
		}
		return p.LocalPort(idx, owner)
	}
	return p.LocalPort(idx, int(st.DstIdx))
}

var probeSink int // keeps the compiler from deleting probe loops

// probeTopology: topology.new_us_h3, topology.routetable_ms_h8,
// topology.partition_us.
func probeTopology(m map[string]float64) error {
	start := time.Now()
	for i := 0; i < 2000; i++ {
		p, err := topology.New(3)
		if err != nil {
			return err
		}
		probeSink += p.Nodes
	}
	m["topology.new_us_h3"] = per(start, 2000, time.Microsecond)

	p8 := topology.MustNew(dragonfly.PaperH)
	start = time.Now()
	for i := 0; i < 20; i++ {
		probeSink += topology.NewRouteTable(p8).GroupOf(1)
	}
	m["topology.routetable_ms_h8"] = per(start, 20, time.Millisecond)

	set := topology.NewFaultSet(topology.MustNew(3))
	if err := topology.RandomFaults(set, 0.05, 0.05, 1); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < 500; i++ {
		a, _, _ := set.Partition()
		probeSink += a
	}
	m["topology.partition_us"] = per(start, 500, time.Microsecond)
	return nil
}

// probeCore: core.tables_ms_h8 and the routing decision path at h=8 with
// the minimal output blocked, mean over the seven mechanisms. The replay
// must not allocate; the caller fails the run if it does.
func probeCore(m map[string]float64) error {
	p := topology.MustNew(dragonfly.PaperH)
	cfg := core.Config{Topo: p, Threshold: 0.45, RemoteCandidates: 2}

	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := core.NewTables(core.OLM, cfg); err != nil {
			return err
		}
	}
	m["core.tables_ms_h8"] = per(start, 5, time.Millisecond)

	const builds, replays, routes = 20000, 200000, 20000
	var buildNS, replayNS, routeNS float64
	var replayAllocs uint64
	specs := 0
	for spec := core.Minimal; spec <= core.OFAR; spec++ {
		if spec == core.RLMSignOnly {
			continue // an ablation, not one of the seven benchmarked mechanisms
		}
		specs++
		tab, err := core.NewTables(spec, cfg)
		if err != nil {
			return err
		}
		alg := tab.NewAlgorithm()
		v := newProbeView(p)
		r := rng.New(1, 1)
		var st core.PacketState
		st.Init(p, 0, p.Nodes-1)
		st.InjDecided = true // keep Valiant/PB from re-drawing per build
		router := int(st.SrcRouter)
		v.block(minimalPort(p, &st))
		var plan core.Plan

		start = time.Now()
		for i := 0; i < builds; i++ {
			alg.BuildPlan(v, &st, router, 8, r, &plan)
		}
		buildNS += per(start, builds, time.Nanosecond)

		// The algorithm's candidate scratch grows to its working size on
		// the first replays; the steady state after that must not allocate.
		for i := 0; i < replays/10; i++ {
			probeSink += alg.RoutePlanned(v, &plan, 8, r).Port
		}
		// Count mallocs the way testing.AllocsPerRun does: one P and no GC
		// cycle in flight, so the runtime's own goroutines allocate nothing
		// in between.
		procs := runtime.GOMAXPROCS(1)
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		for i := 0; i < replays; i++ {
			probeSink += alg.RoutePlanned(v, &plan, 8, r).Port
		}
		replayNS += per(start, replays, time.Nanosecond)
		runtime.ReadMemStats(&ms1)
		runtime.GOMAXPROCS(procs)
		replayAllocs += ms1.Mallocs - ms0.Mallocs

		start = time.Now()
		for i := 0; i < routes; i++ {
			probeSink += alg.Route(v, &st, router, 8, r).Port
		}
		routeNS += per(start, routes, time.Nanosecond)
	}
	m["core.plan_build_ns"] = buildNS / float64(specs)
	m["core.plan_replay_ns"] = replayNS / float64(specs)
	m["core.route_ns"] = routeNS / float64(specs)
	m["core.plan_replay_allocs"] = float64(replayAllocs)
	return nil
}

// probeTraffic: traffic.dest_ns, traffic.generate_ns, rng.bernoulli_ns.
func probeTraffic(m map[string]float64) error {
	p := topology.MustNew(3)
	r := rng.New(1, 1)
	const n = 2000000
	advg, err := traffic.NewAdversarialGlobal(p, 1)
	if err != nil {
		return err
	}
	un := traffic.NewUniform(p)
	start := time.Now()
	for i := 0; i < n/2; i++ {
		probeSink += un.Dest(i%p.Nodes, r) + advg.Dest(i%p.Nodes, r)
	}
	m["traffic.dest_ns"] = per(start, n, time.Nanosecond)

	bern, err := traffic.NewBernoulli(0.05, 8)
	if err != nil {
		return err
	}
	hits := 0
	start = time.Now()
	for i := 0; i < n; i++ {
		if bern.Generate(i%p.Nodes, int64(i), r) {
			hits++
		}
	}
	m["traffic.generate_ns"] = per(start, n, time.Nanosecond)

	start = time.Now()
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.05) {
			hits++
		}
	}
	m["rng.bernoulli_ns"] = per(start, n, time.Nanosecond)
	probeSink += hits
	return nil
}

// probeMetrics: metrics.record_delivery_ns, metrics.digest_us,
// metrics.timeline_us on a sheet shaped like a transient_faults run.
func probeMetrics(m map[string]float64) {
	const cycles, nodes = 10000, 342
	var s metrics.Sheet
	s.Configure(250, 0)
	const n = 2000000
	start := time.Now()
	for i := 0; i < n; i++ {
		s.RecordDelivery(int64(i%cycles), -1, 8, int64(40+i%64), int64(30+i%64), 2, 1, 0, 0, 0)
	}
	m["metrics.record_delivery_ns"] = per(start, n, time.Nanosecond)

	start = time.Now()
	for i := 0; i < 2000; i++ {
		probeSink += int(metrics.Digest(&s, cycles, nodes, 570, 342).Delivered)
	}
	m["metrics.digest_us"] = per(start, 2000, time.Microsecond)

	start = time.Now()
	for i := 0; i < 500; i++ {
		probeSink += len(s.Timeline(cycles, nodes).Windows)
	}
	m["metrics.timeline_us"] = per(start, 500, time.Microsecond)
}

// probeExp: cache and store get/put, the canonical JSONL record, and an
// uncontended Flights.Do, with a real Result.
func probeExp(ctx context.Context, m map[string]float64, seed uint64) error {
	cfg := dragonfly.PaperVCT(2)
	cfg.Mechanism = dragonfly.OLM
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Load, cfg.Warmup, cfg.Measure, cfg.Seed = 0.1, 100, 200, seed
	res, err := dragonfly.RunContext(ctx, cfg)
	if err != nil {
		return err
	}

	const n = 300
	keys := make([]string, n)
	cfgs := make([]dragonfly.Config, n)
	type getPutter interface {
		Key(dragonfly.Config) string
		Get(string) (dragonfly.Result, bool)
		Put(string, dragonfly.Config, dragonfly.Result) error
	}
	getPut := func(name string, s getPutter) error {
		for i := range cfgs {
			cfgs[i] = cfg
			cfgs[i].Seed = seed + uint64(i)
			keys[i] = s.Key(cfgs[i])
		}
		start := time.Now()
		for i := range cfgs {
			if err := s.Put(keys[i], cfgs[i], res); err != nil {
				return err
			}
		}
		m["exp."+name+"_put_us"] = per(start, n, time.Microsecond)
		start = time.Now()
		for i := range cfgs {
			if _, ok := s.Get(keys[i]); !ok {
				return fmt.Errorf("probe: %s lost entry %d", name, i)
			}
		}
		m["exp."+name+"_get_us"] = per(start, n, time.Microsecond)
		return nil
	}
	cacheDir, err := tempDir("probe-cache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	cache, err := exp.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	if err := getPut("cache", cache); err != nil {
		return err
	}
	m["exp.entry_bytes"] = float64(cache.Size(keys[0]))

	storeDir, err := tempDir("probe-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	store, err := exp.OpenStore(storeDir, 0)
	if err != nil {
		return err
	}
	if err := getPut("store", store); err != nil {
		return err
	}

	var buf bytes.Buffer
	o := exp.Outcome{Point: exp.Point{Series: "probe", X: cfg.Load, Config: cfg}, Result: res}
	const recs = 5000
	start := time.Now()
	for i := 0; i < recs; i++ {
		buf.Reset()
		if err := exp.WriteCanonicalRecord(&buf, &o); err != nil {
			return err
		}
	}
	m["exp.jsonl_record_us"] = per(start, recs, time.Microsecond)
	m["exp.record_bytes"] = float64(buf.Len())

	var fl exp.Flights
	fn := func() (dragonfly.Result, error) { return res, nil }
	const dos = 500000
	start = time.Now()
	for i := 0; i < dos; i++ {
		if _, _, err := fl.Do(ctx, keys[0], fn); err != nil {
			return err
		}
	}
	m["exp.flights_do_ns"] = per(start, dos, time.Nanosecond)
	return nil
}

// probeQueue: queue.enqueue_us, queue.claim_us, queue.complete_us on a
// standalone queue holding one campaign's worth of tasks, claimed in the
// fleet's batches of 4.
func probeQueue(m map[string]float64) error {
	const tasks, batch = 2112, 4
	q := queue.New(queue.Config{})
	defer q.Close()
	cfg := dragonfly.PaperVCT(2)
	start := time.Now()
	for i := 0; i < tasks; i++ {
		if _, err := q.Enqueue(fmt.Sprintf("k%04d", i), cfg); err != nil {
			return err
		}
	}
	m["queue.enqueue_us"] = per(start, tasks, time.Microsecond)

	var claim, complete time.Duration
	for done := 0; done < tasks; {
		t0 := time.Now()
		l, err := q.Claim("probe", batch, false)
		claim += time.Since(t0)
		if err != nil || l == nil {
			return fmt.Errorf("probe: queue claim: lease %v, err %v", l, err)
		}
		t0 = time.Now()
		for _, t := range l.Tasks {
			if _, err := q.Complete(l.ID, t.ID, queue.Outcome{}); err != nil {
				return err
			}
		}
		complete += time.Since(t0)
		done += len(l.Tasks)
	}
	m["queue.claim_us"] = float64(claim) / 1e3 / (tasks / batch)
	m["queue.complete_us"] = float64(complete) / 1e3 / tasks
	return nil
}

// calibrate spins a fixed PCG loop: a host-speed reading taken before and
// after a run, so a slow minute of a shared box shows in the report.
func calibrate() float64 {
	r := rng.New(42, 7)
	const n = 5000000
	start := time.Now()
	var acc uint32
	for i := 0; i < n; i++ {
		acc += r.Uint32()
	}
	probeSink += int(acc & 1)
	return per(start, n, time.Nanosecond)
}

// runProbes runs every micro-probe.
func runProbes(ctx context.Context, seed uint64) (map[string]float64, error) {
	m := make(map[string]float64)
	if err := probeTopology(m); err != nil {
		return nil, err
	}
	if err := probeCore(m); err != nil {
		return nil, err
	}
	if err := probeTraffic(m); err != nil {
		return nil, err
	}
	probeMetrics(m)
	if err := probeExp(ctx, m, seed); err != nil {
		return nil, err
	}
	if err := probeQueue(m); err != nil {
		return nil, err
	}
	return m, nil
}
