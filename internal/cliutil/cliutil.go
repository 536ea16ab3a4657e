// Package cliutil holds the flag-parsing helpers shared by the dragonsim,
// dfsweep and paperfigs commands, so the three CLIs agree on traffic,
// mechanism and workload-spec syntax instead of each growing its own
// switch statement.
package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	dragonfly "repro"
	"repro/internal/topology"
)

// FatalIf is every command's error exit: a non-nil err is printed as
// "<command>: <err>" on stderr and the process exits 1.
func FatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		os.Exit(1)
	}
}

// Traffic builds a pattern from the classic flag trio (-traffic, -offset,
// -globalpct): kind is UN, ADVG, ADVL or MIX; offset applies to the
// adversarial kinds and globalPct to MIX.
func Traffic(kind string, offset int, globalPct float64) (dragonfly.Traffic, error) {
	switch strings.ToUpper(strings.TrimSpace(kind)) {
	case "UN":
		return dragonfly.Traffic{Kind: dragonfly.UN}, nil
	case "ADVG":
		return dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: offset}, nil
	case "ADVL":
		return dragonfly.Traffic{Kind: dragonfly.ADVL, Offset: offset}, nil
	case "MIX":
		return dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: globalPct}, nil
	}
	return dragonfly.Traffic{}, fmt.Errorf("unknown traffic %q (want UN, ADVG, ADVL or MIX)", kind)
}

// TrafficToken parses the compact single-token pattern syntax of workload
// specs: "UN", "ADVG+4" (offset optional, default 1), "ADVL+1", "MIX" or
// "MIX:60" (percent of global traffic, default 50).
func TrafficToken(tok string) (dragonfly.Traffic, error) {
	t := strings.ToUpper(strings.TrimSpace(tok))
	switch {
	case t == "UN":
		return dragonfly.Traffic{Kind: dragonfly.UN}, nil
	case t == "MIX":
		return dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 50}, nil
	case strings.HasPrefix(t, "MIX:"):
		pct, err := strconv.ParseFloat(t[len("MIX:"):], 64)
		if err != nil {
			return dragonfly.Traffic{}, fmt.Errorf("bad MIX percentage in %q: %v", tok, err)
		}
		return dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: pct}, nil
	case strings.HasPrefix(t, "ADVG") || strings.HasPrefix(t, "ADVL"):
		kind := dragonfly.ADVG
		if t[3] == 'L' {
			kind = dragonfly.ADVL
		}
		rest := t[4:]
		offset := 1
		if rest != "" {
			if !strings.HasPrefix(rest, "+") {
				return dragonfly.Traffic{}, fmt.Errorf("bad pattern %q (want e.g. %s+2)", tok, t[:4])
			}
			n, err := strconv.Atoi(rest[1:])
			if err != nil {
				return dragonfly.Traffic{}, fmt.Errorf("bad offset in %q: %v", tok, err)
			}
			offset = n
		}
		return dragonfly.Traffic{Kind: kind, Offset: offset}, nil
	}
	return dragonfly.Traffic{}, fmt.Errorf("unknown pattern %q (want UN, ADVG+N, ADVL+N or MIX:P)", tok)
}

// TrafficName returns the display label of an already-validated pattern;
// it panics on an invalid kind, which Validate would have rejected first.
func TrafficName(tr dragonfly.Traffic, h int) string {
	name, err := tr.Name(h)
	if err != nil {
		panic(err)
	}
	return name
}

// Mechanisms parses a comma-separated mechanism list.
func Mechanisms(csv string) ([]dragonfly.Mechanism, error) {
	var ms []dragonfly.Mechanism
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := dragonfly.ParseMechanism(name)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("empty mechanism list %q", csv)
	}
	return ms, nil
}

// Floats parses a comma-separated float list (offered loads, percentages).
func Floats(csv string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %v", s, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty number list %q", csv)
	}
	return out, nil
}

// Phases parses the workload spec mini-language shared by the CLIs:
//
//	spec   := job (";" job)*
//	job    := [first "-" last "="] phase ("," phase)*
//	phase  := pattern "@" rate ["x" duration]
//	rate   := load            steady Bernoulli load in (0, 1], e.g. 0.35
//	        | count "b"       burst of count packets per node, e.g. 200b
//
// pattern uses TrafficToken syntax. A job without a node range covers the
// whole network; the last phase of a job may omit the duration ("rest of
// the run"). Examples:
//
//	UN@0.3x4000,ADVG+4@0.3
//	0-527=UN@0.25;528-1055=ADVG+4@0.5x3000,UN@0.1
func Phases(spec string) ([]dragonfly.JobSpec, error) {
	var jobs []dragonfly.JobSpec
	for _, jobSpec := range strings.Split(spec, ";") {
		jobSpec = strings.TrimSpace(jobSpec)
		if jobSpec == "" {
			continue
		}
		var job dragonfly.JobSpec
		if eq := strings.Index(jobSpec, "="); eq >= 0 {
			lo, hi, ok := strings.Cut(jobSpec[:eq], "-")
			first, err1 := strconv.Atoi(strings.TrimSpace(lo))
			last, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if !ok || err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad node range %q (want first-last=...)", jobSpec[:eq])
			}
			job.FirstNode, job.LastNode = first, last
			jobSpec = jobSpec[eq+1:]
		}
		for _, phSpec := range strings.Split(jobSpec, ",") {
			ph, err := phase(phSpec)
			if err != nil {
				return nil, err
			}
			job.Phases = append(job.Phases, ph)
		}
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("empty workload spec %q", spec)
	}
	return jobs, nil
}

// Faults parses the fault-scenario mini-language shared by the CLIs:
//
//	spec  := item (";" item)*
//	item  := "g=" frac                       seeded fraction of global links down
//	       | "l=" frac                       seeded fraction of local links down
//	       | link ("," link)*                links down from the start
//	       | event "@" cycle "=" link ("," link)*
//	       | "router=" rf ("," rf)*          whole-router failures (nodes parked)
//	       | "grp=" bf ("," bf)*             correlated bundles (group blackout / local segment)
//	       | "flap@" C "+" P "/" D ["x" N] "=" link ("," link)*
//	event := "kill" | "repair"
//	rf    := router ["@" C ["-" C2]]         fail at C (default 0), revive at C2
//	bf    := G [":" i "-" j] ["@" C ["-" C2]]
//	link  := "r" router "p" port             by router id and output port
//	       | "g" A "-" B                     the global channel between groups A and B
//	       | "l" G ":" i "-" j               the local link between router indices i and j of group G
//
// h sizes the dragonfly the group/local link forms resolve against. A bare
// "grp=G" blacks out group G's whole global-channel bundle (its routers
// with it); "grp=G:i-j" kills the local links among router indices [i, j].
// A flap kills each listed link at cycle C and every P cycles after, for N
// periods (default 8), repairing D cycles into each period. Examples:
//
//	g=0.1
//	g0-4;l2:0-3
//	g=0.05;kill@5000=g0-4;repair@8000=g0-4
//	router=5,12@1000-4000
//	grp=2@500;flap@1000+200/50x20=g0-4
func Faults(spec string, h int) (*dragonfly.FaultSpec, error) {
	p, err := topology.New(h)
	if err != nil {
		return nil, err
	}
	out := &dragonfly.FaultSpec{}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		lower := strings.ToLower(item)
		switch {
		case strings.HasPrefix(lower, "g="), strings.HasPrefix(lower, "l="):
			frac, err := strconv.ParseFloat(strings.TrimSpace(item[2:]), 64)
			if err != nil {
				return nil, fmt.Errorf("bad fault fraction in %q: %v", item, err)
			}
			if lower[0] == 'g' {
				out.GlobalFraction = frac
			} else {
				out.LocalFraction = frac
			}
		case strings.HasPrefix(lower, "router="):
			for _, tok := range strings.Split(item[len("router="):], ",") {
				rf, err := routerFault(p, tok)
				if err != nil {
					return nil, err
				}
				out.Routers = append(out.Routers, rf)
			}
		case strings.HasPrefix(lower, "grp="):
			for _, tok := range strings.Split(item[len("grp="):], ",") {
				bf, err := bundleFault(p, tok)
				if err != nil {
					return nil, err
				}
				out.Bundles = append(out.Bundles, bf)
			}
		case strings.HasPrefix(lower, "flap@"):
			head, linksStr, ok := strings.Cut(item[len("flap@"):], "=")
			if !ok {
				return nil, fmt.Errorf("bad flap %q (want flap@C+P/D[xN]=link)", item)
			}
			atStr, rest, ok := strings.Cut(head, "+")
			perStr, rest2, ok2 := strings.Cut(rest, "/")
			downStr, countStr, hasCount := strings.Cut(rest2, "x")
			if !ok || !ok2 {
				return nil, fmt.Errorf("bad flap %q (want flap@C+P/D[xN]=link)", item)
			}
			at, err1 := strconv.ParseInt(strings.TrimSpace(atStr), 10, 64)
			period, err2 := strconv.ParseInt(strings.TrimSpace(perStr), 10, 64)
			down, err3 := strconv.ParseInt(strings.TrimSpace(downStr), 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("bad flap timing in %q (want flap@C+P/D[xN]=link)", item)
			}
			count := 8
			if hasCount {
				count, err1 = strconv.Atoi(strings.TrimSpace(countStr))
				if err1 != nil {
					return nil, fmt.Errorf("bad flap count in %q: %v", item, err1)
				}
			}
			links, err := faultLinks(p, linksStr)
			if err != nil {
				return nil, err
			}
			for _, l := range links {
				out.Flaps = append(out.Flaps, dragonfly.FlapSpec{
					Link: l, At: at, Period: period, Down: down, Count: count,
				})
			}
		case strings.HasPrefix(lower, "kill@"), strings.HasPrefix(lower, "repair@"):
			repair := lower[0] == 'r'
			rest := item[strings.Index(item, "@")+1:]
			cycleStr, linksStr, ok := strings.Cut(rest, "=")
			if !ok {
				return nil, fmt.Errorf("bad fault event %q (want kill@cycle=link)", item)
			}
			at, err := strconv.ParseInt(strings.TrimSpace(cycleStr), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad cycle in fault event %q: %v", item, err)
			}
			links, err := faultLinks(p, linksStr)
			if err != nil {
				return nil, err
			}
			for _, l := range links {
				out.Events = append(out.Events, dragonfly.FaultEvent{At: at, Repair: repair, Link: l})
			}
		default:
			links, err := faultLinks(p, item)
			if err != nil {
				return nil, err
			}
			out.Links = append(out.Links, links...)
		}
	}
	if len(out.Links) == 0 && len(out.Events) == 0 &&
		len(out.Routers) == 0 && len(out.Bundles) == 0 && len(out.Flaps) == 0 &&
		out.GlobalFraction == 0 && out.LocalFraction == 0 {
		return nil, fmt.Errorf("empty fault spec %q", spec)
	}
	return out, nil
}

// outage splits the optional "@C[-C2]" suffix shared by router and bundle
// tokens, returning the token head and the fail/revive cycles (0 = from
// the start / never).
func outage(tok string) (head string, at, until int64, err error) {
	head = strings.TrimSpace(tok)
	head, when, has := strings.Cut(head, "@")
	head = strings.TrimSpace(head)
	if !has {
		return head, 0, 0, nil
	}
	atStr, untilStr, hasUntil := strings.Cut(when, "-")
	if at, err = strconv.ParseInt(strings.TrimSpace(atStr), 10, 64); err != nil {
		return head, 0, 0, fmt.Errorf("bad cycle in %q: %v", tok, err)
	}
	if hasUntil {
		if until, err = strconv.ParseInt(strings.TrimSpace(untilStr), 10, 64); err != nil {
			return head, 0, 0, fmt.Errorf("bad repair cycle in %q: %v", tok, err)
		}
	}
	return head, at, until, nil
}

// routerFault parses one "R[@C[-C2]]" whole-router failure token.
func routerFault(p *topology.P, tok string) (dragonfly.RouterFault, error) {
	head, at, until, err := outage(tok)
	if err != nil {
		return dragonfly.RouterFault{}, err
	}
	r, err := strconv.Atoi(head)
	if err != nil {
		return dragonfly.RouterFault{}, fmt.Errorf("bad router fault %q (want R[@C[-C2]]): %v", tok, err)
	}
	if r < 0 || r >= p.Routers {
		return dragonfly.RouterFault{}, fmt.Errorf("router fault %q outside the %d routers of h=%d", tok, p.Routers, p.H)
	}
	return dragonfly.RouterFault{Router: r, At: at, Until: until}, nil
}

// bundleFault parses one "G[:i-j][@C[-C2]]" correlated-bundle token: the
// bare form blacks out group G, the ranged form kills the local links
// among router indices [i, j].
func bundleFault(p *topology.P, tok string) (dragonfly.BundleFault, error) {
	head, at, until, err := outage(tok)
	if err != nil {
		return dragonfly.BundleFault{}, err
	}
	gStr, span, ranged := strings.Cut(head, ":")
	g, err := strconv.Atoi(strings.TrimSpace(gStr))
	if err != nil {
		return dragonfly.BundleFault{}, fmt.Errorf("bad bundle %q (want G[:i-j][@C[-C2]]): %v", tok, err)
	}
	if g < 0 || g >= p.Groups {
		return dragonfly.BundleFault{}, fmt.Errorf("bundle %q outside the %d groups of h=%d", tok, p.Groups, p.H)
	}
	bf := dragonfly.BundleFault{Group: g, At: at, Until: until}
	if ranged {
		iStr, jStr, ok := strings.Cut(span, "-")
		i, err1 := strconv.Atoi(strings.TrimSpace(iStr))
		j, err2 := strconv.Atoi(strings.TrimSpace(jStr))
		if !ok || err1 != nil || err2 != nil {
			return dragonfly.BundleFault{}, fmt.Errorf("bad bundle range %q (want G:i-j)", tok)
		}
		bf.First, bf.Last = i, j
	}
	return bf, nil
}

// faultLinks parses a comma-separated list of link tokens.
func faultLinks(p *topology.P, csv string) ([]dragonfly.LinkID, error) {
	var out []dragonfly.LinkID
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		l, err := faultLink(p, tok)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty link list %q", csv)
	}
	return out, nil
}

// faultLink parses one link token ("rNpM", "gA-B" or "lG:i-j").
func faultLink(p *topology.P, tok string) (dragonfly.LinkID, error) {
	t := strings.ToLower(tok)
	switch {
	case strings.HasPrefix(t, "r"):
		rStr, pStr, ok := strings.Cut(t[1:], "p")
		router, err1 := strconv.Atoi(rStr)
		port, err2 := strconv.Atoi(pStr)
		if !ok || err1 != nil || err2 != nil {
			return dragonfly.LinkID{}, fmt.Errorf("bad link %q (want rROUTERpPORT)", tok)
		}
		return dragonfly.LinkID{Router: router, Port: port}, nil
	case strings.HasPrefix(t, "g"):
		aStr, bStr, ok := strings.Cut(t[1:], "-")
		a, err1 := strconv.Atoi(aStr)
		b, err2 := strconv.Atoi(bStr)
		if !ok || err1 != nil || err2 != nil {
			return dragonfly.LinkID{}, fmt.Errorf("bad global link %q (want gA-B)", tok)
		}
		if a == b || a < 0 || b < 0 || a >= p.Groups || b >= p.Groups {
			return dragonfly.LinkID{}, fmt.Errorf("global link %q outside the %d groups of h=%d", tok, p.Groups, p.H)
		}
		idx, port := p.GlobalPortOfChannel(p.ChannelToGroup(a, b))
		return dragonfly.LinkID{Router: p.RouterID(a, idx), Port: port}, nil
	case strings.HasPrefix(t, "l"):
		gStr, rest, ok := strings.Cut(t[1:], ":")
		iStr, jStr, ok2 := strings.Cut(rest, "-")
		g, err1 := strconv.Atoi(gStr)
		i, err2 := strconv.Atoi(iStr)
		j, err3 := strconv.Atoi(jStr)
		if !ok || !ok2 || err1 != nil || err2 != nil || err3 != nil {
			return dragonfly.LinkID{}, fmt.Errorf("bad local link %q (want lG:i-j)", tok)
		}
		if g < 0 || g >= p.Groups || i < 0 || j < 0 || i == j ||
			i >= p.RoutersPerGroup || j >= p.RoutersPerGroup {
			return dragonfly.LinkID{}, fmt.Errorf("local link %q outside group bounds of h=%d", tok, p.H)
		}
		return dragonfly.LinkID{Router: p.RouterID(g, i), Port: p.LocalPort(i, j)}, nil
	}
	return dragonfly.LinkID{}, fmt.Errorf("unknown link %q (want rNpM, gA-B or lG:i-j)", tok)
}

// phase parses one "pattern@rate[xduration]" token.
func phase(spec string) (dragonfly.PhaseSpec, error) {
	spec = strings.TrimSpace(spec)
	pat, rest, ok := strings.Cut(spec, "@")
	if !ok {
		return dragonfly.PhaseSpec{}, fmt.Errorf("bad phase %q (want pattern@rate[xduration])", spec)
	}
	tr, err := TrafficToken(pat)
	if err != nil {
		return dragonfly.PhaseSpec{}, err
	}
	ph := dragonfly.PhaseSpec{Traffic: tr}
	rate := rest
	if rate, rest, ok = strings.Cut(rest, "x"); ok {
		dur, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return dragonfly.PhaseSpec{}, fmt.Errorf("bad duration in phase %q: %v", spec, err)
		}
		ph.Duration = dur
	}
	rate = strings.TrimSpace(rate)
	if n, isBurst := strings.CutSuffix(rate, "b"); isBurst {
		pkts, err := strconv.Atoi(n)
		if err != nil {
			return dragonfly.PhaseSpec{}, fmt.Errorf("bad burst count in phase %q: %v", spec, err)
		}
		ph.BurstPackets = pkts
	} else {
		load, err := strconv.ParseFloat(rate, 64)
		if err != nil {
			return dragonfly.PhaseSpec{}, fmt.Errorf("bad load in phase %q: %v", spec, err)
		}
		ph.Load = load
	}
	return ph, nil
}
