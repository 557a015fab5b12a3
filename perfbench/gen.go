package main

import (
	"encoding/json"
	"math/rand"

	"waitfree"
	"waitfree/internal/server"
)

// request is one generated wire submission. The program under test only
// ever sees body; the decoded fields are kept for the shaping-property
// tallies and the registry verdict.
type request struct {
	body []byte
	wire server.WireRequest
	// spill runs the check with a small memo budget over a disk spill
	// directory, which the wire cannot express; it is applied after
	// Compile and only on the library path.
	spill bool
}

func newRequest(w server.WireRequest) request {
	body, err := json.Marshal(&w)
	if err != nil {
		panic(err) // WireRequest is plain data; marshalling cannot fail
	}
	return request{body: body, wire: w}
}

func (r request) memoizeUnset() bool { return !r.wire.Explore.Memoize }
func (r request) faulted() bool      { return r.wire.Explore.Faults != nil }

// expectOK is the registry verdict: naive is the deliberately incorrect
// protocol and must carry a violation; every other protocol verifies.
func (r request) expectOK() bool { return r.wire.Protocol != "naive" }

// Shaping shares of the serve-durable stream. memoize is left unset on a
// share of requests because unset is the wire default; a small share
// repeats an earlier body verbatim so the cache read path is exercised
// without dominating.
const (
	durableRepeatShare = 0.10
	durableMemoUnset   = 0.30
	durableMinMaxDepth = 256
	durableMaxMaxDepth = 4096
)

const (
	crashStop       = "crash-stop"
	crashRecovery   = "crash-recovery"
	kindConsensus   = "consensus"
	kindBound       = "bound"
	kindElimination = "elimination"
	// Engine parallelism of the check-heavy checks and the serve-warm
	// requests.
	heavyParallelism = 1
	warmParallelism  = 2
)

// durableProtocols are the registry protocols the serve-durable stream
// draws from.
var durableProtocols = []string{
	"tas", "queue", "stack", "faa", "swap",
	"cas", "sticky", "augqueue", "fetchcons",
}

// durableGen is the seeded serve-durable stream: mostly distinct cheap
// consensus, bound and elimination jobs. Distinctness comes from max_depth,
// which is part of the result-cache key but changes no verdict for these
// protocols (their executions are far shallower than 256 accesses).
type durableGen struct {
	rng     *rand.Rand
	history []request
}

func newDurableGen(seed int64) *durableGen {
	return &durableGen{rng: rand.New(rand.NewSource(seed))}
}

func (g *durableGen) next() request {
	if len(g.history) > 0 && g.rng.Float64() < durableRepeatShare {
		return g.history[g.rng.Intn(len(g.history))]
	}
	r := newRequest(g.draw())
	g.history = append(g.history, r)
	return r
}

func (g *durableGen) draw() server.WireRequest {
	rng := g.rng
	w := server.WireRequest{API: server.APIVersion}
	w.Explore.MaxDepth = durableMinMaxDepth + rng.Intn(durableMaxMaxDepth-durableMinMaxDepth+1)
	w.Explore.Parallelism = rng.Intn(3) // 0 (the daemon's default), 1 or 2
	w.Explore.Memoize = rng.Float64() >= durableMemoUnset
	switch x := rng.Float64(); {
	case x < 0.5:
		w.Kind = kindConsensus
	case x < 0.75:
		w.Kind = kindBound
	default:
		w.Kind = kindElimination
	}
	fault := ""
	switch x := rng.Float64(); {
	case x < 0.25:
		fault = crashStop
	case x < 0.5:
		fault = crashRecovery
	}
	w.Protocol = durableProtocols[rng.Intn(len(durableProtocols))]
	if w.Protocol == "swap" && w.Kind == kindElimination && fault == crashRecovery {
		// Theorem 5's output for swap does not verify under crash-recovery
		// faults; the benchmark draws only jobs whose verdict is OK.
		fault = crashStop
	}
	switch fault {
	case crashStop:
		w.Explore.Faults = &server.WireFaults{MaxCrashes: 1, Mode: crashStop}
	case crashRecovery:
		w.Explore.Faults = &server.WireFaults{MaxCrashes: 1, Mode: crashRecovery, MaxRecoveries: 1}
	}
	if info, _ := waitfree.LookupProtocol(w.Protocol); info.Scalable() {
		choices := cheapProcs(w.Kind, w.Protocol, w.Explore.Memoize, fault)
		w.Procs = choices[rng.Intn(len(choices))]
	}
	if w.Kind == kindConsensus && rng.Intn(2) == 1 {
		w.Values = 2 // explicit binary; unset means the same
	}
	return w
}

// cheapProcs lists the process counts at which a scalable protocol's job
// stays cheap (a few milliseconds of engine time at most), so the job
// store, not the explorer, dominates serve-durable. sticky and augqueue
// grow fastest; unmemoized runs under faults grow fastest of all.
func cheapProcs(kind, protocol string, memoize bool, fault string) []int {
	fast := protocol == "cas" || protocol == "fetchcons"
	switch {
	case kind == kindElimination && (!fast || fault == crashRecovery):
		return []int{2}
	case kind == kindElimination:
		return []int{2, 3}
	case !fast && (memoize || fault == ""):
		return []int{2, 3}
	case !fast:
		return []int{2}
	case fault == crashRecovery && !memoize:
		return []int{2, 3}
	default:
		return []int{2, 3, 4}
	}
}

// warmSet is serve-warm's fixed set of 40 requests, every one served from
// the result cache once set-up has filled it. The implementations range
// from cas/3 to fetchcons/5 and augqueue/5, so cache-key derivation costs
// from tens to hundreds of microseconds.
func warmSet() []request {
	var out []request
	add := func(kind, protocol string, procs int, memoize bool, faults *server.WireFaults) {
		w := server.WireRequest{API: server.APIVersion, Kind: kind, Protocol: protocol, Procs: procs}
		w.Explore.Memoize = memoize
		w.Explore.Parallelism = warmParallelism
		w.Explore.Faults = faults
		out = append(out, newRequest(w))
	}
	for _, p := range []string{"cas", "sticky", "augqueue", "fetchcons"} {
		for n := 3; n <= 5; n++ {
			add(kindConsensus, p, n, true, nil)
			add(kindConsensus, p, n, true, &server.WireFaults{MaxCrashes: 1, Mode: crashStop})
			add(kindBound, p, n, true, nil)
		}
	}
	add(kindConsensus, "cas", 5, false, nil)
	add(kindConsensus, "fetchcons", 5, false, nil)
	add(kindElimination, "cas", 3, true, nil)
	add(kindElimination, "fetchcons", 3, true, nil)
	return out
}

// warmGen draws serve-warm's timed stream: uniform repeats of warmSet.
type warmGen struct {
	rng *rand.Rand
	set []request
}

func newWarmGen(seed int64, set []request) *warmGen {
	return &warmGen{rng: rand.New(rand.NewSource(seed)), set: set}
}

func (g *warmGen) next() request { return g.set[g.rng.Intn(len(g.set))] }

// heavyCheck is one exhaustive check of check-heavy.
type heavyCheck struct {
	name string
	req  request
}

const heavyMemoBudget = 100

func heavyList() []heavyCheck {
	mk := func(name, kind, protocol string, procs int, symmetry string, faults *server.WireFaults, spill bool) heavyCheck {
		w := server.WireRequest{API: server.APIVersion, Kind: kind, Protocol: protocol, Procs: procs}
		w.Explore.Memoize = true
		w.Explore.Parallelism = heavyParallelism
		w.Explore.Symmetry = symmetry
		w.Explore.Faults = faults
		r := newRequest(w)
		r.spill = spill
		return heavyCheck{name: name, req: r}
	}
	recovery := &server.WireFaults{MaxCrashes: 1, Mode: crashRecovery, MaxRecoveries: 1}
	// sticky6-symoff, the check the memo table dominates, runs twice per
	// round. With 11 checks a round, the p50 and p90 of op latency fall
	// inside one check's samples instead of on the edge between two checks
	// of very different cost.
	sticky6 := mk("sticky6-symoff", kindConsensus, "sticky", 6, "off", nil, false)
	return []heavyCheck{
		sticky6,
		sticky6,
		mk("sticky6-symauto", kindConsensus, "sticky", 6, "", nil, false),
		mk("augqueue5-symoff", kindConsensus, "augqueue", 5, "off", nil, false),
		mk("cas6-symoff", kindConsensus, "cas", 6, "off", nil, false),
		mk("fetchcons5-symoff", kindConsensus, "fetchcons", 5, "off", nil, false),
		mk("casregister3-recovery", kindConsensus, "casregister3", 0, "", recovery, false),
		mk("tas-recovery", kindConsensus, "tas", 0, "", recovery, false),
		mk("sticky5-spill", kindConsensus, "sticky", 5, "off", nil, true),
		mk("tas-elimination", kindElimination, "tas", 0, "", nil, false),
		mk("noisysticky-r-elimination", kindElimination, "noisysticky-r", 0, "", nil, false),
	}
}

// heavyOrder is check-heavy's seeded schedule: whole rounds over the list,
// each round in a fresh permutation.
type heavyOrder struct {
	rng   *rand.Rand
	n     int
	round []int
}

func newHeavyOrder(seed int64, n int) *heavyOrder {
	return &heavyOrder{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (o *heavyOrder) next() int {
	if len(o.round) == 0 {
		o.round = o.rng.Perm(o.n)
	}
	i := o.round[0]
	o.round = o.round[1:]
	return i
}
