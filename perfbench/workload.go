package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
)

// workload is one benchmark scenario: the world it builds, the campaign it
// runs over that world, and the attacks it localizes from the campaign's
// attribution matrix.
type workload struct {
	// world returns the world parameters for a seed.
	world func(seed uint64, tiny bool) core.WorldParams
	// truth runs the campaign in UseTruth mode (no measurement layer).
	truth bool
	// campaigns sizes how many campaigns one run measures from --seconds.
	campaigns func(seconds float64, tiny bool) int
	// live replays attacks through the live loop until liveRounds rounds
	// have been folded; otherwise offlineAttacks attacks are localized on
	// the offline path, from the campaign's matrix.
	live bool
	// headline checks EXPERIMENTS.md's headline at seed 42.
	headline bool
}

// The amount of work in a run is sized from --seconds with per-unit costs
// measured on a 2-core box (go1.24): a measured paper-scale campaign takes
// about 16 s, a 40k-AS truth campaign with its checks about 12 s, and a
// live round of 200k events over the paper-scale matrix, traffic synthesis
// and shadow check included, about 150 ms. The work therefore depends only
// on the arguments, never on the machine's speed, so a seed always gives
// the same inputs and outputs.
//
// Each workload routes over one fixed Internet: the topology and the
// routing engine's policy draws come from topologySeed, so the routing
// outcomes do not change from run to run, as the paper's Internet did not.
// --seed draws everything measured on top of it: the collectors and probes,
// the IP-to-AS mapping errors, the measurement noise, the planted attack
// sources and the order of their packets.
var workloads = map[string]workload{
	"campaign-paper": {
		world:     paperWorld,
		campaigns: func(s float64, tiny bool) int { return sized(s, 16, tiny) },
		headline:  true,
	},
	"campaign-40k-truth": {
		world: func(seed uint64, tiny bool) core.WorldParams {
			n := 40000
			if tiny {
				n = 1200
			}
			tp := topo.InternetGenParams(topologySeed, n)
			return worldOn(tp, seed, tiny)
		},
		truth:     true,
		campaigns: func(s float64, tiny bool) int { return sized(s, 12, tiny) },
	},
	"live-attack": {
		world:     paperWorld,
		truth:     true,
		live:      true,
		campaigns: func(float64, bool) int { return 5 },
	},
}

// offlineAttacks is how many attacks a campaign workload localizes from
// its matrix; each costs well under a millisecond at paper scale and a few
// at 40k ASes.
func offlineAttacks(tiny bool) int {
	if tiny {
		return 30
	}
	return 150
}

// liveRounds is how many rounds live-attack folds: attacks keep starting
// until the run has folded that many, and at least 200, so that fold_p95_ms
// has ten samples beyond it.
func liveRounds(seconds float64, tiny bool) int {
	if tiny {
		return 30
	}
	return max(200, int(math.Ceil(seconds/0.15)))
}

// topologySeed generates every workload's topology and routing policies;
// at this seed the paper-scale campaign reproduces EXPERIMENTS.md's
// headline.
const topologySeed = 42

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sized returns how many units of nominal cost fit the budget, and at
// least two, so campaign_s is a median of several campaigns and the in-run
// determinism check always fires.
func sized(budget, nominal float64, tiny bool) int {
	if tiny {
		return 2
	}
	return max(2, int(budget/nominal))
}

// paperWorld is the paper-scale world: 4000 ASes, 250 collectors, 1600
// probes and a 347-target poisoning phase.
func paperWorld(seed uint64, tiny bool) core.WorldParams {
	tp := topo.DefaultGenParams(topologySeed)
	if tiny {
		tp.NumASes = 400
	}
	return worldOn(tp, seed, tiny)
}

// worldOn builds world parameters over the given topology with everything
// else drawn from seed; tiny worlds get few vantages and a short plan.
func worldOn(tp topo.GenParams, seed uint64, tiny bool) core.WorldParams {
	wp := core.DefaultWorldParams(seed)
	wp.Topo = &tp
	ep := bgp.DefaultParams(topologySeed)
	wp.Engine = &ep
	if tiny {
		wp.NumCollectors = 20
		wp.NumProbes = 60
		wp.MaxPoisonTargets = 20
	}
	return wp
}

// run executes one run of the workload: set-up, campaigns, attacks, checks.
func (wl workload) run(o options, rep *report, tr *trace.Tracer) error {
	wp := wl.world(o.seed, o.tiny)

	// Set-up: build the world and its plan at least nine times and, in a
	// full-size run, for at least three seconds; report the median.
	minSetup := 3 * time.Second
	if o.tiny {
		minSetup = 0
	}
	var w *core.World
	var plan planT
	var setup []float64
	for t := time.Now(); len(setup) < 9 || time.Since(t) < minSetup; {
		t0 := time.Now()
		var err error
		w, plan, err = buildWorld(wp, tr)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var mem memMeter
	var camp *campaignResult
	var campTimes []float64
	var campDigest string
	n := wl.campaigns(o.seconds, o.tiny)
	if tr != nil {
		n = 1 // the traced campaign is composed serially: one is the baseline
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			camp = nil
			var err error
			if w, plan, err = buildWorld(wp, nil); err != nil {
				return err
			}
		}
		mem.start()
		t0 := time.Now()
		var err error
		if tr != nil {
			camp, err = composeCampaign(w, plan, wl.truth, tr)
		} else {
			camp, err = runCampaign(w, plan, wl.truth)
		}
		if err != nil {
			return err
		}
		campTimes = append(campTimes, time.Since(t0).Seconds())
		mem.stop()
		rep.attempted += len(plan)
		rep.failed += camp.incomplete
		d := camp.digest()
		if campDigest != "" && d != campDigest {
			rep.fail("campaign %d campaign digest (final partition, catchment matrix) %s differs from campaign 0's %s", i, d, campDigest)
		}
		campDigest = d
		checkCampaign(wl, o, w, camp, rep)
	}

	lp := liveParams{seed: o.seed, eventsPerRound: roundBatches * batchSize}
	if o.tiny {
		lp.eventsPerRound = 10 * batchSize
	}
	var live *liveStats
	if wl.live {
		lp.rounds = liveRounds(o.seconds, o.tiny)
		var err error
		if live, err = runLive(w, camp, lp, tr, &mem, rep); err != nil {
			return err
		}
	} else {
		lp.attacks = offlineAttacks(o.tiny)
		live = offlineLocalize(w, camp, lp, &mem, rep)
		if err := live.offlineIntake(w, camp, lp, &mem, rep); err != nil {
			return err
		}
	}
	rep.attempted += live.attempted
	rep.failed += live.failed
	if err := checkDigests(o, rep, campDigest, live.digests); err != nil {
		return err
	}
	retained := mem.retained()
	runtime.KeepAlive(camp)
	rep.env["campaign_digest"] = campDigest
	rep.env["campaigns"] = n
	rep.env["attacks"] = live.attempted
	rep.env["rounds"] = live.rounds

	if tr != nil {
		layerMetrics(tr, camp, live, rep)
		if wl.live {
			rep.set("trace.overhead_pct", "%", liveOverhead(lp, camp, w))
		} else {
			rep.set("trace.overhead_pct", "%", campaignOverhead(wp, wl.truth))
		}
		return nil
	}
	rep.env["fold_samples"] = len(live.folds)
	rep.env["localize_samples"] = len(live.localize)
	rep.set("setup_s", "s", median(setup))
	rep.set("campaign_s", "s", median(campTimes))
	rep.set("alloc_mb", "MB", float64(mem.alloc)/1e6)
	rep.set("retained_mb", "MB", float64(retained)/1e6)
	live.endToEnd(rep)
	return nil
}

// memMeter sums heap bytes allocated over the timed sections of a run.
type memMeter struct {
	alloc uint64
	mark  uint64
}

func (m *memMeter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mark = ms.TotalAlloc
}

func (m *memMeter) stop() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc += ms.TotalAlloc - m.mark
}

// retained forces a collection and returns the heap still in use.
func (m *memMeter) retained() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// digestInt32s hashes a slice of int32 into a short hex digest.
func digestInt32s(xs []int32) string {
	h := sha256.New()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
