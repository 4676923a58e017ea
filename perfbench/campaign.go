package main

import (
	"fmt"
	"time"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/core"
	"spooftrack/internal/measure"
	"spooftrack/internal/sched"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
)

type planT = []sched.PlannedConfig

// greedySteps is the length of the greedy schedule computed after every
// campaign (Fig. 8's horizon).
const greedySteps = 20

// campaignResult is what a campaign hands to the checks and the live loop.
type campaignResult struct {
	sources    []int
	rows       [][]bgp.LinkID
	outcomes   []*bgp.Outcome
	part       *cluster.Partition
	summary    cluster.Metrics
	order      []int
	incomplete int
	// stats of the traced composition
	traceroutes, issued int
	cacheHits, cacheReq uint64
}

// digest hashes the final partition's assignments and the catchment
// matrix it was refined from.
func (c *campaignResult) digest() string {
	var cells []int32
	for _, row := range c.rows {
		for _, l := range row {
			cells = append(cells, int32(l))
		}
	}
	return digestInt32s(c.part.Assignments()) + digestInt32s(cells)
}

// corruptRows, when set, damages a campaign's catchment matrix before the
// checks see it. Tests use it to prove the checks catch a bad row.
var corruptRows func(rows [][]bgp.LinkID)

// buildWorld is the benchmark's set-up: the world and its default plan.
// Traced, topology generation and the rest of BuildWorld get their own
// spans.
func buildWorld(wp core.WorldParams, tr *trace.Tracer) (*core.World, planT, error) {
	if tr != nil {
		tp := topo.DefaultGenParams(wp.Seed)
		if wp.Topo != nil {
			tp = *wp.Topo
		}
		sp := tr.Start("topo.generate")
		g, err := topo.Generate(tp)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		wp.Graph = g
	}
	sp := tr.Start("core.build_world")
	defer sp.End()
	w, err := core.BuildWorld(wp)
	if err != nil {
		return nil, nil, err
	}
	plan, err := w.DefaultPlan()
	if err != nil {
		return nil, nil, err
	}
	return w, plan, nil
}

// runCampaign is the untraced campaign: RunCampaign at its default
// parallelism, then the final partition and the greedy schedule.
func runCampaign(w *core.World, plan planT, truth bool) (*campaignResult, error) {
	c, err := w.RunCampaign(plan, core.CampaignOptions{UseTruth: truth})
	if err != nil {
		return nil, err
	}
	if corruptRows != nil {
		corruptRows(c.Catchments)
	}
	res := &campaignResult{
		sources:    c.Sources,
		rows:       c.Catchments,
		outcomes:   c.Outcomes,
		part:       c.FinalPartition(),
		incomplete: len(c.Incomplete),
	}
	res.summary = res.part.Summarize()
	_, res.order = sched.GreedyTrajectory(c.Catchments, greedySteps)
	return res, nil
}

// campaignRNG reproduces RunCampaign's per-configuration generators: a
// child of the world seed labelled 0xc0113c7, split once per configuration
// in plan order. The serial composition must measure exactly what
// RunCampaign measures; the digest checks hold it to that.
func campaignRNG(seed uint64, n int) []*stats.RNG {
	var label uint64 = 0xc0113c7
	rng := stats.NewRNG(seed ^ (label * 0x9e3779b97f4a7c15))
	rngs := make([]*stats.RNG, n)
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	return rngs
}

// composeConfigs runs the per-configuration layers serially for plan[lo:hi]:
// propagate, and unless truth, collect, repair and infer. Repair runs once
// on its own, for its span, and again inside Infer. Each layer call is a
// child span of parent; a nil parent records nothing.
func composeConfigs(w *core.World, plan planT, lo, hi int, truth bool, rngs []*stats.RNG,
	outs []*bgp.Outcome, ms []*measure.CatchmentMeasurement, res *campaignResult, parent *trace.Span) error {
	probeRounds := w.Params.Noise.Rounds
	if probeRounds < 1 {
		probeRounds = 1
	}
	for i := lo; i < hi; i++ {
		sp := parent.Child("peering.propagate")
		out, err := w.Platform.Propagate(plan[i].Config)
		sp.End()
		if err != nil {
			return fmt.Errorf("config %d: %w", i, err)
		}
		outs[i] = out
		if truth {
			continue
		}
		r := *rngs[i]
		sp = parent.Child("measure.collect")
		obs := measure.Collect(out, w.Vantages, w.Space, w.Params.Noise, &r)
		sp.End()
		res.traceroutes += len(obs.Traceroutes)
		res.issued += probeRounds * len(w.Vantages.Probes)
		sp = parent.Child("measure.repair")
		measure.RepairUnresponsive(obs.Traceroutes)
		sp.End()
		sp = parent.Child("measure.infer")
		ms[i] = measure.Infer(obs, w.Infer)
		sp.End()
	}
	return nil
}

// composeCampaign is the traced campaign: every layer RunCampaign runs is
// called serially under its own span, so the split doubles as the
// single-threaded baseline.
func composeCampaign(w *core.World, plan planT, truth bool, tr *trace.Tracer) (*campaignResult, error) {
	root := tr.Start("campaign")
	defer root.End()
	res := &campaignResult{}
	h0, m0 := w.Platform.CacheStats()
	outs := make([]*bgp.Outcome, len(plan))
	ms := make([]*measure.CatchmentMeasurement, len(plan))
	rngs := campaignRNG(w.Params.Seed, len(plan))
	if err := composeConfigs(w, plan, 0, len(plan), truth, rngs, outs, ms, res, root); err != nil {
		return nil, err
	}
	h1, m1 := w.Platform.CacheStats()
	res.cacheHits, res.cacheReq = h1-h0, (h1-h0)+(m1-m0)
	res.outcomes = outs
	if truth {
		sp := root.Child("bgp.catchment_rows")
		res.sources, res.rows = truthRows(w, outs)
		sp.End()
	} else {
		sp := root.Child("measure.impute")
		imp := measure.Impute(ms)
		sp.End()
		res.sources, res.rows = imp.Sources, imp.Catchments
	}
	if corruptRows != nil {
		corruptRows(res.rows)
	}
	res.part = cluster.New(len(res.sources))
	for _, row := range res.rows {
		sp := root.Child("cluster.refine")
		res.part.Refine(row)
		sp.End()
	}
	sp := root.Child("cluster.summarize")
	res.summary = res.part.Summarize()
	sp.End()
	sp = root.Child("sched.greedy")
	_, res.order = sched.GreedyTrajectory(res.rows, greedySteps)
	sp.End()
	return res, nil
}

// truthRows reads the catchment matrix off the routing outcomes, as
// RunCampaign does with UseTruth: the sources are the ASes routed in the
// baseline configuration.
func truthRows(w *core.World, outs []*bgp.Outcome) ([]int, [][]bgp.LinkID) {
	var sources []int
	for i := 0; i < w.Graph.NumASes(); i++ {
		if outs[0].HasRoute(i) {
			sources = append(sources, i)
		}
	}
	rows := make([][]bgp.LinkID, len(outs))
	for c, out := range outs {
		row := make([]bgp.LinkID, len(sources))
		for k, src := range sources {
			row[k] = out.CatchmentOf(src)
		}
		rows[c] = row
	}
	return sources, rows
}

// checkCampaign holds a campaign to its oracles: the matrix's shape, in
// truth mode every cell against the routing outcome it came from, a
// non-empty greedy schedule, and the headline where the workload has one.
func checkCampaign(wl workload, o options, w *core.World, c *campaignResult, rep *report) {
	if len(c.rows) != len(c.outcomes) {
		rep.fail("%d catchment rows for %d configurations", len(c.rows), len(c.outcomes))
		return
	}
	for i, row := range c.rows {
		if len(row) != len(c.sources) {
			rep.fail("catchment row %d has %d cells for %d sources", i, len(row), len(c.sources))
			return
		}
	}
	if wl.truth {
		for i, row := range c.rows {
			for k, src := range c.sources {
				if want := c.outcomes[i].CatchmentOf(src); row[k] != want {
					rep.fail("config %d source AS%d: catchment %d, routing outcome says %d",
						i, w.Graph.ASN(src), row[k], want)
					return
				}
			}
		}
	}
	if len(c.order) == 0 {
		rep.fail("greedy schedule is empty")
	}
	if wl.headline && o.seed == 42 && !o.tiny {
		// EXPERIMENTS.md: 1853 sources, mean cluster 1.835 ASes, 71.58%
		// singleton clusters.
		got := fmt.Sprintf("%d %.3f %.2f", len(c.sources), c.summary.MeanSize, c.summary.SingletonFrac*100)
		if want := "1853 1.835 71.58"; got != want {
			rep.fail("seed-42 headline (sources, mean cluster, singleton %%) = %s, want %s", got, want)
		}
	}
}

// campaignOverhead measures what the spans cost: the serial composition of
// a plan prefix on a fresh world, alternately untraced and traced, as a
// percentage of the untraced time. The prefix is as many configurations as
// take about half a second untraced.
func campaignOverhead(wp core.WorldParams, truth bool) float64 {
	const reps = 3
	var off, on []float64
	prefix := 0
	for r := 0; r < 2*reps; r++ {
		w, plan, err := buildWorld(wp, nil)
		if err != nil {
			return 0
		}
		rngs := campaignRNG(wp.Seed, len(plan))
		outs := make([]*bgp.Outcome, len(plan))
		ms := make([]*measure.CatchmentMeasurement, len(plan))
		var scratch campaignResult
		var root *trace.Span
		if r%2 == 1 {
			root = newTracer().Start("campaign")
		}
		t0 := time.Now()
		if prefix == 0 {
			for prefix < len(plan) && time.Since(t0) < 500*time.Millisecond {
				composeConfigs(w, plan, prefix, prefix+1, truth, rngs, outs, ms, &scratch, root)
				prefix++
			}
		} else {
			composeConfigs(w, plan, 0, prefix, truth, rngs, outs, ms, &scratch, root)
		}
		root.End()
		d := time.Since(t0).Seconds()
		if r%2 == 1 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	return 100 * (median(on)/median(off) - 1)
}
