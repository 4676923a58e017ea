package main

import (
	"time"

	"spooftrack/internal/trace"
)

// layerMetrics derives the per-layer split of a traced run from its spans.
func layerMetrics(tr *trace.Tracer, c *campaignResult, ls *liveStats, rep *report) {
	recs := tr.Snapshot()
	if n := tr.Dropped(); n > 0 {
		rep.fail("span journal overflowed: %d spans dropped", n)
	}
	L := layers(recs)
	self := func(name string) float64 {
		if lt := L[name]; lt != nil {
			return lt.self.Seconds()
		}
		return 0
	}
	perCall := func(name string) float64 {
		if lt := L[name]; lt != nil {
			return median(seconds(lt.spans))
		}
		return 0
	}
	rep.set("topo.generate_s", "s", perCall("topo.generate"))
	rep.set("core.build_world_s", "s", perCall("core.build_world"))
	rep.set("peering.propagate_s", "s", self("peering.propagate"))
	ratio := 0.0
	if c.cacheReq > 0 {
		ratio = float64(c.cacheHits) / float64(c.cacheReq)
	}
	rep.set("peering.cache_hit_ratio", "ratio", ratio)
	rep.set("bgp.catchment_rows_s", "s", self("bgp.catchment_rows"))
	rep.set("measure.collect_s", "s", self("measure.collect"))
	rep.set("measure.traceroutes", "count", float64(c.traceroutes))
	yield := 0.0
	if c.issued > 0 {
		yield = float64(c.traceroutes) / float64(c.issued)
	}
	rep.set("measure.traceroute_yield", "ratio", yield)
	rep.set("measure.repair_s", "s", self("measure.repair"))
	rep.set("measure.infer_s", "s", self("measure.infer"))
	rep.set("measure.impute_s", "s", self("measure.impute"))
	rep.set("cluster.refine_s", "s", self("cluster.refine"))
	rep.set("cluster.summarize_s", "s", self("cluster.summarize"))
	rep.set("sched.greedy_s", "s", self("sched.greedy"))

	perEvent := func(d time.Duration) float64 {
		if ls.events == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(ls.events)
	}
	rep.set("amp.decode_ns", "ns", perEvent(ls.decode))
	rep.set("shard.ingest_ns", "ns", perEvent(ls.ingest))
	rep.set("stream.quiesce_ms", "ms", mean(ls.quiesce))
	rep.set("stream.quiesce_max_ms", "ms", quantile(ls.quiesce, 1))
	perBatch := 0.0
	if ls.batches > 0 {
		perBatch = float64(ls.events) / float64(ls.batches)
	}
	rep.set("stream.events_per_batch", "count", perBatch)
	rep.set("shard.step_ms", "ms", median(ls.folds))
	rep.set("stream.eval_step_ms", "ms", median(ls.evalSteps))
	rep.set("stream.rounds", "count", float64(ls.rounds))
	rep.set("stream.rounds_skipped", "count", float64(ls.skipped))
	rep.set("trace.spans", "count", float64(len(recs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
