package main

import (
	"sort"
	"time"

	"spooftrack/internal/trace"
)

// journalCap bounds a traced run's span journal. A traced run records a
// few thousand spans (the campaign's 705 configurations take four or five
// each, a live round six); a run that outgrows the journal fails rather
// than report a split with spans missing.
const journalCap = 1 << 16

// newTracer returns the private tracer of a traced run: enabled, with one
// journal shard so the whole capacity is one ring. It is not the process
// default, so the library's own spans (RunCampaign's, the stream
// pipeline's) stay off and only the benchmark's layer calls are recorded.
func newTracer() *trace.Tracer {
	return trace.New(trace.Options{Enabled: true, JournalCap: journalCap, Shards: 1})
}

// layerTime is what the spans of one layer add up to.
type layerTime struct {
	self  time.Duration   // span durations minus their children's
	spans []time.Duration // each span's duration
}

// layers aggregates a tracer's spans by name, deriving each span's self
// time from its children.
func layers(recs []trace.SpanRecord) map[string]*layerTime {
	child := make(map[uint64]time.Duration)
	for _, r := range recs {
		if r.Parent != 0 {
			child[r.Parent] += r.Duration
		}
	}
	out := make(map[string]*layerTime)
	for _, r := range recs {
		lt := out[r.Name]
		if lt == nil {
			lt = &layerTime{}
			out[r.Name] = lt
		}
		lt.self += r.Duration - child[r.ID]
		lt.spans = append(lt.spans, r.Duration)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
