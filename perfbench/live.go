package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"time"

	"spooftrack/internal/amp"
	"spooftrack/internal/bgp"
	"spooftrack/internal/core"
	"spooftrack/internal/metrics"
	"spooftrack/internal/shard"
	"spooftrack/internal/spoof"
	"spooftrack/internal/stats"
	"spooftrack/internal/stream"
	"spooftrack/internal/topo"
	"spooftrack/internal/trace"
)

const (
	// batchSize is the pipeline's flush batch (stream.Config's default).
	// Every round sends a whole number of batches, so each round's last
	// batch flushes on size.
	batchSize = 256
	// roundBatches sizes a full-size live round: 200k events, the round
	// at which a probe on a 2-core box (go1.24) saw a 43-bot Pareto attack
	// converge in 26 rounds at 1.85M events/s and a 38 ms median Step,
	// rounded up to whole batches: 782 × 256 = 200,192 events.
	roundBatches = 782
	// flushInterval keeps round timing off the pipeline's timers: the idle
	// flush ticker never fires within an attack, so it cannot split a batch
	// mid-round and leave a partial one for Quiesce to wait on.
	flushInterval = 10 * time.Minute
	// quiesceTimeout bounds the wait for a round's events to be flushed;
	// a round that is not flushed by then has lost events.
	quiesceTimeout = 5 * time.Second
	// roundCap bounds an attack's rounds; an attack that has not
	// converged by then counts as failed.
	roundCap = 64
	// paretoBots and uniformBots size the multi-source attacks. Every bot
	// carries at least 1/43 of the volume, above the evaluator's 2% noise
	// floor, so no planted source can be filtered out as noise.
	paretoBots  = 43
	uniformBots = 20
)

// liveParams sizes a run's attacks.
type liveParams struct {
	attacks        int // offline: how many attacks are localized
	rounds         int // live: attacks keep starting until this many rounds are folded
	seed           uint64
	eventsPerRound int // live: a multiple of batchSize
}

// liveStats is what the live phase measured and found.
type liveStats struct {
	attempted, failed int
	localize          []float64 // s per converged attack
	folds             []float64 // ms per Cluster.Step
	evalSteps         []float64 // ms per shadow Evaluator.Step
	quiesce           []float64 // ms per Quiesce
	decode, ingest    time.Duration
	intake            []float64 // million events/s per round through decode and ingest
	events, batches   int64
	rounds, skipped   int
	digests           []string
}

// errUnflushed marks a round whose routed events the pipeline never
// flushed: the round lost events, a correctness failure.
var errUnflushed = errors.New("routed events never flushed")

// dropEvent, when set, makes the generator lose the event it would ingest
// at index i of an attack's round while still counting it as sent. Tests
// use it to prove the accounting checks catch a lost event.
var dropEvent func(attack, round, i int) bool

// runLive replays seeded attacks through the live loop over the campaign's
// attribution matrix: one shard with one worker, stepped synchronously by
// this goroutine, which is also the traffic generator.
func runLive(w *core.World, c *campaignResult, lp liveParams, tr *trace.Tracer, mem *memMeter, rep *report) (*liveStats, error) {
	attr := attribution(w, c)
	ls := &liveStats{}
	g := newGenerator(lp.eventsPerRound)
	runtime.GC() // start the rounds on a settled heap, not the campaign's garbage
	// Attacks start in whole cycles of the placements, so every run
	// localizes each kind equally often and the mix does not move the
	// median. A failed attack ends the phase: the run is failed anyway, and
	// an attack that fails before folding a round would never reach the
	// round budget.
	for a := 0; (ls.rounds < lp.rounds || a%len(placements) != 0) && ls.failed == 0; a++ {
		if err := ls.attack(a, lp, attr, g, tr, mem, rep); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// newCluster builds the live loop under test: one shard whose pipeline
// has one worker, stepped by the caller. reg is the pipeline's registry.
func newCluster(attr stream.Attribution) (*shard.Cluster, *metrics.Registry, error) {
	reg := metrics.NewRegistry()
	cl, err := shard.NewCluster(shard.ClusterConfig{
		Shards:          1,
		Attr:            attr,
		MinRoundPackets: 1,
		Pipe:            stream.Config{Workers: 1, BatchSize: batchSize, FlushInterval: flushInterval, Metrics: reg},
	})
	return cl, reg, err
}

// victim is attack a's spoofed source address.
func victim(a int) netip.Addr { return netip.AddrFrom4([4]byte{198, 51, 100, byte(a)}) }

// attribution is the live loop's view of a campaign.
func attribution(w *core.World, c *campaignResult) stream.Attribution {
	attr := stream.Attribution{
		Catchments: c.rows,
		NumLinks:   w.Platform.NumLinks(),
	}
	for _, src := range c.sources {
		attr.SourceASNs = append(attr.SourceASNs, w.Graph.ASN(src))
	}
	return attr
}

// placements alternate across a run's attacks.
var placements = []string{"single", "pareto", "uniform"}

// placement plants attack a's spoofing sources and returns the generator
// that also drives its packet order.
func placement(a int, seed uint64, nSources int) (spoof.Placement, *stats.RNG) {
	rng := stats.NewRNG(seed*0x9e3779b97f4a7c15 ^ uint64(a+1)*0xbf58476d1ce4e5b9)
	switch placements[a%len(placements)] {
	case "pareto":
		return spoof.PlacePareto(rng, nSources, paretoBots), rng
	case "uniform":
		return spoof.PlaceUniform(rng, nSources, uniformBots), rng
	default:
		return spoof.PlaceSingle(rng, nSources), rng
	}
}

// attack runs one attack to its verdict and checks it. Only the system's
// share of each round (decode, ingest, quiesce and the cluster step) is
// timed and counted against mem; traffic synthesis and the shadow check are
// the benchmark's own work.
func (ls *liveStats) attack(a int, lp liveParams, attr stream.Attribution, g *generator, tr *trace.Tracer, mem *memMeter, rep *report) error {
	pl, rng := placement(a, lp.seed, len(attr.SourceASNs))
	cl, reg, err := newCluster(attr)
	if err != nil {
		return err
	}
	defer cl.Close()
	shadow := stream.NewEvaluator(attr, stream.EvalParams{})
	g.plant(pl, attr.SourceASNs, victim(a))

	ls.attempted++
	root := tr.Start("live.attack")
	defer root.End()
	cur := attr.InitialConfig
	var sent int64
	var localize time.Duration
	converged := false
	rounds := 0
	for ; rounds < roundCap && !converged; rounds++ {
		pkts := g.round(attr.Catchments[cur], attr.NumLinks, rng)
		if g.n == 0 {
			break // every planted source lost its route: nothing reaches the honeypot
		}
		for _, n := range pkts {
			sent += n
		}
		var drop func(i int) bool
		if dropEvent != nil {
			drop = func(i int) bool { return dropEvent(a, rounds, i) }
		}
		ls.rounds++
		rsp := root.Child("live.round")
		mem.start()
		t0 := time.Now()
		err := ls.intakeRound(cl, g, rsp, drop)
		t1 := time.Now()
		sp := rsp.Child("shard.step")
		res, serr := cl.Step(false)
		sp.End()
		t2 := time.Now()
		mem.stop()
		sp = rsp.Child("stream.eval_step")
		want := shadow.Step(pkts, false, nil, nil, false)
		sp.End()
		t3 := time.Now()
		rsp.End()
		if errors.Is(err, errUnflushed) {
			rep.fail("attack %d round %d: %v", a, rounds, err)
			ls.failed++
			return nil
		}
		if err == nil {
			err = serr
		}
		if err != nil {
			return fmt.Errorf("attack %d round %d: %w", a, rounds, err)
		}
		ls.folds = append(ls.folds, ms(t2.Sub(t1)))
		ls.evalSteps = append(ls.evalSteps, ms(t3.Sub(t2)))
		localize += t2.Sub(t0)
		if res.Skipped {
			ls.skipped++
		}
		if !res.Folded || !reflect.DeepEqual(res.Outcome, want) {
			rep.fail("attack %d round %d: cluster step %+v, shadow evaluator fed the sent counts says %+v", a, rounds, res.Outcome, want)
			ls.failed++
			return nil
		}
		if res.Outcome.Deploy >= 0 {
			cur = res.Outcome.Deploy
		}
		converged = res.Outcome.Converged
	}
	ls.batches += reg.Counter("stream_batches_total").Value()
	if got := reg.Counter("stream_events_total").Value(); got != sent {
		rep.fail("attack %d: pipeline accounted %d events, generator sent %d", a, got, sent)
	}
	ev := cl.Controller().Evaluator()
	cands := ev.Candidates()
	eliminated := missingPlanted(pl, cands)
	if eliminated > 0 {
		rep.fail("attack %d (%s): %d planted sources eliminated", a, placements[a%len(placements)], eliminated)
	}
	if !converged || eliminated > 0 {
		ls.failed++
	} else {
		ls.localize = append(ls.localize, localize.Seconds())
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d %v %v %v", rounds, converged, ev.Deployed(), cands)
	ls.digests = append(ls.digests, hex.EncodeToString(h.Sum(nil))[:16])
	return nil
}

// intakeRound is one round's intake, as the honeypot's tap drives it: the
// generator's round decoded from its wire form, every event ingested into
// cl, and the pipeline quiesced until it has flushed them all. It records
// the phases' times and the round's events in ls. drop, when not nil,
// names the events the generator loses on the way (tests only). A round
// the pipeline does not flush within quiesceTimeout returns errUnflushed.
func (ls *liveStats) intakeRound(cl *shard.Cluster, g *generator, parent *trace.Span, drop func(i int) bool) error {
	t0 := time.Now()
	sp := parent.Child("amp.decode")
	err := g.decode(t0)
	sp.End()
	if err != nil {
		return err
	}
	t1 := time.Now()
	sp = parent.Child("shard.ingest")
	for i := 0; i < g.n && err == nil; i++ {
		if drop != nil && drop(i) {
			continue
		}
		if !cl.Ingest(g.events[i]) {
			err = fmt.Errorf("ingest refused event %d", i)
		}
	}
	sp.End()
	if err != nil {
		return err
	}
	t2 := time.Now()
	sp = parent.Child("stream.quiesce")
	qerr := cl.Quiesce(quiesceTimeout)
	sp.End()
	t3 := time.Now()
	ls.decode += t1.Sub(t0)
	ls.ingest += t2.Sub(t1)
	ls.intake = append(ls.intake, float64(g.n)/t2.Sub(t0).Seconds()/1e6)
	ls.quiesce = append(ls.quiesce, ms(t3.Sub(t2)))
	ls.events += int64(g.n)
	if qerr != nil {
		return fmt.Errorf("%w: %v", errUnflushed, qerr)
	}
	return nil
}

// endToEnd reports the live loop's end-to-end metrics.
func (ls *liveStats) endToEnd(rep *report) {
	rep.set("localize_p50_s", "s", median(ls.localize))
	rep.set("fold_p50_ms", "ms", median(ls.folds))
	rep.set("fold_p95_ms", "ms", quantile(ls.folds, 0.95))
	rep.set("ingest_mev_s", "M/s", median(ls.intake))
}

// liveOverhead measures what the spans cost in the live loop: attack 0
// replayed alternately untraced and traced, as a percentage of the
// untraced time.
func liveOverhead(lp liveParams, c *campaignResult, w *core.World) float64 {
	attr := attribution(w, c)
	g := newGenerator(lp.eventsPerRound)
	var off, on []float64
	for r := 0; r < 4; r++ {
		var tr *trace.Tracer
		if r%2 == 1 {
			tr = newTracer()
		}
		scratch := &liveStats{}
		t0 := time.Now()
		scratch.attack(0, lp, attr, g, tr, &memMeter{}, &report{metrics: map[string]metric{}})
		d := time.Since(t0).Seconds()
		if r%2 == 1 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	return 100 * (median(on)/median(off) - 1)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// generator is the attack traffic source: per round it spreads a fixed
// number of events over the planted sources in proportion to their
// weight, writes each event's overlay packet into a wire buffer (stamped
// with the ingress link the border router would stamp), and decodes the
// buffer back into tap events as the honeypot does.
type generator struct {
	size      int
	wire      []byte
	events    []amp.Event
	n         int
	planted   []int
	weights   []float64
	templates [][]byte
	order     []int
	quota     []int64
}

const wireLen = 16 + 8 // overlay header plus an 8-byte query

func newGenerator(size int) *generator {
	return &generator{
		size:   size,
		wire:   make([]byte, size*wireLen),
		events: make([]amp.Event, size),
		order:  make([]int, 0, size),
	}
}

// plant installs an attack's sources and their packet templates.
func (g *generator) plant(pl spoof.Placement, asns []topo.ASN, victim netip.Addr) {
	g.planted, g.weights, g.templates = g.planted[:0], g.weights[:0], g.templates[:0]
	for k, wgt := range pl.Weight {
		if wgt <= 0 {
			continue
		}
		pkt := amp.Packet{
			Type:        amp.TypeRequest,
			IngressLink: amp.LinkUnset,
			TrueSrcAS:   uint32(asns[k]),
			SpoofedSrc:  victim,
			Payload:     []byte("spoofreq"),
		}
		b, err := pkt.Marshal()
		if err != nil {
			panic(err)
		}
		g.planted = append(g.planted, k)
		g.weights = append(g.weights, wgt)
		g.templates = append(g.templates, b)
	}
}

// round writes one round of traffic under the deployed configuration's
// catchments and returns the per-link counts it sent. Planted sources
// without a route send nothing; the rest share g.size events by largest
// remainder, so every round is a whole number of batches.
func (g *generator) round(row []bgp.LinkID, numLinks int, rng *stats.RNG) []int64 {
	pkts := make([]int64, numLinks)
	total := 0.0
	for j, k := range g.planted {
		if row[k] != bgp.NoLink {
			total += g.weights[j]
		}
	}
	g.n = 0
	if total == 0 {
		return pkts
	}
	g.quota = g.quota[:0]
	type rem struct {
		j    int
		frac float64
	}
	var rems []rem
	given := 0
	for j, k := range g.planted {
		q := 0.0
		if row[k] != bgp.NoLink {
			q = float64(g.size) * g.weights[j] / total
		}
		whole := int64(q)
		g.quota = append(g.quota, whole)
		given += int(whole)
		if row[k] != bgp.NoLink {
			rems = append(rems, rem{j, q - float64(whole)})
		}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for r := 0; given < g.size; r++ {
		g.quota[rems[r].j]++
		given++
	}
	g.order = g.order[:0]
	for j, q := range g.quota {
		for i := int64(0); i < q; i++ {
			g.order = append(g.order, j)
		}
	}
	rng.Shuffle(len(g.order), func(a, b int) { g.order[a], g.order[b] = g.order[b], g.order[a] })
	for i, j := range g.order {
		buf := g.wire[i*wireLen : (i+1)*wireLen]
		copy(buf, g.templates[j])
		l := row[g.planted[j]]
		buf[5] = uint8(l)
		pkts[l]++
	}
	g.n = len(g.order)
	return pkts
}

// decode turns the round's wire buffer into tap events, as the honeypot's
// serve loop does for each datagram.
func (g *generator) decode(now time.Time) error {
	for i := 0; i < g.n; i++ {
		buf := g.wire[i*wireLen : (i+1)*wireLen]
		p, err := amp.Unmarshal(buf)
		if err != nil {
			return err
		}
		g.events[i] = amp.Event{
			Time:        now,
			IngressLink: p.IngressLink,
			TrueSrcAS:   p.TrueSrcAS,
			SpoofedSrc:  p.SpoofedSrc,
			WireLen:     len(buf),
		}
	}
	return nil
}
