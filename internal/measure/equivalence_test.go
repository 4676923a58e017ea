package measure

import (
	"fmt"
	"reflect"
	"testing"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/stats"
	"spooftrack/internal/topo"
)

// equivalenceConfigs are the deployment shapes the equivalence suites
// run: every link, one link with heavy prepending elsewhere, a single
// link, and anycast with one poisoned AS.
func equivalenceConfigs(w *measureWorld) map[string]bgp.Config {
	n := w.platform.NumLinks()
	prepend := anycastAll(n)
	for i := 1; i < n; i++ {
		prepend.Anns[i].Prepend = 4
	}
	poison := anycastAll(n)
	poison.Anns[0].Poison = []topo.ASN{w.g.ASN(w.g.NumASes() / 2)}
	return map[string]bgp.Config{
		"anycast": anycastAll(n),
		"prepend": prepend,
		"single":  {Anns: []bgp.Announcement{{Link: bgp.LinkID(n / 2)}}},
		"poison":  poison,
	}
}

// TestInferMatchesReference checks repair, AS-path mapping and inference
// against the original implementations over random worlds, noise levels,
// mappers, deployment shapes and wire-format feeds.
func TestInferMatchesReference(t *testing.T) {
	repaired, multi := 0, 0
	for _, seed := range []uint64{3, 17, 29} {
		w := newMeasureWorld(t, seed, 600, 60, 250)
		noisy, err := addr.NewNoisyMapper(w.space, 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		mappers := map[string]addr.Mapper{"perfect": w.input.Mapper, "noisy": noisy}
		for cfgName, cfg := range equivalenceConfigs(w) {
			out, err := w.platform.Propagate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range []float64{0.02, 0.1, 0.3, 0.6} {
				noise := DefaultNoise()
				noise.PrUnresponsive = pr
				obs := Collect(out, w.vantages, w.space, noise, stats.NewRNG(seed*31+uint64(pr*100)))
				if err := RoundTripMRT(&obs, w.g, 1); err != nil {
					t.Fatal(err)
				}
				for mapName, mapper := range mappers {
					name := fmt.Sprintf("seed%d/%s/unresp%.2f/%s", seed, cfgName, pr, mapName)
					t.Run(name, func(t *testing.T) {
						r, m := checkInferEquivalent(t, obs, w.input, mapper)
						repaired += r
						multi += m
					})
				}
			}
		}
	}
	// The suite must exercise substitutions and conflicting evidence,
	// not only pass-through.
	if repaired == 0 || multi == 0 {
		t.Fatalf("vacuous suite: %d repaired traceroutes, %d multi-catchment ASes", repaired, multi)
	}
}

// checkInferEquivalent compares one observation's outputs with the
// reference and returns how many traceroutes repair changed and the
// number of multi-catchment ASes.
func checkInferEquivalent(t *testing.T, obs Observation, in InferInput, mapper addr.Mapper) (int, int) {
	t.Helper()
	in.Mapper = mapper
	before := cloneTraceroutes(obs.Traceroutes)
	got := RepairUnresponsive(obs.Traceroutes)
	want := refRepairUnresponsive(obs.Traceroutes)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("traceroute %d repaired to\n%s\nreference\n%s", i, got[i].debugString(), want[i].debugString())
			}
		}
		t.Fatal("repaired traceroutes differ from the reference")
	}
	if !reflect.DeepEqual(obs.Traceroutes, before) {
		t.Fatal("RepairUnresponsive modified its input")
	}
	seqIdx := newASSeqIndex(obs.BGPPaths, in.OriginASN)
	for i, tr := range got {
		if p, q := ASLevelPath(tr, in.Graph, mapper, seqIdx), refASLevelPath(tr, in.Graph, mapper, seqIdx); !reflect.DeepEqual(p, q) {
			t.Fatalf("traceroute %d AS path %v, reference %v", i, p, q)
		}
	}
	m, ref := Infer(obs, in), refInfer(obs, in)
	if !reflect.DeepEqual(m, ref) {
		t.Fatalf("Infer differs from the reference: multi %d vs %d, observed %d vs %d",
			m.MultiCatchment, ref.MultiCatchment, m.ObservedCount(), ref.ObservedCount())
	}
	repaired := 0
	for i := range got {
		if !reflect.DeepEqual(got[i].Hops, before[i].Hops) {
			repaired++
		}
	}
	return repaired, m.MultiCatchment
}

func cloneTraceroutes(trs []Traceroute) []Traceroute {
	out := make([]Traceroute, len(trs))
	for i, tr := range trs {
		out[i] = tr
		out[i].Hops = append([]Hop(nil), tr.Hops...)
	}
	return out
}

// TestImputeMatchesReference checks SWAR similarity scoring against the
// byte-at-a-time original over random catchment matrices with fewer and
// more configurations than the similarity sample holds.
func TestImputeMatchesReference(t *testing.T) {
	for _, configs := range []int{1, 7, 64, maxSimilarityConfigs, 131, 705} {
		for _, links := range []int{2, 9, 254} {
			for _, seed := range []uint64{1, 2} {
				name := fmt.Sprintf("configs%d/links%d/seed%d", configs, links, seed)
				t.Run(name, func(t *testing.T) {
					ms := randomMeasurements(stats.NewRNG(seed), 300, configs, links)
					if got, want := Impute(ms), refImpute(ms); !reflect.DeepEqual(got, want) {
						t.Fatalf("Impute differs from the reference: imputed %d vs %d", got.Imputed, want.Imputed)
					}
				})
			}
		}
	}
}

// randomMeasurements draws configs measurements over n ASes. Sources
// fall into a few groups that mostly share catchments, so similarity
// scores have clear maxima as well as ties; each cell is unobserved with
// a per-AS probability.
func randomMeasurements(rng *stats.RNG, n, configs, links int) []*CatchmentMeasurement {
	group := make([]int, n)
	miss := make([]float64, n)
	for i := range group {
		group[i] = rng.Intn(8)
		miss[i] = rng.Float64() * 0.6
	}
	ms := make([]*CatchmentMeasurement, configs)
	for c := range ms {
		m := Unobserved(n)
		groupLink := make([]bgp.LinkID, 8)
		for g := range groupLink {
			groupLink[g] = bgp.LinkID(rng.Intn(links))
		}
		for i := 0; i < n; i++ {
			if rng.Bool(miss[i]) {
				continue
			}
			l := groupLink[group[i]]
			if rng.Bool(0.2) {
				l = bgp.LinkID(rng.Intn(links))
			}
			m.Catchment[i], m.Observed[i] = l, true
		}
		ms[c] = m
	}
	return ms
}
