package measure

import (
	"net/netip"
	"strings"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// This file keeps the original string-keyed, map-of-maps implementations
// of hop repair, AS-path mapping, catchment inference and imputation as
// test oracles. The production code replaced them with a gap index that
// holds only the pairs repair looks up, dense vote arrays and SWAR
// similarity scoring; equivalence_test.go checks that every output stays
// identical to these references.

// refRepairUnresponsive is the original RepairUnresponsive.
func refRepairUnresponsive(trs []Traceroute) []Traceroute {
	idx := refBuildGapIndex(trs)
	out := make([]Traceroute, len(trs))
	for i, tr := range trs {
		out[i] = refRepairOne(tr, idx)
	}
	return out
}

// refGapKey identifies a pair of responsive hop addresses that surround a
// gap.
type refGapKey struct{ a, b netip.Addr }

// refGapIndex maps a surrounding pair to the set of distinct responsive
// sequences observed between them. Sequences are encoded as strings for
// set semantics.
type refGapIndex map[refGapKey]map[string][]Hop

func refBuildGapIndex(trs []Traceroute) refGapIndex {
	idx := make(refGapIndex)
	for _, tr := range trs {
		hops := tr.Hops
		for i := 0; i < len(hops); i++ {
			if !hops[i].Responsive {
				continue
			}
			// Extend a window of fully responsive hops after i.
			for j := i + 1; j < len(hops) && j-i <= 4; j++ {
				if !hops[j].Responsive {
					break
				}
				if j-i >= 2 { // at least one intermediate hop
					key := refGapKey{hops[i].Addr, hops[j].Addr}
					seq := hops[i+1 : j]
					enc := refEncodeHops(seq)
					m, ok := idx[key]
					if !ok {
						m = make(map[string][]Hop)
						idx[key] = m
					}
					if _, dup := m[enc]; !dup {
						m[enc] = append([]Hop(nil), seq...)
					}
				}
			}
		}
	}
	return idx
}

func refEncodeHops(hops []Hop) string {
	var sb strings.Builder
	for _, h := range hops {
		sb.WriteString(h.Addr.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

func refRepairOne(tr Traceroute, idx refGapIndex) Traceroute {
	hops := tr.Hops
	var out []Hop
	i := 0
	for i < len(hops) {
		h := hops[i]
		if h.Responsive {
			out = append(out, h)
			i++
			continue
		}
		// Start of an unresponsive run [i, j).
		j := i
		for j < len(hops) && !hops[j].Responsive {
			j++
		}
		// Surrounded by responsive hops?
		if len(out) > 0 && j < len(hops) {
			key := refGapKey{out[len(out)-1].Addr, hops[j].Addr}
			if m, ok := idx[key]; ok && len(m) == 1 {
				for _, seq := range m {
					out = append(out, seq...)
				}
				i = j
				continue
			}
		}
		// No unique repair: keep the unresponsive hops as-is.
		out = append(out, hops[i:j]...)
		i = j
	}
	repaired := tr
	repaired.Hops = out
	return repaired
}

// refInfer is the original Infer, with map-of-map vote tallies.
func refInfer(obs Observation, in InferInput) *CatchmentMeasurement {
	n := in.Graph.NumASes()
	m := &CatchmentMeasurement{
		Catchment: make([]bgp.LinkID, n),
		Observed:  make([]bool, n),
	}
	for i := range m.Catchment {
		m.Catchment[i] = bgp.NoLink
	}

	// evidence[i] counts observations per link, separately by source
	// type; small fixed-size maps keyed by link.
	type votes map[bgp.LinkID]int
	bgpVotes := make(map[int]votes)
	trVotes := make(map[int]votes)
	add := func(dst map[int]votes, as int, l bgp.LinkID) {
		v, ok := dst[as]
		if !ok {
			v = make(votes, 2)
			dst[as] = v
		}
		v[l]++
	}

	// BGP evidence: every AS on a collector's path up to the provider is
	// routed via that path's link.
	seqIdx := newASSeqIndex(obs.BGPPaths, in.OriginASN)
	for _, path := range obs.BGPPaths {
		prefix, provider, ok := refSplitPath(path, in.OriginASN, in.Graph, in.LinkOf)
		if !ok {
			continue
		}
		for _, as := range prefix {
			add(bgpVotes, as, provider)
		}
	}

	// Traceroute evidence, after the three repair stages.
	repaired := refRepairUnresponsive(obs.Traceroutes)
	for _, tr := range repaired {
		asPath := refASLevelPath(tr, in.Graph, in.Mapper, seqIdx)
		if len(asPath) == 0 {
			continue
		}
		provider := asPath[len(asPath)-1]
		link, ok := in.LinkOf(provider)
		if !ok {
			continue // mapping noise garbled the provider; unattributable
		}
		for _, as := range asPath {
			add(trVotes, as, link)
		}
	}

	// Resolution: BGP beats traceroute; within a type, majority vote
	// with deterministic tie-breaking toward the lowest link id.
	resolve := func(v votes) bgp.LinkID {
		best, bestN := bgp.NoLink, 0
		for l, c := range v {
			if c > bestN || (c == bestN && l < best) {
				best, bestN = l, c
			}
		}
		return best
	}
	for i := 0; i < n; i++ {
		bv, hasB := bgpVotes[i]
		tv, hasT := trVotes[i]
		if !hasB && !hasT {
			continue
		}
		m.Observed[i] = true
		if hasB {
			m.Catchment[i] = resolve(bv)
		} else {
			m.Catchment[i] = resolve(tv)
		}
		// Conflict accounting across all evidence.
		links := make(map[bgp.LinkID]bool, 2)
		for l := range bv {
			links[l] = true
		}
		for l := range tv {
			links[l] = true
		}
		if len(links) > 1 {
			m.MultiCatchment++
		}
	}
	return m
}

// refSplitPath is the original splitPath: it cuts an AS-path at the first
// occurrence of the origin ASN and resolves the provider (last topology
// AS before it) to a link.
func refSplitPath(path []topo.ASN, origin topo.ASN, g *topo.Graph, linkOf func(int) (bgp.LinkID, bool)) ([]int, bgp.LinkID, bool) {
	cut := -1
	for k, asn := range path {
		if asn == origin {
			cut = k
			break
		}
	}
	if cut <= 0 {
		return nil, bgp.NoLink, false
	}
	provIdx, ok := g.Index(path[cut-1])
	if !ok {
		return nil, bgp.NoLink, false
	}
	link, ok := linkOf(provIdx)
	if !ok {
		return nil, bgp.NoLink, false
	}
	prefix := make([]int, 0, cut)
	for _, asn := range path[:cut] {
		if i, ok := g.Index(asn); ok {
			prefix = append(prefix, i)
		}
	}
	return prefix, link, true
}

// refASLevelPath is the original ASLevelPath.
func refASLevelPath(tr Traceroute, g *topo.Graph, mapper addr.Mapper, seqIdx *asSeqIndex) []int {
	// First map every hop: >=0 AS index, -1 unmapped, -2 destination.
	mapped := make([]int, len(tr.Hops))
	for k, h := range tr.Hops {
		switch {
		case !h.Responsive:
			mapped[k] = -1
		case h.Addr == TargetAddr:
			mapped[k] = -2
		default:
			if i, ok := mapper.Map(h.Addr); ok {
				mapped[k] = i
			} else {
				mapped[k] = -1
			}
		}
	}
	// Collapse consecutive duplicates, keeping unmapped markers.
	var seq []int
	for _, v := range mapped {
		if v == -2 {
			break // destination reached; stuffing after is impossible
		}
		if len(seq) > 0 && seq[len(seq)-1] == v && v >= 0 {
			continue
		}
		// Merge consecutive unmapped markers too.
		if len(seq) > 0 && seq[len(seq)-1] == -1 && v == -1 {
			continue
		}
		seq = append(seq, v)
	}
	// Stage 2 + 3: resolve unmapped runs using surrounding ASes.
	var out []int
	for i := 0; i < len(seq); i++ {
		v := seq[i]
		if v >= 0 {
			if len(out) == 0 || out[len(out)-1] != v {
				out = append(out, v)
			}
			continue
		}
		prev := -1
		if len(out) > 0 {
			prev = out[len(out)-1]
		}
		next := -1
		if i+1 < len(seq) && seq[i+1] >= 0 {
			next = seq[i+1]
		}
		switch {
		case prev >= 0 && prev == next:
			// Same AS on both sides: the gap is inside it; drop marker.
		case prev >= 0 && next >= 0:
			// Different ASes: bridge via unique BGP sequence if known.
			if bridge, ok := seqIdx.lookup(g.ASN(prev), g.ASN(next)); ok {
				for _, asn := range bridge {
					if bi, ok := g.Index(asn); ok && (len(out) == 0 || out[len(out)-1] != bi) {
						out = append(out, bi)
					}
				}
			}
			// Otherwise: drop the hop (ignored on the AS-level path).
		default:
			// Gap at the edges: drop.
		}
	}
	return out
}

// refImpute is the original Impute, scoring similarity one byte at a
// time.
func refImpute(ms []*CatchmentMeasurement) *ImputeResult {
	if len(ms) == 0 {
		return &ImputeResult{}
	}
	base := ms[0]
	var sources []int
	for i, obs := range base.Observed {
		if obs {
			sources = append(sources, i)
		}
	}
	s := len(sources)
	c := len(ms)
	res := &ImputeResult{
		Sources:    sources,
		Catchments: make([][]bgp.LinkID, c),
		Smax:       make([]int, s),
	}
	for k := range res.Smax {
		res.Smax[k] = -1
	}

	// sig[k][cc] = observed catchment of source k in config cc, encoded
	// as link+1 in a byte (0 = unobserved). Catchment ids fit a byte for
	// any realistic peering footprint.
	sig := make([][]byte, s)
	for k, src := range sources {
		row := make([]byte, c)
		for cc := 0; cc < c; cc++ {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				row[cc] = byte(l) + 1
			}
		}
		sig[k] = row
	}

	// Sampled config positions for similarity computation.
	sample := make([]int, 0, maxSimilarityConfigs)
	if c <= maxSimilarityConfigs {
		for cc := 0; cc < c; cc++ {
			sample = append(sample, cc)
		}
	} else {
		for k := 0; k < maxSimilarityConfigs; k++ {
			sample = append(sample, k*c/maxSimilarityConfigs)
		}
	}

	smaxOf := func(k int) int {
		best, bestScore := -1, -1
		row := sig[k]
		for t := 0; t < s; t++ {
			if t == k {
				continue
			}
			other := sig[t]
			score := 0
			for _, cc := range sample {
				if row[cc] != 0 && row[cc] == other[cc] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = t, score
			}
		}
		return best
	}

	for cc := 0; cc < c; cc++ {
		filled := make([]bgp.LinkID, s)
		for k, src := range sources {
			if l := ms[cc].Catchment[src]; l != bgp.NoLink {
				filled[k] = l
				continue
			}
			if res.Smax[k] == -1 {
				res.Smax[k] = smaxOf(k)
			}
			t := res.Smax[k]
			if t >= 0 && sig[t][cc] != 0 {
				filled[k] = bgp.LinkID(sig[t][cc] - 1)
				res.Imputed++
			} else {
				filled[k] = bgp.NoLink
			}
		}
		res.Catchments[cc] = filled
	}
	return res
}
