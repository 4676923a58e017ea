package measure

import (
	"strings"

	"spooftrack/internal/addr"
	"spooftrack/internal/bgp"
	"spooftrack/internal/topo"
)

// CatchmentMeasurement is the inferred catchment assignment for one
// deployed configuration.
type CatchmentMeasurement struct {
	// Catchment[i] is the link whose catchment AS i was inferred to be
	// in, or bgp.NoLink when i was not observed.
	Catchment []bgp.LinkID
	// Observed[i] reports whether any evidence covered AS i.
	Observed []bool
	// MultiCatchment is the number of ASes with conflicting evidence
	// (observed in more than one catchment, §IV-c reports 2.28% on
	// average).
	MultiCatchment int
}

// Unobserved returns an n-AS measurement with no evidence at all: every
// catchment bgp.NoLink, nothing observed. Campaigns record it for
// configurations whose measurement was permanently lost (fault retries
// exhausted); Impute leaves its unknown cells unknown, so localization
// proceeds with partial intersections instead of aborting.
func Unobserved(n int) *CatchmentMeasurement {
	m := &CatchmentMeasurement{
		Catchment: make([]bgp.LinkID, n),
		Observed:  make([]bool, n),
	}
	for i := range m.Catchment {
		m.Catchment[i] = bgp.NoLink
	}
	return m
}

// ObservedCount returns the number of ASes with any evidence.
func (m *CatchmentMeasurement) ObservedCount() int {
	n := 0
	for _, o := range m.Observed {
		if o {
			n++
		}
	}
	return n
}

// InferInput carries the static context the inference pipeline needs.
type InferInput struct {
	Graph  *topo.Graph
	Mapper addr.Mapper
	// OriginASN terminates AS-paths (announcement stuffing starts at its
	// first occurrence).
	OriginASN topo.ASN
	// LinkOf resolves a provider AS (dense index) to its peering link;
	// ok=false if the AS is not a platform provider.
	LinkOf func(provider int) (bgp.LinkID, bool)
}

// Infer runs the full §IV-b/c pipeline on one observation: repairs
// traceroutes, maps them to AS-level paths, extracts catchment evidence
// from BGP paths (high priority) and traceroutes (low priority), and
// resolves conflicts by priority then majority vote. LinkOf must return
// non-negative link ids.
func Infer(obs Observation, in InferInput) *CatchmentMeasurement {
	g := in.Graph
	n := g.NumASes()
	m := &CatchmentMeasurement{
		Catchment: make([]bgp.LinkID, n),
		Observed:  make([]bool, n),
	}
	for i := range m.Catchment {
		m.Catchment[i] = bgp.NoLink
	}

	// Evidence is gathered as (AS, link) pairs, separately by source
	// type, and counted once the largest link is known.
	var bgpEv, trEv []vote
	maxLink := bgp.LinkID(-1)

	// BGP evidence: every AS on a collector's path up to the provider is
	// routed via that path's link.
	seqIdx := newASSeqIndex(obs.BGPPaths, in.OriginASN)
	for _, path := range obs.BGPPaths {
		prefix, link, ok := splitPath(path, in.OriginASN, g, in.LinkOf)
		if !ok {
			continue
		}
		maxLink = max(maxLink, link)
		for _, asn := range prefix {
			if i, ok := g.Index(asn); ok {
				bgpEv = append(bgpEv, vote{int32(i), int32(link)})
			}
		}
	}

	// Traceroute evidence, after the three repair stages. Each repaired
	// traceroute is consumed at once, so one hop buffer serves them all.
	gaps, _ := buildGapIndex(obs.Traceroutes)
	var hops []Hop
	var asPath []int
	for _, tr := range obs.Traceroutes {
		tr, hops = repairOne(tr, gaps, hops[:0])
		asPath = appendASLevelPath(asPath[:0], tr, g, in.Mapper, seqIdx)
		if len(asPath) == 0 {
			continue
		}
		link, ok := in.LinkOf(asPath[len(asPath)-1])
		if !ok {
			continue // mapping noise garbled the provider; unattributable
		}
		maxLink = max(maxLink, link)
		for _, as := range asPath {
			trEv = append(trEv, vote{int32(as), int32(link)})
		}
	}
	if maxLink < 0 {
		return m
	}

	// Count into dense [n·L] arrays, one per source type.
	L := int(maxLink) + 1
	bgpN := make([]int32, n*L)
	trN := make([]int32, n*L)
	for _, v := range bgpEv {
		bgpN[int(v.as)*L+int(v.link)]++
	}
	for _, v := range trEv {
		trN[int(v.as)*L+int(v.link)]++
	}

	// Resolution: BGP beats traceroute; within a type, majority vote.
	// The ascending scan with strict > breaks ties toward the lowest
	// link id.
	for i := 0; i < n; i++ {
		bRow, tRow := bgpN[i*L:(i+1)*L], trN[i*L:(i+1)*L]
		bestB, bestT := bgp.NoLink, bgp.NoLink
		var nB, nT int32
		links := 0
		for l := range bRow {
			cb, ct := bRow[l], tRow[l]
			if cb == 0 && ct == 0 {
				continue
			}
			links++
			if cb > nB {
				bestB, nB = bgp.LinkID(l), cb
			}
			if ct > nT {
				bestT, nT = bgp.LinkID(l), ct
			}
		}
		if links == 0 {
			continue
		}
		m.Observed[i] = true
		if nB > 0 {
			m.Catchment[i] = bestB
		} else {
			m.Catchment[i] = bestT
		}
		// Conflict accounting across all evidence.
		if links > 1 {
			m.MultiCatchment++
		}
	}
	return m
}

// vote is one piece of catchment evidence: AS as was seen routed via
// link.
type vote struct{ as, link int32 }

// splitPath cuts an AS-path at the first occurrence of the origin ASN
// and resolves the provider (last topology AS before it) to a link. It
// returns the ASNs before the origin.
func splitPath(path []topo.ASN, origin topo.ASN, g *topo.Graph, linkOf func(int) (bgp.LinkID, bool)) ([]topo.ASN, bgp.LinkID, bool) {
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
	return path[:cut], link, true
}

// asSeqIndex indexes, for pairs of ASNs seen on BGP paths, the unique
// intermediate AS sequence between them (repair stage 3 of §IV-b). A nil
// entry marks a conflicting pair.
type asSeqIndex struct {
	seqs map[[2]topo.ASN][]topo.ASN
	conf map[[2]topo.ASN]bool
}

func newASSeqIndex(paths map[int][]topo.ASN, origin topo.ASN) *asSeqIndex {
	idx := &asSeqIndex{
		seqs: make(map[[2]topo.ASN][]topo.ASN),
		conf: make(map[[2]topo.ASN]bool),
	}
	for _, path := range paths {
		// Only the part before announcement stuffing is a real AS chain.
		end := len(path)
		for k, asn := range path {
			if asn == origin {
				end = k
				break
			}
		}
		p := path[:end]
		for i := 0; i < len(p); i++ {
			for j := i + 2; j < len(p) && j-i <= 4; j++ {
				key := [2]topo.ASN{p[i], p[j]}
				if idx.conf[key] {
					continue
				}
				seq := p[i+1 : j]
				if prev, ok := idx.seqs[key]; ok {
					if !asnSeqEqual(prev, seq) {
						idx.conf[key] = true
						delete(idx.seqs, key)
					}
					continue
				}
				idx.seqs[key] = append([]topo.ASN(nil), seq...)
			}
		}
	}
	return idx
}

// lookup returns the unique sequence between a and b, or ok=false.
func (idx *asSeqIndex) lookup(a, b topo.ASN) ([]topo.ASN, bool) {
	seq, ok := idx.seqs[[2]topo.ASN{a, b}]
	return seq, ok
}

func asnSeqEqual(a, b []topo.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ASLevelPath maps a traceroute to an AS-level path of dense indices,
// applying repair stages 2 and 3 of §IV-b: unmapped hops surrounded by a
// single AS collapse into it; unmapped hops between two different ASes
// are bridged by the unique BGP AS sequence when one exists; remaining
// unmapped hops are dropped. Consecutive duplicate ASes collapse.
func ASLevelPath(tr Traceroute, g *topo.Graph, mapper addr.Mapper, seqIdx *asSeqIndex) []int {
	var buf [64]int
	out := appendASLevelPath(buf[:0], tr, g, mapper, seqIdx)
	if len(out) == 0 {
		return nil
	}
	return append([]int(nil), out...)
}

// appendASLevelPath appends tr's AS-level path to dst.
func appendASLevelPath(dst []int, tr Traceroute, g *topo.Graph, mapper addr.Mapper, seqIdx *asSeqIndex) []int {
	// Map every hop up to the destination (after it, stuffing is
	// impossible) to an AS index or -1 for unmapped, collapsing
	// consecutive duplicates, unmapped markers included.
	var buf [64]int
	seq := buf[:0]
	for _, h := range tr.Hops {
		v := -1
		if h.Responsive {
			if h.Addr == TargetAddr {
				break
			}
			if i, ok := mapper.Map(h.Addr); ok {
				v = i
			}
		}
		if len(seq) > 0 && seq[len(seq)-1] == v {
			continue
		}
		seq = append(seq, v)
	}
	// Stage 2 + 3: resolve unmapped runs using surrounding ASes.
	base := len(dst)
	out := dst
	for i, v := range seq {
		if v >= 0 {
			if len(out) == base || out[len(out)-1] != v {
				out = append(out, v)
			}
			continue
		}
		prev := -1
		if len(out) > base {
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
					if bi, ok := g.Index(asn); ok && (len(out) == base || out[len(out)-1] != bi) {
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

// debugString renders a traceroute for test failure messages.
func (tr Traceroute) debugString() string {
	var sb strings.Builder
	for _, h := range tr.Hops {
		if !h.Responsive {
			sb.WriteString("* ")
			continue
		}
		sb.WriteString(h.Addr.String())
		sb.WriteByte(' ')
	}
	return sb.String()
}
