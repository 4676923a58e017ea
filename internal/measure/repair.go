package measure

import "net/netip"

// RepairUnresponsive implements the first repair stage of §IV-b: for each
// run of unresponsive hops surrounded by responsive hops (a ... b), look
// across all other traceroutes for responsive hop sequences observed
// between a and b; if exactly one distinct sequence exists, substitute
// it. Returns repaired copies; inputs are not modified. The repaired hop
// lists share one backing array.
func RepairUnresponsive(trs []Traceroute) []Traceroute {
	idx, total := buildGapIndex(trs)
	out := make([]Traceroute, len(trs))
	slab := make([]Hop, 0, total)
	for i, tr := range trs {
		out[i], slab = repairOne(tr, idx, slab)
	}
	return out
}

// gapIndex holds, for every pair of responsive hops (a, b) that surrounds
// a gap in some traceroute, the responsive sequences observed between a
// and b elsewhere. repairOne looks up nothing else, so windows whose
// endpoints surround no gap are never stored. Entries sharing an a are
// chained, so the window scan costs one map lookup per responsive hop.
type gapIndex struct {
	byA     map[netip.Addr]int32
	entries []gapEntry
}

type gapEntry struct {
	b netip.Addr
	// seq is the first sequence observed between a and b, aliased into
	// the input traceroutes; nil until one is observed.
	seq []Hop
	// conflict marks a pair with more than one distinct sequence.
	conflict bool
	// next is the index of the next entry with the same a, or -1.
	next int32
}

// find returns the entry index for (a, b), or -1.
func (idx *gapIndex) find(a, b netip.Addr) int32 {
	k, ok := idx.byA[a]
	if !ok {
		return -1
	}
	for ; k >= 0; k = idx.entries[k].next {
		if idx.entries[k].b == b {
			return k
		}
	}
	return -1
}

// buildGapIndex indexes the sequences repair needs in two passes: the
// first collects the pairs surrounding each maximal unresponsive run
// (and counts hops to size the output slab), the second scans every
// responsive window of 2–4 hops for those pairs only. It returns the
// index and the total input hop count.
func buildGapIndex(trs []Traceroute) (*gapIndex, int) {
	idx := &gapIndex{byA: make(map[netip.Addr]int32)}
	total := 0
	for _, tr := range trs {
		hops := tr.Hops
		total += len(hops)
		for i := 1; i < len(hops); i++ {
			if hops[i].Responsive || !hops[i-1].Responsive {
				continue
			}
			j := i + 1
			for j < len(hops) && !hops[j].Responsive {
				j++
			}
			if j == len(hops) {
				break
			}
			a, b := hops[i-1].Addr, hops[j].Addr
			if idx.find(a, b) < 0 {
				head, ok := idx.byA[a]
				if !ok {
					head = -1
				}
				idx.byA[a] = int32(len(idx.entries))
				idx.entries = append(idx.entries, gapEntry{b: b, next: head})
			}
			i = j
		}
	}
	if len(idx.entries) == 0 {
		return idx, total
	}
	for _, tr := range trs {
		hops := tr.Hops
		for i := 0; i+2 < len(hops); i++ {
			if !hops[i].Responsive {
				continue
			}
			head, ok := idx.byA[hops[i].Addr]
			if !ok {
				continue
			}
			// Extend a window of fully responsive hops after i.
			for j := i + 1; j < len(hops) && j-i <= 4; j++ {
				if !hops[j].Responsive {
					break
				}
				if j-i < 2 { // no intermediate hop yet
					continue
				}
				for k := head; k >= 0; k = idx.entries[k].next {
					if e := &idx.entries[k]; e.b == hops[j].Addr {
						e.observe(hops[i+1 : j])
						break
					}
				}
			}
		}
	}
	return idx, total
}

func (e *gapEntry) observe(seq []Hop) {
	switch {
	case e.conflict:
	case e.seq == nil:
		e.seq = seq
	case !hopsEqual(e.seq, seq):
		e.conflict = true
	}
}

func hopsEqual(x, y []Hop) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// repairOne appends tr's repaired hops to slab and returns tr with Hops
// set to them. Every run of unresponsive hops starting at i > 0 follows a
// responsive hops[i-1], which is the key's first address.
func repairOne(tr Traceroute, idx *gapIndex, slab []Hop) (Traceroute, []Hop) {
	hops := tr.Hops
	if len(hops) == 0 {
		tr.Hops = nil
		return tr, slab
	}
	start := len(slab)
	i := 0
	for i < len(hops) {
		if hops[i].Responsive {
			slab = append(slab, hops[i])
			i++
			continue
		}
		// Start of an unresponsive run [i, j).
		j := i
		for j < len(hops) && !hops[j].Responsive {
			j++
		}
		// Surrounded by responsive hops with a unique repair?
		if i > 0 && j < len(hops) {
			if k := idx.find(hops[i-1].Addr, hops[j].Addr); k >= 0 {
				if e := &idx.entries[k]; !e.conflict && e.seq != nil {
					slab = append(slab, e.seq...)
					i = j
					continue
				}
			}
		}
		// No unique repair: keep the unresponsive hops as-is.
		slab = append(slab, hops[i:j]...)
		i = j
	}
	tr.Hops = slab[start:len(slab):len(slab)]
	return tr, slab
}
