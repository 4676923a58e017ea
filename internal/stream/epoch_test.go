package stream

import "testing"

// TestEpochBoundaryBatchFlush pins the worker-side epoch boundary: a
// batch accumulated under epoch E must be flushed before an event from
// epoch E+1 is admitted into it (the b.epoch != e path in accumulate),
// and the flushed stale batch's per-link counts must be excluded from
// the new round's counters while still reaching the totals.
func TestEpochBoundaryBatchFlush(t *testing.T) {
	p, err := New(testAttribution(), Config{
		Workers:         1,
		BatchSize:       1024,
		MinRoundPackets: 1 << 40, // suppress controller folds
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	b := newBatch(p.attr.NumLinks)
	p.accumulate(b, testEvent(0), nil)
	p.accumulate(b, testEvent(0), nil)
	if b.epoch != 0 || b.events != 2 {
		t.Fatalf("batch under epoch %d with %d events, want epoch 0 with 2", b.epoch, b.events)
	}

	// Fold the round the way the controller does: bump the epoch. The
	// batch in hand is now stale — its round no longer exists.
	p.mu.Lock()
	p.st.epoch++
	p.epoch.Store(p.st.epoch)
	p.mu.Unlock()

	// Admitting an epoch-1 event must flush the stale batch first and
	// start a fresh batch under the new epoch.
	p.accumulate(b, testEvent(1), nil)
	if b.events != 1 {
		t.Fatalf("stale batch not flushed before admitting an epoch-1 event (%d events)", b.events)
	}
	if b.epoch != 1 {
		t.Fatalf("new batch under epoch %d, want 1", b.epoch)
	}

	p.mu.Lock()
	leaked := p.st.roundPkts[0]
	total := p.st.total
	settled := p.st.settled
	p.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("stale epoch-0 packets leaked into the new round: roundPkts[0] = %d", leaked)
	}
	if total != 2 {
		t.Fatalf("stale batch total = %d, want 2 (stale events still count toward totals)", total)
	}
	if settled != 2 {
		t.Fatalf("stale batch excluded count = %d, want 2", settled)
	}

	// The live epoch-1 batch flushes into the new round normally.
	p.flush(b, nil)
	p.mu.Lock()
	inRound := p.st.roundPkts[1]
	total = p.st.total
	p.mu.Unlock()
	if inRound != 1 {
		t.Fatalf("epoch-1 event missing from the new round: roundPkts[1] = %d", inRound)
	}
	if total != 3 {
		t.Fatalf("total = %d after live flush, want 3", total)
	}
}

// TestRelayHarvestAdvance pins the relay-mode contract: harvests are
// non-consuming snapshots, AdvanceEpoch resets counters and deploys the
// new configuration, stale epochs are rejected, and re-applying the
// current (epoch, config) is an idempotent no-op.
func TestRelayHarvestAdvance(t *testing.T) {
	var deploys []int
	p, err := New(testAttribution(), Config{
		Workers:         1,
		BatchSize:       1,
		Relay:           true,
		MinRoundPackets: 1,
		Deploy:          func(cfgIdx int, table map[uint32]uint8) { deploys = append(deploys, cfgIdx) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	b := newBatch(p.attr.NumLinks)
	p.accumulate(b, testEvent(0), nil)
	p.accumulate(b, testEvent(1), nil)
	p.flush(b, nil)

	h := p.HarvestRound()
	if h.Epoch != 0 || h.Pkts[0] != 1 || h.Pkts[1] != 1 || h.Total != 2 {
		t.Fatalf("harvest = %+v, want epoch 0 with one packet per link", h)
	}
	// Harvesting again returns the same snapshot — collection is
	// non-consuming until the epoch advances.
	if h2 := p.HarvestRound(); h2.Pkts[0] != 1 || h2.Total != 2 {
		t.Fatalf("second harvest consumed counters: %+v", h2)
	}

	if err := p.AdvanceEpoch(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := p.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after advance, want 1", got)
	}
	if h := p.HarvestRound(); h.Pkts[0] != 0 || h.Pkts[1] != 0 {
		t.Fatalf("advance did not reset round counters: %+v", h)
	}
	if len(deploys) != 2 || deploys[1] != 2 {
		t.Fatalf("deploys = %v, want [initial, 2]", deploys)
	}

	// Stale epoch: rejected. Idempotent re-apply: accepted, no deploy.
	if err := p.AdvanceEpoch(0, 0); err == nil {
		t.Fatal("stale epoch accepted")
	}
	if err := p.AdvanceEpoch(1, 2); err != nil {
		t.Fatalf("idempotent re-apply rejected: %v", err)
	}
	if len(deploys) != 2 {
		t.Fatalf("idempotent re-apply re-deployed: %v", deploys)
	}

	// Relay mode keeps localization state empty: no rounds fold locally
	// even though counters exceed MinRoundPackets.
	if p.Status(1).Rounds != 0 {
		t.Fatalf("relay pipeline folded %d rounds locally", p.Status(1).Rounds)
	}
}

// TestRelayAdvanceAccountsUnharvested pins the relay accounting rule:
// packets flushed into a round after the controller's last harvest of
// it are never folded, so AdvanceEpoch must count them as excluded —
// every event is either in a harvest the controller folded or in the
// settled count, never silently in neither.
func TestRelayAdvanceAccountsUnharvested(t *testing.T) {
	p, err := New(testAttribution(), Config{Workers: 1, BatchSize: 1024, Relay: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	b := newBatch(p.attr.NumLinks)
	p.accumulate(b, testEvent(0), nil)
	p.flush(b, nil)
	h := p.HarvestRound()
	folded := int64(0)
	for _, n := range h.Pkts {
		folded += n
	}

	// A batch lands between the collect and the apply.
	p.accumulate(b, testEvent(1), nil)
	p.flush(b, nil)
	if err := p.AdvanceEpoch(1, 1); err != nil {
		t.Fatal(err)
	}

	after := p.HarvestRound()
	if after.Total != 2 || folded != 1 {
		t.Fatalf("total = %d, folded = %d; want 2 and 1", after.Total, folded)
	}
	if after.Total != folded+after.Settled {
		t.Fatalf("total %d != folded %d + settled %d: a post-harvest batch went unaccounted",
			after.Total, folded, after.Settled)
	}
	if got := p.cfg.Metrics.Counter("stream_settle_excluded_total").Value(); got != 1 {
		t.Fatalf("stream_settle_excluded_total = %d, want 1", got)
	}
}
