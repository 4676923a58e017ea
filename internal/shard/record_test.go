package shard

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spooftrack/internal/provenance"
	"spooftrack/internal/stats"
	"spooftrack/internal/stream"
)

// recordRoundPkts is the fixed packet count of every round in the
// cross-controller record test; the single-node pipeline's
// MinRoundPackets equals it, so a round folds exactly when it is whole.
const recordRoundPkts = 60

// recordRounds draws the seeded round sequence: for each round, the
// source position of every packet, weighted toward a few attackers.
func recordRounds(seed uint64, rounds int) [][]int {
	rng := stats.NewRNG(seed)
	weighted := []int{5, 5, 5, 11, 11, 2}
	out := make([][]int, rounds)
	for r := range out {
		out[r] = make([]int, recordRoundPkts)
		for i := range out[r] {
			out[r][i] = weighted[rng.Intn(len(weighted))]
		}
	}
	return out
}

// decisionRecord is a ledger's decision record without sequence
// numbers, wall stamps, membership or failover events: one JSON line
// per Meta, Row, Deploy, Round, Reconfig and Verdict payload.
func decisionRecord(t *testing.T, led *provenance.Ledger) []string {
	t.Helper()
	var out []string
	for _, ev := range led.Export().Events {
		var payload any
		switch ev.Kind {
		case provenance.KindMeta:
			payload = ev.Meta
		case provenance.KindRow:
			payload = ev.Row
		case provenance.KindDeploy:
			payload = ev.Deploy
		case provenance.KindRound:
			payload = ev.Round
		case provenance.KindReconfig:
			payload = ev.Reconfig
		case provenance.KindVerdict:
			payload = ev.Verdict
		default:
			continue
		}
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(ev.Kind)+" "+string(b))
	}
	return out
}

// TestControllersWriteSameDecisionRecord runs one seeded round sequence
// through a single-node stream.Pipeline and through a one-shard Cluster,
// each with a ledger, and requires the two decision records to match
// payload for payload. The quarantine mask and re-measurement hints are
// fixed so both reconfiguration reasons and the blocked list appear.
func TestControllersWriteSameDecisionRecord(t *testing.T) {
	// Two more configurations repeat the baseline's catchments: they
	// split nothing, so the first stays free for a re-measurement once
	// the splits run out, and the second is quarantined throughout.
	attr := chaosAttr()
	attr.Catchments = append(attr.Catchments, attr.Catchments[0], attr.Catchments[0])
	const rounds = 8
	seq := recordRounds(0x5EED, rounds)
	blocked := func() []bool { return []bool{false, false, false, false, false, true} }
	hints := func() []int { return []int{3, 12} }

	// Single node: one worker flushing every event, folding on its own
	// ticker once the round is whole.
	pipeLed := provenance.New(provenance.Options{})
	var cur atomic.Int64
	cur.Store(int64(attr.InitialConfig))
	pipe, err := stream.New(attr, stream.Config{
		Workers:         1,
		BatchSize:       1,
		FlushInterval:   time.Millisecond,
		EvalInterval:    time.Millisecond,
		MinRoundPackets: recordRoundPkts,
		Blocked:         blocked,
		Remeasure:       hints,
		Ledger:          pipeLed,
		Deploy:          func(cfgIdx int, _ map[uint32]uint8) { cur.Store(int64(cfgIdx)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, srcs := range seq {
		cfg := int(cur.Load())
		for _, src := range srcs {
			pipe.Ingest(chaosEvent(attr, src, cfg))
		}
		deadline := time.Now().Add(10 * time.Second)
		for pipe.Status(1).Rounds < r+1 {
			if time.Now().After(deadline) {
				t.Fatalf("pipeline round %d never folded", r)
			}
			time.Sleep(time.Millisecond)
		}
		// Deploy runs after the fold is visible; wait until the next
		// round's configuration is the one events will be stamped with.
		for int(cur.Load()) != pipe.Status(1).CurrentConfig {
			if time.Now().After(deadline) {
				t.Fatalf("pipeline round %d: deploy never landed", r)
			}
			time.Sleep(time.Millisecond)
		}
	}
	pipe.Close()

	// One-shard cluster: the same rounds, quiesced and stepped.
	clLed := provenance.New(provenance.Options{})
	cl, err := NewCluster(ClusterConfig{
		Shards:          1,
		Attr:            attr,
		MinRoundPackets: recordRoundPkts,
		Pipe:            stream.Config{Workers: 1, BatchSize: 1, FlushInterval: time.Millisecond},
		Blocked:         blocked,
		Remeasure:       hints,
		Ledger:          clLed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for r, srcs := range seq {
		cfg := cl.Controller().Status().CurrentConfig
		for _, src := range srcs {
			cl.Ingest(chaosEvent(attr, src, cfg))
		}
		if err := cl.Quiesce(10 * time.Second); err != nil {
			t.Fatalf("cluster round %d: %v", r, err)
		}
		res, err := cl.Step(false)
		if err != nil {
			t.Fatalf("cluster round %d: %v", r, err)
		}
		if !res.Folded {
			t.Fatalf("cluster round %d did not fold: %+v", r, res)
		}
	}

	want, got := decisionRecord(t, pipeLed), decisionRecord(t, clLed)
	kinds := map[string]int{}
	for _, line := range want {
		kind, payload, _ := strings.Cut(line, " ")
		kinds[kind]++
		for _, reason := range []string{"split", "remeasure"} {
			if kind == "reconfig" && strings.Contains(payload, `"reason":"`+reason+`"`) {
				kinds[reason]++
			}
		}
	}
	if kinds["round"] != rounds || kinds["verdict"] != rounds || kinds["split"] == 0 || kinds["remeasure"] == 0 {
		t.Fatalf("single-node record is too thin to compare: %v", kinds)
	}
	// The fixed localization settings still reach the ledger, so
	// provenance.Replay re-derives with them.
	if meta := want[0]; !strings.Contains(meta, `"noise_floor":0.02`) || strings.Contains(meta, "max_misses") {
		t.Fatalf("meta event lost the fixed settings: %s", meta)
	}
	if len(want) != len(got) {
		t.Fatalf("single-node record has %d events, cluster record %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d differs:\nsingle-node %s\ncluster     %s", i, want[i], got[i])
		}
	}
}
