package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"spooftrack/internal/bgp"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the output to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one tiny workload and parses its last output line.
func runTiny(t *testing.T, state, workload string, trace string) (int, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "5", "--seconds", "1",
		"--trace", trace, "--tiny", "--state", state}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v (stderr %s)", workload, lines[len(lines)-1], err, errOut.String())
	}
	return code, res
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	state := t.TempDir()
	for _, w := range names {
		for _, tc := range []struct {
			trace   string
			metrics []specMetric
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}, {"0", spec.EndToEnd}} {
			code, res := runTiny(t, state, w, tc.trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v", w, tc.trace, code, res)
			}
			var want, got []string
			for _, m := range tc.metrics {
				want = append(want, m.Name+" "+m.Unit)
				if tc.trace == "0" && res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
				}
			}
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%s metrics\n got %v\nwant %v", w, tc.trace, got, want)
			}
		}
	}
}

func TestCorruptedCatchmentRowFails(t *testing.T) {
	defer func() { corruptRows = nil }()
	corrupt := func(rows [][]bgp.LinkID) {
		row := rows[len(rows)/2]
		row[0] = (row[0] + 1) % 4
	}
	// Truth mode: the oracle against the routing outcomes catches it.
	corruptRows = corrupt
	if code, res := runTiny(t, t.TempDir(), "campaign-40k-truth", "0"); code == 0 || res.Correct {
		t.Errorf("campaign-40k-truth with a corrupted row: exit %d, correct %v", code, res.Correct)
	}
	// Measured mode: the digest of an earlier clean run at the seed does.
	state := t.TempDir()
	corruptRows = nil
	if code, res := runTiny(t, state, "campaign-paper", "0"); code != 0 || !res.Correct {
		t.Fatalf("clean campaign-paper: exit %d, correct %v", code, res.Correct)
	}
	corruptRows = corrupt
	if code, res := runTiny(t, state, "campaign-paper", "0"); code == 0 || res.Correct {
		t.Errorf("campaign-paper with a corrupted row: exit %d, correct %v", code, res.Correct)
	}
}

func TestDroppedEventFails(t *testing.T) {
	defer func() { dropEvent = nil }()
	for name, drop := range map[string]func(attack, round, i int) bool{
		// One event: its batch never fills, so the round is never flushed.
		"event": func(attack, round, i int) bool { return attack == 1 && round == 1 && i == 7 },
		// A whole batch: the round flushes, but the pipeline's count and
		// the shadow evaluator disagree with what was sent.
		"batch": func(attack, round, i int) bool { return attack == 1 && round == 1 && i < batchSize },
	} {
		dropEvent = drop
		if code, res := runTiny(t, t.TempDir(), "live-attack", "0"); code == 0 || res.Correct {
			t.Errorf("live-attack with a dropped %s: exit %d, correct %v", name, code, res.Correct)
		}
	}
}
