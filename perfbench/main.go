// Command perfbench is the repository's end-to-end benchmark. It drives
// the offline campaign (propagate → collect → repair → infer → impute →
// cluster → schedule) and the live attribution loop (decode → ingest →
// flush → fold → greedy score → deploy) through their public calls, checks
// that every output is correct, and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the campaign is composed layer by layer under spans and the result holds
// the per-layer split. See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"spooftrack/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	state    string
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics, operation counts and correctness
// violations.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	env       map[string]any
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness violation; any violation fails the run.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceN int
	fl.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fl.Uint64Var(&o.seed, "seed", 42, "seed the workload's inputs are made from")
	fl.Float64Var(&o.seconds, "seconds", 30, "measurement budget the workload's work is sized from")
	fl.IntVar(&traceN, "trace", 0, "1 = record spans and report the per-layer split")
	fl.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a few seconds (smoke tests)")
	fl.StringVar(&o.state, "state", ".bench_build/state", "directory for digests and result files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = traceN == 1
	wl, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceN != 0 && traceN != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	rep := &report{metrics: make(map[string]metric), env: environment(o)}
	var tr *trace.Tracer
	if o.trace {
		tr = newTracer()
	}
	if err := wl.run(o, rep, tr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: correctness: %s\n", p)
	}
	if err := saveResult(o, rep, res, tr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	envLine, err := json.Marshal(rep.env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// environment records what makes results comparable across machines.
func environment(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"tiny":       o.tiny,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
		"source":     sourceDigest(),
	}
}

// sourceDigest hashes the module's Go sources and go.mod files under the
// working directory, standing in for a commit id where the tree is not a
// git checkout.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// saveResult writes the run's environment and result, and a traced run's
// spans, under the state directory.
func saveResult(o options, rep *report, res result, tr *trace.Tracer) error {
	dir := filepath.Join(o.state, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t", o.workload, o.seed, o.trace))
	out := map[string]any{"env": rep.env, "result": res, "problems": rep.problems}
	if err := writeFile(name+".json", func(w io.Writer) error { return json.NewEncoder(w).Encode(out) }); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return writeFile(name+".spans.json", tr.WriteJSON)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// digestStore remembers, per workload and seed, the digest of the final
// partition and its catchment matrix and the per-attack digests of earlier
// runs in this checkout, so a run whose results differ from an earlier run
// at the same seed fails. The env line's digest_compared says whether an
// earlier run's digests were there to compare against: the first run at a
// seed in a state directory only records them.
type digestStore struct {
	Campaign string   `json:"campaign"`
	Attacks  []string `json:"attacks"`
}

func checkDigests(o options, rep *report, campaign string, attacks []string) error {
	dir := filepath.Join(o.state, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-tiny%t.json", o.workload, o.seed, o.tiny))
	var old digestStore
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &old); err != nil {
			return fmt.Errorf("digest store %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rep.env["digest_compared"] = old.Campaign != ""
	if old.Campaign != "" && old.Campaign != campaign {
		rep.fail("campaign digest (final partition, catchment matrix) %s differs from an earlier run's %s at seed %d", campaign, old.Campaign, o.seed)
		return nil
	}
	for i := 0; i < len(attacks) && i < len(old.Attacks); i++ {
		if attacks[i] != old.Attacks[i] {
			rep.fail("attack %d digest %s differs from an earlier run's %s at seed %d", i, attacks[i], old.Attacks[i], o.seed)
			return nil
		}
	}
	if old.Campaign != "" && len(old.Attacks) >= len(attacks) {
		return nil
	}
	b, _ := json.Marshal(digestStore{Campaign: campaign, Attacks: attacks})
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
