package stream

import (
	"fmt"

	"spooftrack/internal/bgp"
	"spooftrack/internal/cluster"
	"spooftrack/internal/provenance"
	"spooftrack/internal/sched"
	"spooftrack/internal/spoof"
)

// EvalParams are the decision knobs of the attribution loop — what
// determines, byte for byte, what the loop folds and deploys. The
// single-node Pipeline and the sharded controller (internal/shard) both
// run an Evaluator built from the same params, which is what makes
// "byte-identical localization versus single-node" a property of shared
// code rather than of two implementations agreeing.
type EvalParams struct {
	// SplitThreshold: reconfigure while the top volume-ranked candidate
	// cluster holds more than this many sources (default 1 — drive to
	// singletons).
	SplitThreshold int
	// MaxOnlineConfigs caps how many configurations the loop may deploy
	// beyond the initial one (0 = no cap).
	MaxOnlineConfigs int
}

func (p *EvalParams) setDefaults() {
	if p.SplitThreshold <= 0 {
		p.SplitThreshold = 1
	}
}

// The loop's fixed localization settings, recorded in the ledger's
// MetaEvent so provenance.Replay re-derives with the same values.
const (
	// maxMisses is the localization tolerance: 0 is the paper's exact
	// correlation.
	maxMisses = 0
	// noiseFloor is the fraction of a round's volume below which a link
	// counts as silent: it absorbs packets straggling across a
	// reconfiguration under the previous catchment table.
	noiseFloor = 0.02
)

// EvalRound is one folded round as the Evaluator records it: the
// configuration it was measured under and the post-noise-floor per-link
// volumes. The sequence of EvalRounds is a complete, replayable
// transcript of the attribution state — RestoreEvaluator rebuilds the
// localizer and partition by refolding them.
type EvalRound struct {
	Config  int       `json:"config"`
	Volumes []float64 `json:"volumes"`
}

// Outcome is what one Evaluator step decided: the round that was folded
// and the deployment (if any) that follows it.
type Outcome struct {
	// Round is the 1-based round number just folded.
	Round int
	// Config is the configuration the round was measured under.
	Config int
	// Volumes are the post-noise-floor per-link volumes that were folded.
	Volumes []float64
	// Clusters / MeanSize / Candidates summarize the attribution state
	// after the fold.
	Clusters   int
	MeanSize   float64
	Candidates int
	// Deploy is the configuration chosen for the next round, or -1 when
	// the evaluator stays on the current one.
	Deploy int
	// Reason is "split" or "remeasure" when Deploy >= 0.
	Reason string
	// Scores is the candidate set the chosen split configuration beat
	// (only populated when scored=true and Reason=="split").
	Scores []sched.ConfigScore
	// Converged reports whether the top volume-ranked candidate cluster
	// is within the split threshold (or cannot be split further).
	Converged bool
}

// Evaluator is the attribution loop's fold-and-decide core, extracted
// from the Pipeline controller so the sharded controller can run the
// exact same logic over merged per-shard counters. It is not
// goroutine-safe; callers serialize access (the Pipeline under p.mu,
// the shard controller from its single round loop).
type Evaluator struct {
	attr Attribution
	par  EvalParams

	current    int
	deployed   []int
	used       []bool
	part       *cluster.Partition
	loc        *spoof.IncrementalLocalizer
	candidates []int
	converged  bool
	rounds     []EvalRound
}

// NewEvaluator builds an evaluator over the attribution matrix with the
// initial configuration deployed.
func NewEvaluator(attr Attribution, par EvalParams) *Evaluator {
	par.setDefaults()
	n := len(attr.Catchments[0])
	e := &Evaluator{
		attr:     attr,
		par:      par,
		current:  attr.InitialConfig,
		deployed: []int{attr.InitialConfig},
		used:     make([]bool, len(attr.Catchments)),
		part:     cluster.New(n),
		loc:      spoof.NewIncrementalLocalizer(n),
	}
	e.used[attr.InitialConfig] = true
	e.candidates = allSources(n)
	return e
}

// Step folds one round of per-link packet counters into the attribution
// state and — unless final — decides the next deployment: a greedy
// volume-ranked split when the top candidate cluster is still too
// coarse, else a re-measurement of hinted sources. blocked is the
// per-configuration quarantine mask (nil = nothing blocked); scored
// selects the scored greedy variant that also returns the beaten
// candidate set (for provenance).
func (e *Evaluator) Step(roundPkts []int64, final bool, blocked []bool, hints []int, scored bool) Outcome {
	roundPackets := int64(0)
	for _, n := range roundPkts {
		roundPackets += n
	}
	// Links below the noise floor are treated as silent so that a
	// handful of packets straggling across a reconfiguration (stamped
	// under the previous catchment table) cannot keep a cluster alive.
	volumes := make([]float64, len(roundPkts))
	floor := noiseFloor * float64(roundPackets)
	for l, n := range roundPkts {
		if v := float64(n); v > floor {
			volumes[l] = v
		}
	}

	cur := e.current
	e.loc.AddRound(e.attr.Catchments[cur], volumes)
	e.part.Refine(e.attr.Catchments[cur])
	e.candidates = e.loc.Candidates(maxMisses)
	e.rounds = append(e.rounds, EvalRound{Config: cur, Volumes: volumes})

	m := e.part.Summarize()
	out := Outcome{
		Round:      len(e.rounds),
		Config:     cur,
		Volumes:    volumes,
		Clusters:   m.NumClusters,
		MeanSize:   m.MeanSize,
		Candidates: len(e.candidates),
		Deploy:     -1,
	}

	// Volume-ranked clusters: estimate per-source volume by splitting
	// each link's round volume evenly across the candidates it hosts
	// (§III-C attribution at round granularity), then find the heaviest
	// candidate cluster still above the split threshold.
	estVol := e.estimateVolumes(volumes)
	topID, topSize := e.topVolumeCluster(estVol)

	// The loop is done when the heaviest cluster is small enough, or
	// when no remaining configuration separates its members — clusters
	// bound localization precision (§V), so deploying further would
	// burn configurations without refining anything.
	canSplit := false
	if topSize > e.par.SplitThreshold {
		canSplit = e.splittable(e.part.MembersOf(topID))
	}
	budgetLeft := e.par.MaxOnlineConfigs == 0 || len(e.deployed)-1 < e.par.MaxOnlineConfigs
	if !final && canSplit && budgetLeft {
		// Quarantined configurations are routed around, not consumed:
		// if every useful configuration is blocked the loop simply waits
		// (converged stays false) and retries them once their links heal.
		var next int
		var scores []sched.ConfigScore
		if scored {
			next, scores = sched.NextGreedyVolumeScored(e.part, e.attr.Catchments, estVol, e.used, blocked)
		} else {
			next = sched.NextGreedyVolumeMasked(e.part, e.attr.Catchments, estVol, e.used, blocked)
		}
		if next >= 0 {
			e.used[next] = true
			e.current = next
			e.deployed = append(e.deployed, next)
			out.Deploy = next
			out.Reason = "split"
			out.Scores = scores
		}
	}
	// Probe-conflict re-measurement: when no split is pending but the
	// probe channel disagrees with the catchment evidence for some
	// sources, spend the round re-observing them under the unused
	// configuration that covers the most conflicted sources.
	if out.Deploy < 0 && !final && budgetLeft && len(hints) > 0 {
		if next := sched.NextRemeasure(e.attr.Catchments, hints, e.used, blocked); next >= 0 {
			e.used[next] = true
			e.current = next
			e.deployed = append(e.deployed, next)
			out.Deploy = next
			out.Reason = "remeasure"
		}
	}
	e.converged = topSize >= 0 && !canSplit
	out.Converged = e.converged
	return out
}

// Fold is Step plus the decision record: it folds one round and, with
// the ledger on, records the round, the reconfiguration it chose (with
// the candidate set a split beat, or the hints a re-measurement
// served), and the verdict after it. Both controllers — the single-node
// Pipeline and internal/shard's merged-round controller — fold through
// here, so their ledgers agree event for event. With a nil ledger Fold
// is Step plus nil checks.
func (e *Evaluator) Fold(roundPkts []int64, final bool, blocked []bool, hints []int, led *provenance.Ledger) Outcome {
	out := e.Step(roundPkts, final, blocked, hints, led.Enabled())
	if !led.Enabled() {
		return out
	}
	packets := int64(0)
	for _, n := range roundPkts {
		packets += n
	}
	led.RecordRound(provenance.RoundEvent{
		Round:      out.Round,
		Config:     out.Config,
		Packets:    packets,
		Volumes:    out.Volumes,
		Clusters:   out.Clusters,
		Candidates: out.Candidates,
	})
	if out.Deploy >= 0 {
		rc := provenance.ReconfigEvent{Round: out.Round, Chosen: out.Deploy, Reason: out.Reason}
		for c, b := range blocked {
			if b {
				rc.Blocked = append(rc.Blocked, c)
			}
		}
		if out.Reason == "remeasure" {
			rc.Hints = append([]int(nil), hints...)
		}
		for _, sc := range out.Scores {
			rc.Beaten = append(rc.Beaten, provenance.CandidateScore{Config: sc.Config, Score: sc.Score})
		}
		led.RecordReconfig(rc)
	}
	led.RecordVerdict(provenance.VerdictEvent{
		Origin:     "stream",
		Round:      out.Round,
		Candidates: e.candidates,
		Assign:     e.part.Assignments(),
		Clusters:   out.Clusters,
		Converged:  out.Converged,
	})
	return out
}

// OpenLedger opens the live loop's provenance chain: the decision
// parameters, one catchment row per configuration (the leaves every
// verdict chain must account for), and the initial deployment. The rows
// are shared, not copied: the evaluator folds against the same
// immutable matrix. A nil ledger records nothing.
func (e *Evaluator) OpenLedger(led *provenance.Ledger) {
	if !led.Enabled() {
		return
	}
	led.RecordMeta(provenance.MetaEvent{
		Component:      "stream",
		NumSources:     len(e.attr.Catchments[0]),
		NumConfigs:     len(e.attr.Catchments),
		NumLinks:       e.attr.NumLinks,
		MaxMisses:      maxMisses,
		SplitThreshold: e.par.SplitThreshold,
		NoiseFloor:     noiseFloor,
		InitialConfig:  e.attr.InitialConfig,
	})
	for c, row := range e.attr.Catchments {
		led.RecordRowShared(provenance.RowEvent{Config: c, Catchment: row})
	}
	led.RecordDeploy(provenance.DeployEvent{Config: e.attr.InitialConfig, Attempts: 1, Phase: "initial"})
}

// estimateVolumes attributes the round's per-link volume to sources:
// each candidate whose current catchment is link l gets an equal share
// of volumes[l]; eliminated sources get zero.
func (e *Evaluator) estimateVolumes(volumes []float64) []float64 {
	row := e.attr.Catchments[e.current]
	onLink := make([]int, len(volumes))
	for _, k := range e.candidates {
		if l := row[k]; l != bgp.NoLink && int(l) < len(onLink) {
			onLink[l]++
		}
	}
	est := make([]float64, len(row))
	for _, k := range e.candidates {
		if l := row[k]; l != bgp.NoLink && int(l) < len(volumes) && onLink[l] > 0 {
			est[k] = volumes[l] / float64(onLink[l])
		}
	}
	return est
}

// topVolumeCluster returns the candidate cluster carrying the most
// estimated volume and its size, or (-1, -1) when no candidate carries
// volume.
func (e *Evaluator) topVolumeCluster(estVol []float64) (clusterID, size int) {
	volByCluster := make(map[int]float64)
	for _, k := range e.candidates {
		if estVol[k] > 0 {
			volByCluster[e.part.ClusterOf(k)] += estVol[k]
		}
	}
	best, bestVol := -1, 0.0
	for c, v := range volByCluster {
		if best == -1 || v > bestVol || (v == bestVol && c < best) {
			best, bestVol = c, v
		}
	}
	if best == -1 {
		return -1, -1
	}
	return best, len(e.part.MembersOf(best))
}

// splittable reports whether any unused configuration maps the given
// cluster members to more than one ingress link.
func (e *Evaluator) splittable(members []int) bool {
	if len(members) < 2 {
		return false
	}
	for cfg, row := range e.attr.Catchments {
		if e.used[cfg] {
			continue
		}
		first := row[members[0]]
		for _, k := range members[1:] {
			if row[k] != first {
				return true
			}
		}
	}
	return false
}

// Current returns the configuration the evaluator expects the next
// round to be measured under.
func (e *Evaluator) Current() int { return e.current }

// Deployed returns the configurations deployed so far, in order.
func (e *Evaluator) Deployed() []int { return append([]int(nil), e.deployed...) }

// Candidates returns the current candidate source positions.
func (e *Evaluator) Candidates() []int { return append([]int(nil), e.candidates...) }

// Converged reports whether the loop has refined as far as it can.
func (e *Evaluator) Converged() bool { return e.converged }

// Rounds returns how many rounds have been folded.
func (e *Evaluator) Rounds() int { return len(e.rounds) }

// Assignments returns the per-source cluster assignment (the
// localization verdict at the current refinement).
func (e *Evaluator) Assignments() []int32 { return e.part.Assignments() }

// NumClusters returns the current cluster count.
func (e *Evaluator) NumClusters() int { return e.part.NumClusters() }

// Partition returns the evaluator's live cluster partition. Callers
// must treat it as read-only.
func (e *Evaluator) Partition() *cluster.Partition { return e.part }

// EvalSnapshot is the Evaluator's complete serializable state: the
// deployment transcript plus every folded round. Restoring replays the
// rounds through the same fold code, so a snapshot shipped across the
// wire (the shard controller's failover protocol) reproduces the
// evaluator byte-for-byte.
type EvalSnapshot struct {
	Current   int         `json:"current"`
	Deployed  []int       `json:"deployed"`
	Converged bool        `json:"converged"`
	Rounds    []EvalRound `json:"rounds"`
}

// Snapshot captures the evaluator's replayable state.
func (e *Evaluator) Snapshot() EvalSnapshot {
	s := EvalSnapshot{
		Current:   e.current,
		Deployed:  append([]int(nil), e.deployed...),
		Converged: e.converged,
		Rounds:    make([]EvalRound, len(e.rounds)),
	}
	for i, r := range e.rounds {
		s.Rounds[i] = EvalRound{Config: r.Config, Volumes: append([]float64(nil), r.Volumes...)}
	}
	return s
}

// RestoreEvaluator rebuilds an evaluator from a snapshot by refolding
// every recorded round — deterministic replay through the same
// localizer and refinement code, never a structural copy.
func RestoreEvaluator(attr Attribution, par EvalParams, s EvalSnapshot) (*Evaluator, error) {
	e := NewEvaluator(attr, par)
	if len(s.Deployed) == 0 {
		return nil, fmt.Errorf("stream: snapshot has no deployments")
	}
	if s.Deployed[0] != attr.InitialConfig {
		return nil, fmt.Errorf("stream: snapshot initial config %d, attribution says %d", s.Deployed[0], attr.InitialConfig)
	}
	for _, c := range s.Deployed {
		if c < 0 || c >= len(attr.Catchments) {
			return nil, fmt.Errorf("stream: snapshot deploys config %d out of range", c)
		}
		e.used[c] = true
	}
	e.deployed = append([]int(nil), s.Deployed...)
	for _, r := range s.Rounds {
		if r.Config < 0 || r.Config >= len(attr.Catchments) {
			return nil, fmt.Errorf("stream: snapshot round folds config %d out of range", r.Config)
		}
		vols := append([]float64(nil), r.Volumes...)
		e.loc.AddRound(attr.Catchments[r.Config], vols)
		e.part.Refine(attr.Catchments[r.Config])
		e.rounds = append(e.rounds, EvalRound{Config: r.Config, Volumes: vols})
	}
	e.candidates = e.loc.Candidates(maxMisses)
	e.current = s.Current
	e.converged = s.Converged
	return e, nil
}
