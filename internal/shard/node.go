package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spooftrack/internal/amp"
	"spooftrack/internal/stream"
)

// NodeConfig builds one ingest shard.
type NodeConfig struct {
	// ID is the shard's cluster-unique id (ring membership key).
	ID string
	// Attr is the shared attribution matrix — identical on every node
	// and on the controller.
	Attr stream.Attribution
	// Pipe tunes the wrapped pipeline. Relay is forced on: a shard never
	// folds locally. Deploy, Shed, DegradedRecovery, Metrics, and Ledger
	// wire through unchanged.
	Pipe stream.Config
	// Ready is the membership gate the controller polls on every
	// collect: false asks to be drained. Wire it to
	// watch.Watchdog.ReadyFunc (the /readyz + SLO signal). nil = always
	// ready.
	Ready func() bool
}

// Node is one ingest shard: the existing stream.Pipeline in relay mode
// plus the RPC surface the controller drives (collect / apply / hello)
// with lease-term fencing.
type Node struct {
	id    string
	pipe  *stream.Pipeline
	ready func() bool

	mu   sync.Mutex
	term uint64 // highest lease term seen; lower terms are rejected
	last *EpochUpdate

	crashed atomic.Bool
}

// NewNode builds a shard node and starts its relay pipeline.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("shard: node needs an ID")
	}
	pc := cfg.Pipe
	pc.Relay = true
	pipe, err := stream.New(cfg.Attr, pc)
	if err != nil {
		return nil, fmt.Errorf("shard: node %s: %w", cfg.ID, err)
	}
	return &Node{id: cfg.ID, pipe: pipe, ready: cfg.Ready}, nil
}

// ID returns the shard id.
func (n *Node) ID() string { return n.id }

// Pipeline exposes the wrapped relay pipeline (ingest wiring, status).
func (n *Node) Pipeline() *stream.Pipeline { return n.pipe }

// Ingest feeds one event into the shard's pipeline.
func (n *Node) Ingest(ev amp.Event) bool {
	if n.crashed.Load() {
		return false
	}
	return n.pipe.Ingest(ev)
}

// Crash simulates a permanent shard death: RPCs stop answering and
// ingest stops accepting. The chaos harness's shard-crash and the
// KillShard test hook land here.
func (n *Node) Crash() { n.crashed.Store(true) }

// Crashed reports whether the node has been crashed.
func (n *Node) Crashed() bool { return n.crashed.Load() }

// Close shuts the pipeline down.
func (n *Node) Close() { n.pipe.Close() }

// isReady evaluates the membership gate.
func (n *Node) isReady() bool {
	if n.crashed.Load() {
		return false
	}
	if n.ready == nil {
		return true
	}
	return n.ready()
}

// fence rejects terms below the highest seen and adopts higher ones.
func (n *Node) fence(term uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if term < n.term {
		return fmt.Errorf("%w: node %s saw term %d, got %d", ErrStaleTerm, n.id, n.term, term)
	}
	n.term = term
	return nil
}

// HandleCollect serves the controller's counter collection.
func (n *Node) HandleCollect(req CollectRequest) (CollectResponse, error) {
	if n.crashed.Load() {
		return CollectResponse{}, fmt.Errorf("%w: node %s crashed", ErrUnavailable, n.id)
	}
	if err := n.fence(req.Term); err != nil {
		return CollectResponse{}, err
	}
	if e := n.pipe.Epoch(); e < req.Epoch {
		// Lagging shard (it missed an apply): the controller re-applies
		// instead of folding, so answer with the epoch alone. A harvest
		// here would mark the round as collected, and AdvanceEpoch would
		// then not exclude the packets that arrived after the last fold.
		return CollectResponse{Node: n.id, Harvest: stream.Harvest{Epoch: e}, Ready: n.isReady()}, nil
	}
	return CollectResponse{
		Node:    n.id,
		Harvest: n.pipe.HarvestRound(),
		Ready:   n.isReady(),
	}, nil
}

// HandleApply adopts a controller epoch update: reset round counters,
// bump the epoch (invalidating in-flight worker batches), deploy the
// configuration, and remember the update for failover recovery.
func (n *Node) HandleApply(u EpochUpdate) (ApplyResponse, error) {
	if n.crashed.Load() {
		return ApplyResponse{}, fmt.Errorf("%w: node %s crashed", ErrUnavailable, n.id)
	}
	if err := n.fence(u.Term); err != nil {
		return ApplyResponse{}, err
	}
	if err := n.pipe.AdvanceEpoch(u.Epoch, u.Config); err != nil {
		return ApplyResponse{}, fmt.Errorf("shard: node %s: %w", n.id, err)
	}
	n.mu.Lock()
	cp := u
	n.last = &cp
	n.mu.Unlock()
	return ApplyResponse{Node: n.id, Epoch: u.Epoch}, nil
}

// HandleHello serves failover recovery: the shard's last applied update.
func (n *Node) HandleHello(req HelloRequest) (HelloResponse, error) {
	if n.crashed.Load() {
		return HelloResponse{}, fmt.Errorf("%w: node %s crashed", ErrUnavailable, n.id)
	}
	if err := n.fence(req.Term); err != nil {
		return HelloResponse{}, err
	}
	resp := HelloResponse{Node: n.id, Ready: n.isReady(), Epoch: n.pipe.Epoch()}
	n.mu.Lock()
	if n.last != nil {
		resp.HasUpdate = true
		resp.Update = *n.last
	}
	n.mu.Unlock()
	return resp, nil
}
