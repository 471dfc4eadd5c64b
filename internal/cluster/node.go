package cluster

import (
	"sync"
	"time"

	"proximity/internal/batch"
	"proximity/internal/server"
	"proximity/internal/vec"
)

// adminTimeout bounds the health probes and stats snapshots a router
// issues: admin traffic to a hung node must fail fast, not inherit the
// data path's generous deadline.
const adminTimeout = 2 * time.Second

// node is one shard node as seen from a Client: the HTTP middleware
// behind a batch submitter (so concurrent queries bound for the same node
// coalesce into one /v1/retrieve/batch call) plus the health state the
// replica-retry path maintains.
type node struct {
	base   string
	client *server.Client // data path
	admin  *server.Client // probes and stats snapshots, short timeout

	sub *batch.Collector[vec.Vector, server.BatchItem]

	mu        sync.Mutex
	healthy   bool
	probing   bool
	lastProbe time.Time
}

// newNode wires the submitter for one shard node.
func newNode(base string, opts Options) (*node, error) {
	n := &node{
		base:    base,
		client:  server.NewClient(base),
		admin:   server.NewClientWithTimeout(base, adminTimeout),
		healthy: true,
	}
	// The node rejects oversized batches outright, so never gather more
	// than it will accept.
	maxBatch := opts.MaxBatch
	if maxBatch > server.MaxBatchElements {
		maxBatch = server.MaxBatchElements
	}
	sub, err := batch.NewCollector(n.flush, batch.QueueOptions{
		MaxBatch: maxBatch,
		Timeout:  opts.BatchTimeout,
		Clock:    opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	n.sub = sub
	return n, nil
}

// close drains the submitter, then closes both clients' idle
// connections (a background health probe still in flight closes its own
// when it ends).
func (n *node) close() error {
	err := n.sub.Close()
	_ = n.client.Close()
	_ = n.admin.Close()
	return err
}

// do submits one query through the node's batch submitter and blocks for
// its share of the flushed batch.
func (n *node) do(q vec.Vector) (server.BatchItem, error) {
	return n.sub.Do(q)
}

// flush serves one gathered batch with a single batched-retrieve call; a
// node-level failure fans out to every waiter of the batch (each then
// retries on its own next replica).
func (n *node) flush(reqs []vec.Vector) []batch.Outcome[server.BatchItem] {
	embs := make([][]float32, len(reqs))
	for i, q := range reqs {
		embs[i] = q
	}
	resp, err := n.client.RetrieveBatch(embs)
	if err != nil {
		return batch.FanError[server.BatchItem](len(reqs), err)
	}
	outs := make([]batch.Outcome[server.BatchItem], len(reqs))
	for i, item := range resp.Results {
		outs[i] = batch.Outcome[server.BatchItem]{Res: item}
	}
	return outs
}

// available reports whether the node should receive traffic. A healthy
// node always qualifies. A node marked down stays sidelined until
// cooldown has passed since the last verdict, then the first caller to
// notice kicks off ONE background /healthz probe (short timeout, off the
// request path — a routing decision must never wait on a sick node) and
// the node rejoins service once the probe lands.
func (n *node) available(cooldown time.Duration) bool {
	n.mu.Lock()
	if n.healthy {
		n.mu.Unlock()
		return true
	}
	if n.probing || time.Since(n.lastProbe) < cooldown {
		n.mu.Unlock()
		return false
	}
	n.probing = true
	n.mu.Unlock()

	go func() {
		ok := n.admin.Healthy()
		n.mu.Lock()
		n.probing = false
		n.lastProbe = time.Now()
		n.healthy = ok
		n.mu.Unlock()
	}()
	return false
}

// markDown sidelines the node after a retryable failure and starts the
// re-probe cooldown.
func (n *node) markDown() {
	n.mu.Lock()
	n.healthy = false
	n.lastProbe = time.Now()
	n.mu.Unlock()
}

// markUp restores the node after a successful request (a cheaper signal
// than a probe: real traffic just worked).
func (n *node) markUp() {
	n.mu.Lock()
	n.healthy = true
	n.mu.Unlock()
}

// isHealthy reports the current verdict without probing.
func (n *node) isHealthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}
