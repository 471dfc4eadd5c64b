package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/lsh"
	"proximity/internal/rebalance"
	"proximity/internal/server"
	"proximity/internal/shard"
	"proximity/internal/telemetry"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// DefaultReplicas is the number of distinct nodes a query may try when
// Options.Replicas is zero: the ring owner plus one backup.
const DefaultReplicas = 2

// DefaultProbeCooldown is how long a node marked down stays sidelined
// before one routing caller re-probes its /healthz.
const DefaultProbeCooldown = time.Second

// Options configures a Client.
type Options struct {
	// Seed drives the routing signature's hyperplane draw, so a fixed
	// seed reproduces the same node assignment.
	Seed uint64
	// Replicas is the maximum number of distinct nodes a query may try
	// before failing. Defaults to DefaultReplicas, capped at the node
	// count.
	Replicas int
	// Rebalance, when non-nil, starts an adaptive ring re-weighting
	// controller over this client: per-node lookup imbalance beyond the
	// policy's threshold (sustained for its window) shifts hash arcs
	// off overloaded nodes by re-weighting virtual-node counts (see
	// Balancer). The controller lives and dies with the Client; reach
	// it via Controller for stats or manual triggers.
	Rebalance *rebalance.Options
	// Telemetry, when non-nil, receives node_rpc stage observations for
	// every traced node call. Sampled queries (a live trace in the
	// RetrieveContext context) bypass the per-node batch submitter and go
	// out as direct traced calls, so the node's spans come back under the
	// parent trace's ID; see Client.RetrieveContext.
	Telemetry *telemetry.Telemetry
	// Logger receives structured routing events: replica retries, nodes
	// marked down, whole-query fallbacks, and ring re-weightings.
	// Defaults to slog.Default().
	Logger *slog.Logger
}

func (o *Options) fillDefaults() {
	if o.Replicas <= 0 {
		o.Replicas = DefaultReplicas
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
}

// RouterStats are the client-side routing counters.
type RouterStats struct {
	// Served counts queries answered by some node.
	Served int64
	// Retried counts served queries that needed more than one node.
	Retried int64
	// Failed counts queries no tried replica could answer (through the
	// core.Cache surface these fall back to the caller's local miss
	// path).
	Failed int64
	// RemoteHits counts served queries the owning node answered from
	// its cache.
	RemoteHits int64
}

// NodeStatus is one node's slice of a Status snapshot.
type NodeStatus struct {
	// Node is the node's base URL.
	Node string
	// Healthy is the router's current verdict (no probe is issued).
	Healthy bool
	// Reachable reports whether the stats fetch below succeeded.
	Reachable bool
	// Remote is the node's own /v1/stats payload (zero unless
	// Reachable).
	Remote server.StatsResponse
	// Submit is this client's per-node batch-submitter counters.
	Submit batch.QueueStats
}

// ErrClosed is returned by operations on a closed Client.
var ErrClosed = errors.New("cluster: client closed")

// errNonFinite is returned for a query with a NaN or ±Inf component.
var errNonFinite = errors.New("cluster: query has a NaN or infinite component")

// Client routes queries across shard nodes — instances of the HTTP
// middleware — by consistent hashing over the same LSH signatures the
// in-process partitioner routes by. It satisfies core.Cache and
// core.Searcher, so it drops into core.CachedRetriever unchanged; see
// the package documentation for the semantics of each surface. All
// methods are safe for concurrent use.
type Client struct {
	opts   Options
	dim    int
	hasher *lsh.Hasher          // the routing signature
	tel    *telemetry.Telemetry // nil disables stage observation
	log    *slog.Logger
	// cooldown is DefaultProbeCooldown outside tests.
	cooldown time.Duration

	mu     sync.RWMutex
	ring   *Ring
	nodes  map[string]*node
	closed bool

	ctrl *rebalance.Controller // nil unless Options.Rebalance was set

	served     atomic.Int64
	retried    atomic.Int64
	failed     atomic.Int64
	remoteHits atomic.Int64
}

var (
	_ core.Cache           = (*Client)(nil)
	_ core.Searcher        = (*Client)(nil)
	_ core.ContextCache    = (*Client)(nil)
	_ core.ContextSearcher = (*Client)(nil)
)

// New creates a cluster client for dim-dimensional embeddings over the
// given node base URLs (e.g. "http://10.0.0.1:8080").
func New(dim int, nodes []string, opts Options) (*Client, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("cluster: dimension must be positive, got %d", dim)
	}
	opts.fillDefaults()
	hasher, err := lsh.NewHasher(dim, shard.DefaultSignatureBits, opts.Seed)
	if err != nil {
		return nil, err
	}
	c := &Client{
		opts:     opts,
		dim:      dim,
		hasher:   hasher,
		nodes:    make(map[string]*node, len(nodes)),
		tel:      opts.Telemetry,
		log:      opts.Logger,
		cooldown: DefaultProbeCooldown,
	}
	ring, err := NewRing(nodes)
	if err != nil {
		return nil, err
	}
	c.ring = ring
	// Nodes own keep-alive connections from the moment they are built;
	// every later constructor failure must close what already started.
	closeNodes := func() {
		for _, n := range c.nodes {
			_ = n.close()
		}
	}
	for _, base := range ring.Nodes() {
		n, err := newNode(base)
		if err != nil {
			closeNodes()
			return nil, err
		}
		c.nodes[base] = n
	}
	if opts.Rebalance != nil {
		bal, err := NewBalancer(c)
		if err != nil {
			closeNodes()
			return nil, err
		}
		ctrl, err := rebalance.New(bal, bal, *opts.Rebalance)
		if err != nil {
			closeNodes()
			return nil, err
		}
		if err := ctrl.Start(); err != nil {
			closeNodes()
			return nil, err
		}
		c.ctrl = ctrl
	}
	return c, nil
}

// Controller returns the adaptive rebalance controller, or nil when
// Options.Rebalance was not set.
func (c *Client) Controller() *rebalance.Controller { return c.ctrl }

// KeyOf returns the routing key of a query: its LSH signature, the
// same kind of key the in-process partitioner routes by. Exported for
// diagnostics and tests.
func (c *Client) KeyOf(q vec.Vector) uint32 { return c.hasher.Hash(q) }

// Retrieve routes the query to its ring owner and returns that node's
// retrieval. A retryable failure (transport error or 5xx — a sick node)
// sidelines the node and walks to the next distinct ring replica, up to
// Replicas nodes; a 4xx surfaces immediately, since every replica would
// reject the same input. Known-down nodes are skipped while their
// cooldown lasts, so a dead node costs one failed round trip, not one
// per query.
func (c *Client) Retrieve(q vec.Vector) (docs []int, hit bool, err error) {
	return c.retrieve(nil, q)
}

// RetrieveContext is Retrieve with trace propagation: when ctx carries a
// sampled trace, every node attempt bypasses the per-node batch submitter
// and goes out as a direct traced call — the request ships the trace ID
// in the X-Proximity-Trace header, the node records its own spans under
// that ID, and the response header carries them back to be grafted into
// the parent trace, labeled with the node's address. The router adds one
// node_rpc span per attempt (failed attempts carry the error), so a
// replica retry shows up as two node_rpc spans under one trace ID.
// Untraced contexts take the plain batched Retrieve path unchanged.
func (c *Client) RetrieveContext(ctx context.Context, q vec.Vector) (docs []int, hit bool, err error) {
	return c.retrieve(telemetry.FromContext(ctx), q)
}

func (c *Client) retrieve(trace *telemetry.Trace, q vec.Vector) (docs []int, hit bool, err error) {
	if q == nil {
		return nil, false, errors.New("cluster: nil query embedding")
	}
	if len(q) != c.dim {
		return nil, false, fmt.Errorf("cluster: query dim %d, cluster dim %d: %w",
			len(q), c.dim, vec.ErrDimensionMismatch)
	}
	// A node refuses a NaN or ±Inf component with a 400 for the whole
	// batch that carries it, which would fail every query sharing it.
	if !vec.Finite(q) {
		return nil, false, errNonFinite
	}

	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, false, ErrClosed
	}
	order := c.ring.Lookup(c.KeyOf(q))
	cands := make([]*node, 0, len(order))
	for _, base := range order {
		cands = append(cands, c.nodes[base])
	}
	c.mu.RUnlock()

	// Available nodes keep their ring order; sidelined ones sink to the
	// end as a last resort, so a query prefers live replicas but is
	// never left unattempted while any node remains.
	ordered := make([]*node, 0, len(cands))
	var down []*node
	for _, n := range cands {
		if n.available(c.cooldown) {
			ordered = append(ordered, n)
		} else {
			down = append(down, n)
		}
	}
	cands = append(ordered, down...)
	if len(cands) > c.opts.Replicas {
		cands = cands[:c.opts.Replicas]
	}

	var lastErr error
	for i, n := range cands {
		item, err := c.attempt(trace, n, q)
		if err == nil {
			n.markUp()
			c.served.Add(1)
			if i > 0 {
				c.retried.Add(1)
			}
			if item.Hit {
				c.remoteHits.Add(1)
			}
			return item.Docs, item.Hit, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, false, err
		}
		c.log.Warn("cluster: node attempt failed, sidelining node",
			"node", n.base, "attempt", i+1, "replicas", len(cands), "err", err)
		n.markDown()
	}
	c.failed.Add(1)
	c.log.Error("cluster: all replicas failed, falling back to caller",
		"replicas", len(cands), "err", lastErr)
	return nil, false, fmt.Errorf("cluster: all %d replicas failed: %w", len(cands), lastErr)
}

// attempt issues one node call. Untraced queries ride the node's batch
// submitter (queries that arrive while a call is in flight share the
// next one); traced ones go direct so the node's span timeline attaches
// to exactly this request.
func (c *Client) attempt(trace *telemetry.Trace, n *node, q vec.Vector) (server.BatchItem, error) {
	if trace == nil {
		return n.sub.Do(q)
	}
	finish := trace.StartSpanNode(telemetry.StageNodeRPC, n.base)
	start := time.Now()
	resp, spans, err := n.client.RetrieveTraced(q, trace.ID())
	if c.tel != nil {
		c.tel.ObserveStage(telemetry.StageNodeRPC, time.Since(start))
	}
	// Label the node's own spans with where they ran: the node doesn't
	// know its public address, but the router does.
	for i := range spans {
		if spans[i].Node == "" {
			spans[i].Node = n.base
		}
	}
	trace.AddSpans(spans)
	finish(err)
	if err != nil {
		return server.BatchItem{}, err
	}
	return server.BatchItem{Docs: resp.Docs, Hit: resp.Hit}, nil
}

// retryable classifies a node failure: transport errors and 5xx replies
// indict the node, so the next replica may succeed; a 4xx indicts the
// input, which every replica would reject the same way. This is exactly
// the 400-vs-500 contract of server.retrieveStatus.
func retryable(err error) bool {
	var se *server.StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// Get implements core.Cache over the cluster: the owning node runs the
// full cache-or-database path, so any successful reply is a hit from the
// local retriever's point of view — the local process must not redo the
// search the node already performed. ok=false only when every tried
// replica failed, in which case the wrapping retriever falls back to its
// local miss path: a degraded cluster loses speed, never availability.
func (c *Client) Get(q vec.Vector) ([]int, bool) {
	docs, _, err := c.Retrieve(q)
	if err != nil {
		return nil, false
	}
	return docs, true
}

// GetContext implements core.ContextCache: Get with trace propagation
// (see RetrieveContext), so a sampled retrieval through a cluster-backed
// retriever stitches the remote node's spans into its trace.
func (c *Client) GetContext(ctx context.Context, q vec.Vector) ([]int, bool) {
	docs, _, err := c.RetrieveContext(ctx, q)
	if err != nil {
		return nil, false
	}
	return docs, true
}

// Put implements core.Cache as a no-op: nodes fill their own caches on
// their own miss paths, so the routed retrieval that preceded this call
// already populated the owner.
func (c *Client) Put(q vec.Vector, docs []int) {}

// PutWithTolerance implements core.Cache as a no-op (see Put).
func (c *Client) PutWithTolerance(q vec.Vector, docs []int, tol float32) {}

// Search implements core.Searcher: the routed node retrieval as a miss-
// path hook. Distances are positional (the node returns docs already
// ranked but does not expose scores over the wire), so the result is
// order-faithful but not metric-faithful; callers that need true
// distances — dynamic tolerance, re-ranking — should keep those features
// on the nodes.
func (c *Client) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, vectordb.ErrBadK
	}
	docs, _, err := c.Retrieve(q)
	if err != nil {
		return nil, err
	}
	if len(docs) > k {
		docs = docs[:k]
	}
	scored := make([]vec.Scored, len(docs))
	for i, id := range docs {
		scored[i] = vec.Scored{ID: id, Dist: float32(i)}
	}
	return scored, nil
}

// SearchContext implements core.ContextSearcher: Search with trace
// propagation (see RetrieveContext). Distances are positional, as in
// Search.
func (c *Client) SearchContext(ctx context.Context, q vec.Vector, k int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, vectordb.ErrBadK
	}
	docs, _, err := c.RetrieveContext(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(docs) > k {
		docs = docs[:k]
	}
	scored := make([]vec.Scored, len(docs))
	for i, id := range docs {
		scored[i] = vec.Scored{ID: id, Dist: float32(i)}
	}
	return scored, nil
}

// Rebalance swaps the ring for a re-weighted one over the same
// membership: a node's virtual-node count scales with its weight, so
// lowering an overloaded node's weight moves arcs — and the keys on
// them — to its neighbors without any node joining or leaving. Keys
// whose owner changes are served by a cold replica until its cache
// warms: a transient hit-rate dip, never an outage. Weights merge over the current ones (see
// Ring.WithWeights); validation errors leave routing untouched.
func (c *Client) Rebalance(weights map[string]float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	ring, err := c.ring.WithWeights(weights)
	if err != nil {
		return err
	}
	c.ring = ring
	c.log.Info("cluster: ring re-weighted", "nodes", len(weights))
	return nil
}

// Ring returns the current ring (immutable; a Rebalance installs a new
// one).
func (c *Client) Ring() *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring
}

// RouterStats returns the client-side routing counters.
func (c *Client) RouterStats() RouterStats {
	return RouterStats{
		Served:     c.served.Load(),
		Retried:    c.retried.Load(),
		Failed:     c.failed.Load(),
		RemoteHits: c.remoteHits.Load(),
	}
}

// Status snapshots every node: the router's health verdict, the node's
// own /v1/stats (per-node hit/miss, occupancy, batch pipeline), and this
// client's per-node submitter counters. The remote fetches fan out in
// parallel on the short-timeout admin clients, so one hung node delays a
// snapshot by the admin deadline, not the sum of data-path timeouts.
// Unreachable nodes report Reachable=false with zero remote stats.
func (c *Client) Status() []NodeStatus {
	c.mu.RLock()
	bases := c.ring.Nodes()
	nodes := make([]*node, len(bases))
	for i, b := range bases {
		nodes[i] = c.nodes[b]
	}
	c.mu.RUnlock()

	out := make([]NodeStatus, len(bases))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			st := NodeStatus{Node: n.base, Healthy: n.isHealthy(), Submit: n.sub.Stats()}
			if remote, err := n.admin.Stats(); err == nil {
				st.Reachable = true
				st.Remote = remote
			}
			out[i] = st
		}(i, n)
	}
	wg.Wait()
	return out
}

// StatsSnapshot delivers the aggregated counters, entry count, and
// capacity from ONE Status fan-out. The server's stats endpoint prefers
// this over calling Stats/Len/Capacity separately, each of which costs
// its own per-node fetch round.
func (c *Client) StatsSnapshot() (stats core.Stats, entries, capacity int) {
	for _, st := range c.Status() {
		stats.Hits += st.Remote.Hits
		stats.Misses += st.Remote.Misses
		stats.Evictions += st.Remote.Evictions
		entries += st.Remote.Entries
		capacity += st.Remote.Capacity
	}
	return stats, entries, capacity
}

// Len implements core.Cache: the summed entry count across reachable
// nodes (best effort — a down node contributes zero). Prefer
// StatsSnapshot when Stats and Capacity are wanted too.
func (c *Client) Len() int {
	_, entries, _ := c.StatsSnapshot()
	return entries
}

// Capacity implements core.Cache: the summed capacity across reachable
// nodes (best effort).
func (c *Client) Capacity() int {
	_, _, capacity := c.StatsSnapshot()
	return capacity
}

// Stats implements core.Cache by aggregating the nodes' own cache
// counters (best effort: unreachable nodes contribute nothing). Hits and
// misses are therefore the cache tier's view — a remote miss that the
// node's database answered still succeeded from the router's view; see
// RouterStats for the routing-level counters.
func (c *Client) Stats() core.Stats {
	stats, _, _ := c.StatsSnapshot()
	return stats
}

// Clear implements core.Cache by flushing every reachable node.
func (c *Client) Clear() {
	c.mu.RLock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.RUnlock()
	for _, n := range nodes {
		_ = n.client.Flush()
	}
}

// Entries implements core.Cache and returns nil: the router holds no
// lines; each node snapshots its own (proximity-server -snapshot).
func (c *Client) Entries() []core.Entry { return nil }

// Close waits for every node submitter's accepted calls, closes the
// connections to every node and fails subsequent operations with
// ErrClosed.
func (c *Client) Close() error {
	// Stop the adaptive loop FIRST, while the client is still open: an
	// in-flight tick completes against a working client (no spurious
	// controller failure recorded), and by the time the submitters
	// drain below no rebalance can race the shutdown.
	c.mu.RLock()
	ctrl, closed := c.ctrl, c.closed
	c.mu.RUnlock()
	if closed {
		return nil
	}
	if ctrl != nil {
		_ = ctrl.Close()
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		_ = n.close()
	}
	return nil
}
