// Package rebalance closes the loop between a load-imbalance signal and
// the knob that can act on it: it watches the signal and, when the
// imbalance stays above a threshold for a sustained window, triggers a
// corrective action.
//
// # Why a controller
//
// A cluster router consistent-hashes each query to its owning node, and
// a Zipf-skewed query stream — the paper's serving workload, and the
// regime RAGCache (arXiv:2404.12457) identifies as the scale bottleneck —
// can concentrate lookups on the nodes whose hash arcs hold the hot
// keys, so one node's queue dominates tail latency while others idle.
//
// # Design
//
// The controller is deliberately dumb and generic: it samples a Source
// (imbalance + entry count) on an interval, requires the breach to be
// sustained (one hot burst must not trigger a rebalance), respects a
// cooldown after every attempt (a rebalance that did not help must not
// retry in a tight loop), and delegates the correction to an Actuator.
// The one actuator is cluster.Balancer (internal/cluster): it derives
// per-node load shares from the cluster's aggregated hit/miss stats and
// shifts consistent-hash arcs off overloaded nodes by re-weighting their
// virtual-node counts (cluster.Client.Rebalance). If a node is
// unreachable or no load was observed, it declines (Outcome.Acted=false)
// and the cooldown prevents thrashing. The controller never blocks the
// serving path: sampling reads counters, and the action is a ring swap.
//
// An in-process sharded cache (internal/shard) has no actuator: its
// partition is fixed at construction, because on the repository
// benchmark's stream its imbalance never reached the default threshold
// and forced re-draws of its partitioner only cost hit rate.
//
// # Safety
//
// A ring re-weight only changes which node serves a key next: it can
// cause transient misses while the moved arcs warm up on their new
// owners, never a wrong answer — the cache is approximate by
// construction.
package rebalance
