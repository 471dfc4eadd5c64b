package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"proximity/internal/rebalance"
)

// balancerGain tempers the proportional correction: a node's weight is
// multiplied by (mean load / its load)^balancerGain. 0.5 halves the
// correction per step, trading convergence speed for stability — the
// load observed after a re-weight shifts, so a full-gain step tends to
// overshoot and oscillate.
const balancerGain = 0.5

// Balancer adapts a cluster Client to the rebalance controller: Sample
// derives a load-imbalance signal from the per-node lookup counters the
// stats snapshot already aggregates, and Rebalance shifts consistent-hash
// arcs off overloaded nodes by re-weighting their virtual-node counts.
// Loads are measured as deltas since the previous rebalance, so the
// signal tracks the current traffic mix rather than all history. Safe
// for concurrent use; the controller serializes actuations itself.
type Balancer struct {
	c *Client

	mu sync.Mutex
	// baseline holds each node's cumulative lookup count at the last
	// rebalance (or construction), keyed by node base URL.
	baseline map[string]int64
}

var (
	_ rebalance.Source   = (*Balancer)(nil)
	_ rebalance.Actuator = (*Balancer)(nil)
)

// NewBalancer wires a ring re-weighting actuator over the client.
func NewBalancer(c *Client) (*Balancer, error) {
	if c == nil {
		return nil, fmt.Errorf("cluster: balancer requires a client")
	}
	return &Balancer{c: c, baseline: make(map[string]int64)}, nil
}

// nodeLoad is one node's slice of a load snapshot.
type nodeLoad struct {
	node      string
	lookups   int64 // cumulative hits+misses from the node's own stats
	delta     int64 // lookups since the baseline
	entries   int
	reachable bool
}

// snapshot fans one Status round out and derives per-node deltas. Two
// no-signal cases are normalized here rather than poisoning the math
// downstream: an unreachable node contributes zero load (its counters
// simply were not read), and a reachable node whose cumulative counters
// dropped BELOW the baseline has restarted — its baseline re-anchors to
// zero so the load since restart is the signal, not a huge negative
// delta that Rebalance would convert into a near-maximal weight boost
// for a cold-cache node.
func (b *Balancer) snapshot() []nodeLoad {
	st := b.c.Status()
	b.mu.Lock()
	defer b.mu.Unlock()
	loads := make([]nodeLoad, len(st))
	for i, ns := range st {
		cum := ns.Remote.Hits + ns.Remote.Misses
		base := b.baseline[ns.Node]
		delta := cum - base
		switch {
		case !ns.Reachable:
			delta = 0
		case cum < base:
			b.baseline[ns.Node] = 0
			delta = cum
		}
		loads[i] = nodeLoad{
			node:      ns.Node,
			lookups:   cum,
			delta:     delta,
			entries:   ns.Remote.Entries,
			reachable: ns.Reachable,
		}
	}
	return loads
}

// imbalanceOf mirrors the shard tier's definition: max node load over
// mean node load, pinned to 1.0 when there is no load signal or a
// single node. Deltas can go negative when a node restarts (its
// cumulative counters reset below the baseline); a non-positive total
// carries no signal, so it also pins to 1.0 rather than produce a
// nonsensical negative imbalance.
func imbalanceOf(loads []nodeLoad) float64 {
	var total, maxDelta int64
	for _, l := range loads {
		total += l.delta
		if l.delta > maxDelta {
			maxDelta = l.delta
		}
	}
	if total <= 0 || len(loads) <= 1 {
		return 1
	}
	return float64(maxDelta) / (float64(total) / float64(len(loads)))
}

// Sample implements rebalance.Source: the per-node lookup imbalance
// since the last rebalance, plus the cluster-wide entry count.
func (b *Balancer) Sample() rebalance.Sample {
	loads := b.snapshot()
	entries := 0
	for _, l := range loads {
		entries += l.entries
	}
	return rebalance.Sample{Imbalance: imbalanceOf(loads), Entries: entries}
}

// Rebalance implements rebalance.Actuator: multiply each node's ring
// weight by (mean load / its load)^balancerGain — overloaded nodes shed
// arcs, underloaded nodes absorb them — clamped to the ring's weight
// bounds. It declines (Acted=false) when any node is unreachable (re-weighting
// on partial counters would punish the node that failed to report) or
// when the observed load carries no signal. Unlike the shard tier,
// Outcome.After cannot be measured at action time — the new arc layout
// only shows in future traffic — so it is a PREDICTION (each node's
// observed load scaled by its surviving keyspace share) and the Detail
// string labels it as such.
func (b *Balancer) Rebalance(rebalance.Sample) (rebalance.Outcome, error) {
	loads := b.snapshot()
	// An unreachable node contributes a garbage delta; score the signal
	// over the reachable subset so even a declined outcome reports an
	// in-domain imbalance.
	reachable := make([]nodeLoad, 0, len(loads))
	for _, l := range loads {
		if l.reachable {
			reachable = append(reachable, l)
		}
	}
	before := imbalanceOf(reachable)
	if len(reachable) < len(loads) {
		for _, l := range loads {
			if !l.reachable {
				return rebalance.Outcome{
					Before: before, After: before,
					Detail: fmt.Sprintf("declined: node %s unreachable, load snapshot incomplete", l.node),
				}, nil
			}
		}
	}
	var total int64
	for _, l := range loads {
		total += l.delta
	}
	if total <= 0 || len(loads) <= 1 {
		return rebalance.Outcome{
			Before: before, After: before,
			Detail: "declined: no load observed since the last rebalance",
		}, nil
	}

	mean := float64(total) / float64(len(loads))
	ring := b.c.Ring()
	olds := make([]float64, len(loads))
	raw := make([]float64, len(loads))
	logSum := 0.0
	for i, l := range loads {
		old, ok := ring.Weight(l.node)
		if !ok {
			old = 1
		}
		olds[i] = old
		// A zero-load node gets the full boost the clamp allows; floor
		// the ratio so the exponent never sees a division by zero.
		ratio := mean / math.Max(float64(l.delta), 1)
		raw[i] = old * math.Pow(ratio, balancerGain)
		logSum += math.Log(raw[i])
	}
	// Renormalize by the geometric mean: only weight RATIOS route keys,
	// and by AM≥GM the un-normalized update strictly inflates total
	// log-weight on every unequal load, ratcheting the whole vector
	// toward the MaxWeight clamp (where correction headroom collapses
	// and a later joiner at weight 1 would own a sliver of the
	// keyspace). Centering at geometric mean 1 keeps the identical
	// relative effect with full headroom on both sides.
	gm := math.Exp(logSum / float64(len(loads)))
	weights := make(map[string]float64, len(loads))
	var detail []string
	predMax, predTotal := 0.0, 0.0
	for i, l := range loads {
		w := raw[i] / gm
		w = math.Min(math.Max(w, MinWeight), MaxWeight)
		weights[l.node] = w
		// Predicted post-rebalance load: the node keeps its observed
		// load scaled by how much of its keyspace share survives.
		pl := float64(l.delta) * w / math.Max(olds[i], MinWeight)
		predTotal += pl
		if pl > predMax {
			predMax = pl
		}
		detail = append(detail, fmt.Sprintf("%s %.2f->%.2f", l.node, olds[i], w))
	}
	if err := b.c.Rebalance(weights); err != nil {
		return rebalance.Outcome{}, err
	}
	after := 1.0
	if predTotal > 0 && len(loads) > 1 {
		after = predMax / (predTotal / float64(len(loads)))
	}
	newRing := b.c.Ring()
	moved := 0
	for _, l := range loads {
		moved += absInt(newRing.VNodesFor(l.node) - ring.VNodesFor(l.node))
	}

	// Future deltas measure the new arrangement, not old history.
	b.mu.Lock()
	for _, l := range loads {
		b.baseline[l.node] = l.lookups
	}
	b.mu.Unlock()

	sort.Strings(detail)
	return rebalance.Outcome{
		Acted:  true,
		Before: before,
		After:  after,
		Moved:  moved,
		Detail: "reweighted (after is predicted) " + strings.Join(detail, ", "),
	}, nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
