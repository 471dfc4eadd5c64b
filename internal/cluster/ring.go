package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// DefaultVNodes is the virtual-node count per unit of weight when
// Options.VNodes is zero. Each node owns Weight·VNodes arcs of the hash
// circle, smoothing the load split: with ~100 vnodes the expected
// per-node share deviates from its weight share by only a few percent,
// and a leaving node's arcs scatter across all survivors instead of
// dumping onto one successor.
const DefaultVNodes = 100

// Weight bounds. Weights outside this range stop approximating "share of
// the keyspace" — a node at 1/16th weight holds so few arcs that its
// share is mostly variance — so the ring rejects them rather than let a
// runaway controller starve or flood a node.
const (
	MinWeight = 1.0 / 16
	MaxWeight = 16.0
)

// Typed membership errors. WithoutNode returns ErrLastNode (never an
// empty ring, whose Primary/Lookup would panic); constructors return
// ErrEmptyRing for an empty node list.
var (
	ErrEmptyRing = errors.New("cluster: ring requires at least one node")
	ErrLastNode  = errors.New("cluster: cannot remove the last node from the ring")
)

// Ring is an immutable consistent-hash ring over named, weighted nodes.
// Keys are 32-bit LSH signatures, the routing keys the in-process
// partitioner also uses; each key owns the arc ending at the next
// virtual-node point clockwise. A node's virtual-node count scales with
// its weight, so re-weighting shifts arcs between nodes without changing
// membership — the network-tier rebalancing lever. Membership and weight changes build a new Ring
// (WithNode/WithoutNode/WithWeights), so lookups never lock.
type Ring struct {
	vnodes  int
	nodes   []string  // sorted distinct node IDs
	weights []float64 // parallel to nodes
	points  []ringPoint
}

// ringPoint is one virtual node: a position on the circle owned by a real
// node.
type ringPoint struct {
	pos  uint64
	node int // index into nodes
}

// NewRing builds a unit-weight ring over the given node IDs with vnodes
// virtual nodes each (0 = DefaultVNodes). Node IDs must be non-empty and
// distinct; order does not matter — the same membership always builds
// the same ring.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	return NewWeightedRing(nodes, nil, vnodes)
}

// NewWeightedRing is NewRing with per-node weights: a node's virtual-node
// count is round(weight · vnodes), at least 1, so a weight-2 node owns
// roughly twice the keyspace of a weight-1 node. Nodes absent from the
// weights map get weight 1; weights must lie in [MinWeight, MaxWeight]
// and name known nodes. A nil map is the unit-weight ring.
func NewWeightedRing(nodes []string, weights map[string]float64, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, ErrEmptyRing
	}
	if vnodes < 0 {
		return nil, fmt.Errorf("cluster: vnode count must be non-negative, got %d", vnodes)
	}
	if vnodes == 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n)
		}
	}
	r := &Ring{
		vnodes:  vnodes,
		nodes:   sorted,
		weights: make([]float64, len(sorted)),
	}
	for i := range r.weights {
		r.weights[i] = 1
	}
	for node, w := range weights {
		i := sort.SearchStrings(r.nodes, node)
		if i >= len(r.nodes) || r.nodes[i] != node {
			return nil, fmt.Errorf("cluster: weight for unknown node %q", node)
		}
		if math.IsNaN(w) || w < MinWeight || w > MaxWeight {
			return nil, fmt.Errorf("cluster: weight %v for node %q outside [%v, %v]",
				w, node, MinWeight, MaxWeight)
		}
		r.weights[i] = w
	}
	for ni, n := range r.nodes {
		for v := 0; v < vnodeCount(r.weights[ni], vnodes); v++ {
			r.points = append(r.points, ringPoint{pos: vnodePos(n, v), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		// Identical positions (astronomically rare) tie-break by node so
		// the ring stays a pure function of its membership.
		return a.node < b.node
	})
	return r, nil
}

// vnodeCount converts a weight into a virtual-node count: proportional,
// rounded, never zero (every member must own at least one arc or Lookup
// could not reach it).
func vnodeCount(weight float64, vnodes int) int {
	n := int(weight*float64(vnodes) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// weightMap snapshots the ring's weights as the map form the With*
// builders consume.
func (r *Ring) weightMap() map[string]float64 {
	m := make(map[string]float64, len(r.nodes))
	for i, n := range r.nodes {
		m[n] = r.weights[i]
	}
	return m
}

// WithNode returns a new ring with the node added at weight 1; existing
// weights are preserved.
func (r *Ring) WithNode(node string) (*Ring, error) {
	return NewWeightedRing(append(append([]string(nil), r.nodes...), node), r.weightMap(), r.vnodes)
}

// WithoutNode returns a new ring with the node removed, preserving the
// survivors' weights. Removing the last node returns ErrLastNode — never
// an empty ring.
func (r *Ring) WithoutNode(node string) (*Ring, error) {
	rest := make([]string, 0, len(r.nodes))
	weights := r.weightMap()
	delete(weights, node)
	for _, n := range r.nodes {
		if n != node {
			rest = append(rest, n)
		}
	}
	if len(rest) == len(r.nodes) {
		return nil, fmt.Errorf("cluster: node %q not in ring", node)
	}
	if len(rest) == 0 {
		return nil, fmt.Errorf("cluster: removing %q: %w", node, ErrLastNode)
	}
	return NewWeightedRing(rest, weights, r.vnodes)
}

// WithWeights returns a re-weighted ring over the same membership. Nodes
// absent from the map keep their current weight; see NewWeightedRing for
// validation.
func (r *Ring) WithWeights(weights map[string]float64) (*Ring, error) {
	merged := r.weightMap()
	for n, w := range weights {
		merged[n] = w
	}
	return NewWeightedRing(r.nodes, merged, r.vnodes)
}

// Nodes returns the ring membership, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Weights returns the per-node weights.
func (r *Ring) Weights() map[string]float64 { return r.weightMap() }

// Weight returns one node's weight (ok=false for a non-member).
func (r *Ring) Weight(node string) (float64, bool) {
	i := sort.SearchStrings(r.nodes, node)
	if i >= len(r.nodes) || r.nodes[i] != node {
		return 0, false
	}
	return r.weights[i], true
}

// VNodesFor returns the virtual-node count a node owns (0 for a
// non-member) — weight made concrete, for diagnostics and the
// balancer's moved-arc accounting.
func (r *Ring) VNodesFor(node string) int {
	w, ok := r.Weight(node)
	if !ok {
		return 0
	}
	return vnodeCount(w, r.vnodes)
}

// Len returns the number of real nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// VNodes returns the virtual-node count per unit of weight.
func (r *Ring) VNodes() int { return r.vnodes }

// Primary returns the node that owns the key: the owner of the first
// virtual node at or clockwise of the key's position.
func (r *Ring) Primary(key uint32) string {
	return r.nodes[r.points[r.start(key)].node]
}

// Lookup returns every node in replica order for the key: the primary
// first, then each distinct node encountered walking the ring clockwise.
// Successive entries are the retry targets when earlier ones fail — the
// walk visits all nodes, so a caller can degrade through the whole
// cluster.
func (r *Ring) Lookup(key uint32) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i, start := 0, r.start(key); i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// start returns the index of the first virtual node at or clockwise of
// the key's ring position.
func (r *Ring) start(key uint32) int {
	pos := keyPos(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap past the last point back to the ring start
	}
	return i
}

// vnodePos places virtual node v of a node on the circle. FNV alone has
// weak avalanche on short, similar inputs ("n1#0", "n1#1", …), which
// visibly skews arc lengths; the splitmix64 finalizer restores a uniform
// spread.
func vnodePos(node string, v int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	_, _ = h.Write([]byte{'#', byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	return mix64(h.Sum64())
}

// keyPos spreads a 32-bit routing key over the 64-bit circle. An LSH
// signature occupies only its low shard.DefaultSignatureBits bits, so the
// key is re-mixed.
func keyPos(key uint32) uint64 {
	return mix64(uint64(key))
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on
// 64-bit words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
