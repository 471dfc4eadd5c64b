package cluster

import (
	"errors"
	"fmt"

	"proximity/internal/vec"
)

// Membership changes below are driven only by tests: a deployment fixes
// its node list at New and shifts load with Rebalance.

// ErrLastNode is WithoutNode's error for the last node: never an empty
// ring, whose Lookup would panic.
var ErrLastNode = errors.New("cluster: cannot remove the last node from the ring")

// WithNode returns a new ring with the node added at weight 1; existing
// weights are preserved.
func (r *Ring) WithNode(node string) (*Ring, error) {
	return NewWeightedRing(append(append([]string(nil), r.nodes...), node), r.weightMap())
}

// WithoutNode returns a new ring with the node removed, preserving the
// survivors' weights. Removing the last node returns ErrLastNode.
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
	return NewWeightedRing(rest, weights)
}

// AddNode joins a node to the ring. Keys whose arcs it takes over start
// routing to it immediately.
func (c *Client) AddNode(base string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	ring, err := c.ring.WithNode(base)
	if err != nil {
		return err
	}
	n, err := newNode(base)
	if err != nil {
		return err
	}
	c.ring = ring
	c.nodes[base] = n
	return nil
}

// RemoveNode leaves a node from the ring, draining its submitter and
// closing the router's connections to it. Requests in flight on the
// removed node fail over to the remaining replicas through the normal
// retry path.
func (c *Client) RemoveNode(base string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	ring, err := c.ring.WithoutNode(base)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	n := c.nodes[base]
	c.ring = ring
	delete(c.nodes, base)
	c.mu.Unlock()
	return n.close()
}

// RouteFor returns the replica order a query would try.
func (c *Client) RouteFor(q vec.Vector) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Lookup(c.KeyOf(q))
}

// Nodes returns the current ring membership, sorted.
func (c *Client) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Nodes()
}
