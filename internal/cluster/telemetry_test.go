package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"testing"

	"proximity/internal/telemetry"
)

// quietLogger drops routing logs so failure-injection tests don't spam
// the test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestClusterTracePropagation: one traced retrieval through a two-node
// cluster yields a single trace containing both the router's node_rpc
// span and the remote node's own stage timeline, every remote span
// labeled with the node that ran it.
func TestClusterTracePropagation(t *testing.T) {
	tel := telemetry.New(telemetry.Options{SampleEvery: 1, RingSize: 8})
	c, _, _ := startCluster(t, 2, Options{Seed: 3, Telemetry: tel, Logger: quietLogger()})
	q := queries(1, 9)[0]

	ctx, trace := tel.StartTrace(context.Background())
	if trace == nil {
		t.Fatal("1-in-1 sampling must return a live trace")
	}
	id := trace.ID()
	docs, _, err := c.RetrieveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no documents returned")
	}
	spans := trace.Spans()
	trace.Finish()

	var rpcNode string
	rpc, remote := 0, 0
	for _, sp := range spans {
		if sp.Stage == telemetry.StageNodeRPC {
			rpc++
			rpcNode = sp.Node
			if sp.Err != "" {
				t.Errorf("healthy node_rpc span carries error %q", sp.Err)
			}
		} else if sp.Node != "" {
			remote++
		}
	}
	if rpc != 1 {
		t.Fatalf("got %d node_rpc spans (%+v), want 1", rpc, spans)
	}
	if rpcNode == "" {
		t.Error("node_rpc span missing its node label")
	}
	// The node ran its own cache_lookup + db_search + cache_fill under
	// the routed trace ID; all of them must come back labeled with the
	// node the router called.
	if remote < 2 {
		t.Errorf("got %d remote stage spans (%+v), want >= 2", remote, spans)
	}
	for _, sp := range spans {
		if sp.Node != "" && sp.Node != rpcNode {
			t.Errorf("span %+v labeled %q, want %q", sp, sp.Node, rpcNode)
		}
	}

	recent := tel.Tracer.Recent(0)
	if len(recent) != 1 || recent[0].ID != id {
		t.Fatalf("ring = %+v, want one record under trace %#x", recent, id)
	}
	if n := stageCount(t, tel.Registry, telemetry.StageNodeRPC); n != 1 {
		t.Errorf("node_rpc histogram observations = %d, want 1", n)
	}
}

// TestClusterTraceSurvivesRetry: with the ring owner dead, a traced
// query fails over to the replica and the ONE resulting trace shows both
// attempts — a node_rpc span with the error against the dead owner,
// then a clean node_rpc plus the survivor's own spans.
func TestClusterTraceSurvivesRetry(t *testing.T) {
	tel := telemetry.New(telemetry.Options{SampleEvery: 1, RingSize: 8})
	c, nodes, _ := startCluster(t, 2, Options{
		Seed: 5, Replicas: 2, Telemetry: tel, Logger: quietLogger(),
	})
	q := queries(1, 11)[0]

	owner := c.Ring().Lookup(c.KeyOf(q))[0]
	for _, n := range nodes {
		if n.base == owner {
			_ = n.stop()
		}
	}

	ctx, trace := tel.StartTrace(context.Background())
	id := trace.ID()
	docs, _, err := c.RetrieveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no documents returned")
	}
	spans := trace.Spans()
	trace.Finish()

	var rpcs []telemetry.Span
	for _, sp := range spans {
		if sp.Stage == telemetry.StageNodeRPC {
			rpcs = append(rpcs, sp)
		}
	}
	if len(rpcs) != 2 {
		t.Fatalf("got %d node_rpc spans (%+v), want 2 (failed owner + survivor)", len(rpcs), spans)
	}
	if rpcs[0].Node != owner || rpcs[0].Err == "" {
		t.Errorf("first attempt = %+v, want error against owner %q", rpcs[0], owner)
	}
	if rpcs[1].Err != "" || rpcs[1].Node == owner || rpcs[1].Node == "" {
		t.Errorf("second attempt = %+v, want clean span on the other node", rpcs[1])
	}
	survivor := rpcs[1].Node
	served := 0
	for _, sp := range spans {
		if sp.Stage != telemetry.StageNodeRPC && sp.Node == survivor {
			served++
		}
	}
	if served == 0 {
		t.Errorf("no remote spans from survivor %q in %+v", survivor, spans)
	}

	recent := tel.Tracer.Recent(1)
	if len(recent) != 1 || recent[0].ID != id {
		t.Fatalf("ring = %+v, want the retried trace under one ID %#x", recent, id)
	}
	if n := stageCount(t, tel.Registry, telemetry.StageNodeRPC); n != 2 {
		t.Errorf("node_rpc histogram observations = %d, want 2", n)
	}
}

// stageCount reads stage's observation count from reg's Prometheus
// exposition, where the stage histograms are published.
func stageCount(t *testing.T, reg *telemetry.Registry, stage telemetry.Stage) int64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	series := fmt.Sprintf("%s_count{stage=%q} ", telemetry.MetricStageLatencySeconds, stage)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("the exposition has no %s series", series)
	return 0
}
