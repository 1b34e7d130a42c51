package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/trace"
	"agentloc/internal/transport"
)

// numNodes is the cluster size: node-0 hosts the HAgent and every client;
// the IAgents live on node-1 and node-2, so every IAgent call crosses TCP
// while whois stays at the caller's own LHAgent, as the paper places it.
const numNodes = 3

// baseLeaves is the leaf count every cluster is pre-split to.
const baseLeaves = 4

// registerBatch is the entry count of one bulk-registration RPC.
const registerBatch = 1024

var nodeIDs = func() []platform.NodeID {
	out := make([]platform.NodeID, numNodes)
	for i := range out {
		out[i] = platform.NodeID(fmt.Sprintf("node-%d", i))
	}
	return out
}()

// clusterSpec shapes one in-process TCP cluster.
type clusterSpec struct {
	// durableDir, when set, gives every node a snapshot.Store under it.
	// Registration runs with per-append fsync off and is flushed once;
	// SyncOnAppend is switched on before any timed operation.
	durableDir string
	// onSpan, when set, attaches a span recorder to each node and receives
	// every span it completes. The recorders never start a sampled root of
	// their own: the benchmark decides which operations are traced by
	// opening a sampled root around them.
	onSpan func(trace.Span)
}

// cluster is a deployed location mechanism on numNodes TCP-linked nodes.
type cluster struct {
	links  []*transport.TCP
	nodes  []*platform.Node
	stores []*snapshot.Store
	cfg    core.Config
	svc    *core.Service
	leaves []ids.AgentID // the pre-split leaves, in split order
	ver    uint64        // hash version after set-up
}

// benchConfig is the mechanism configuration of every benchmark cluster:
// zero simulated service time, and nothing that runs on a timer. Rate
// thresholds are out of reach and the IAgents' check loop sleeps an hour,
// so every rehash is one the benchmark requested; heartbeats, the
// persister and the update batcher are off.
func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.HAgentNode = nodeIDs[0]
	// The first IAgent lands on PlacementNodes[0] and split children take
	// the list round-robin, so this order puts the four pre-split leaves
	// two on node-1 and two on node-2.
	cfg.PlacementNodes = []platform.NodeID{nodeIDs[1], nodeIDs[1], nodeIDs[2], nodeIDs[2]}
	cfg.TMax = 1e12
	cfg.TMin = 0
	cfg.CheckInterval = time.Hour
	cfg.MergeGrace = time.Hour
	cfg.IAgentServiceTime = 0
	cfg.CallTimeout = 10 * time.Second
	return cfg
}

// newCluster brings up the nodes and deploys the mechanism with one leaf.
func newCluster(spec clusterSpec) (*cluster, error) {
	c := &cluster{cfg: benchConfig()}
	for range nodeIDs {
		link, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
		if err != nil {
			c.close()
			return nil, err
		}
		c.links = append(c.links, link)
	}
	for i, link := range c.links {
		for j, id := range nodeIDs {
			if i != j {
				link.AddRoute(id.Addr(), c.links[j].ListenAddr())
			}
		}
	}
	for i, id := range nodeIDs {
		ncfg := platform.Config{ID: id, Link: c.links[i]}
		if spec.onSpan != nil {
			rec := trace.NewRecorder(string(id), 1, math.MaxInt)
			rec.SetHooks(spec.onSpan, nil)
			ncfg.Tracer = rec
		}
		if spec.durableDir != "" {
			st, err := snapshot.Open(filepath.Join(spec.durableDir, string(id)), nil)
			if err != nil {
				c.close()
				return nil, err
			}
			c.stores = append(c.stores, st)
			ncfg.Durable = st
		}
		n, err := platform.NewNode(ncfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	svc, err := core.Deploy(context.Background(), c.cfg, c.nodes)
	if err != nil {
		c.close()
		return nil, err
	}
	c.svc = svc
	c.ver = 1
	return c, nil
}

// rehash sends one forced split or merge request to the HAgent, from
// node-0, and returns the new hash version.
func (c *cluster) rehash(ctx context.Context, kind string, iagent ids.AgentID, ver uint64) (uint64, error) {
	var req any
	if kind == core.KindRequestSplit {
		req = core.RequestSplitReq{IAgent: iagent, HashVersion: ver}
	} else {
		req = core.RequestMergeReq{IAgent: iagent, HashVersion: ver}
	}
	var resp core.RehashResp
	if err := c.nodes[0].CallAgent(ctx, c.cfg.HAgentNode, c.cfg.HAgent, kind, req, &resp); err != nil {
		return 0, err
	}
	if resp.Status != core.StatusOK {
		return 0, fmt.Errorf("%s %s at v%d: status %v", kind, iagent, ver, resp.Status)
	}
	return resp.HashVersion, nil
}

// hashState pulls the HAgent's primary hash state.
func (c *cluster) hashState(ctx context.Context) (*core.State, error) {
	var resp core.GetHashResp
	if err := c.nodes[0].CallAgent(ctx, c.cfg.HAgentNode, c.cfg.HAgent, core.KindGetHash, core.GetHashReq{}, &resp); err != nil {
		return nil, err
	}
	return core.FromDTO(resp.State)
}

// newLeaf returns the leaf present in after but not in before.
func newLeaf(before, after *core.State) (ids.AgentID, error) {
	for ia := range after.Locations {
		if _, ok := before.Locations[ia]; !ok {
			return ia, nil
		}
	}
	return "", fmt.Errorf("no new leaf between v%d and v%d", before.Version(), after.Version())
}

// preSplit grows the single initial leaf to baseLeaves leaves through the
// HAgent's split RPC: iagent-1 splits, then each half splits once more.
func (c *cluster) preSplit(ctx context.Context) error {
	st, err := c.hashState(ctx)
	if err != nil {
		return err
	}
	c.leaves = []ids.AgentID{"iagent-1"}
	for _, i := range []int{0, 0, 1} {
		if c.ver, err = c.rehash(ctx, core.KindRequestSplit, c.leaves[i], c.ver); err != nil {
			return err
		}
		next, err := c.hashState(ctx)
		if err != nil {
			return err
		}
		leaf, err := newLeaf(st, next)
		if err != nil {
			return err
		}
		c.leaves = append(c.leaves, leaf)
		st = next
	}
	if len(st.Locations) != baseLeaves {
		return fmt.Errorf("pre-split left %d leaves, want %d", len(st.Locations), baseLeaves)
	}
	return nil
}

// load is the set-up after deploy: pre-split, then registration of pop.
func (c *cluster) load(ctx context.Context, pop *population) error {
	if err := c.preSplit(ctx); err != nil {
		return err
	}
	return c.register(ctx, pop)
}

// register bulk-loads the population, with its tags if it has any: one
// update-batch RPC per registerBatch agents of the same leaf, every entry
// acked individually. Each agent keeps the assignment its registration
// went to, as an agent keeps the one Register returns.
func (c *cluster) register(ctx context.Context, pop *population) error {
	st, err := c.hashState(ctx)
	if err != nil {
		return err
	}
	type dest struct {
		iagent ids.AgentID
		node   platform.NodeID
	}
	batches := make(map[dest][]core.UpdateReq)
	flush := func(d dest) error {
		req := core.UpdateBatchReq{Updates: batches[d]}
		var resp core.UpdateBatchResp
		if err := c.nodes[0].CallAgent(ctx, d.node, d.iagent, core.KindUpdateBatch, req, &resp); err != nil {
			return err
		}
		if len(resp.Acks) != len(req.Updates) {
			return fmt.Errorf("register: %d acks for %d updates", len(resp.Acks), len(req.Updates))
		}
		for i, ack := range resp.Acks {
			if ack.Status != core.StatusOK {
				return fmt.Errorf("register %s: status %v", req.Updates[i].Agent, ack.Status)
			}
		}
		batches[d] = batches[d][:0]
		return nil
	}
	for i, a := range pop.agents {
		ia, node, err := st.OwnerOf(a)
		if err != nil {
			return err
		}
		d := dest{ia, node}
		pop.assign[i] = core.Assignment{IAgent: ia, Node: node, HashVersion: st.Version()}
		u := core.UpdateReq{Agent: a, Node: nodeIDs[pop.home[i]]}
		if pop.tags != nil {
			u.Capabilities = pop.tags[i]
		}
		batches[d] = append(batches[d], u)
		if len(batches[d]) == registerBatch {
			if err := flush(d); err != nil {
				return err
			}
		}
	}
	for d, b := range batches {
		if len(b) > 0 {
			if err := flush(d); err != nil {
				return err
			}
		}
	}
	// Durable nodes: the bulk load is flushed once, then every later
	// acknowledged update is fsynced before its ack.
	for _, s := range c.stores {
		if err := s.Sync(); err != nil {
			return err
		}
		s.SyncOnAppend = true
	}
	return nil
}

// warm dials every node pair and brings every LHAgent's hash copy up to
// the current version, so no timed operation pays for either.
func (c *cluster) warm(ctx context.Context) error {
	for _, from := range c.nodes {
		for _, to := range nodeIDs {
			if err := from.Ping(ctx, to); err != nil {
				return err
			}
		}
		var resp core.RefreshResp
		req := core.RefreshReq{MinVersion: c.ver}
		if err := from.CallAgent(ctx, from.ID(), core.LHAgentID(from.ID()), core.KindRefresh, req, &resp); err != nil {
			return err
		}
	}
	return nil
}

// client returns a protocol client speaking from node-0.
func (c *cluster) client() *core.Client { return c.svc.ClientFor(c.nodes[0]) }

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, l := range c.links {
		l.Close()
	}
	for _, s := range c.stores {
		s.Close()
		os.RemoveAll(s.Dir())
	}
}
