package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"agentloc/internal/bitstr"
	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/trace"
)

// Cluster-level ladder rows run on probe clusters of their own, shaped
// like a workload's cluster, with one sequential client and every probe
// operation traced, so the rows do not depend on which workload the
// traced run was for.

const (
	probeCycles      = 3   // split/merge cycles of the rehash probe
	locatesPerRehash = 200 // traced locates after each rehash
)

// probeCluster sets up a cluster for pop with every span fed to agg.
func probeCluster(pop *population, agg *spanAgg) (*cluster, error) {
	c, err := newCluster(clusterSpec{onSpan: agg.observe})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := c.load(ctx, pop); err != nil {
		c.close()
		return nil, err
	}
	if err := c.warm(ctx); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// clusterRows measures the hash tree, the core servers, the client
// protocol and the rehash path on a cluster shaped like rehash_cycle's.
func clusterRows(seed int64, r *rows) error {
	pop := newPopulation(workloads["rehash_cycle"].agents, workers, seed, false)
	agg := newSpanAgg()
	c, err := probeCluster(pop, agg)
	if err != nil {
		return err
	}
	defer c.close()
	ctx := context.Background()
	st, err := c.hashState(ctx)
	if err != nil {
		return err
	}

	// hashtree: owner lookup and the framed serialization.
	const sample = 4096
	bins := make([]bitstr.Bits, sample)
	for i := range bins {
		bins[i] = pop.agents[i].Binary()
	}
	k := 0
	cst := r.measure(func() error {
		_, err := st.Tree.Lookup(bins[k%sample])
		k++
		return err
	})
	r.put("hashtree.lookup_ns", cst.ns, "ns")
	cst = r.measure(func() error {
		_, err := st.Tree.Serialize()
		return err
	})
	r.put("hashtree.serialize_us", cst.ns/1e3, "us")

	// core servers, each called directly through Node.CallAgent from
	// node-0: whois at the local LHAgent, locate and update at the owning
	// IAgent across TCP.
	type owned struct {
		agent  ids.AgentID
		iagent ids.AgentID
		at     platform.NodeID
		home   platform.NodeID
	}
	targets := make([]owned, sample)
	for i := range targets {
		ia, node, err := st.OwnerOf(pop.agents[i])
		if err != nil {
			return err
		}
		targets[i] = owned{pop.agents[i], ia, node, nodeIDs[pop.home[i]]}
	}
	n0 := c.nodes[0]
	cst = r.measure(func() error {
		var resp core.WhoisResp
		t := targets[k%sample]
		k++
		return n0.CallAgent(ctx, n0.ID(), core.LHAgentID(n0.ID()), core.KindWhois, core.WhoisReq{Target: t.agent}, &resp)
	})
	r.put("core.whois_us", cst.ns/1e3, "us")
	cst = r.measure(func() error {
		t := targets[k%sample]
		k++
		var resp core.LocateResp
		if err := n0.CallAgent(ctx, t.at, t.iagent, core.KindLocate, core.LocateReq{Agent: t.agent}, &resp); err != nil {
			return err
		}
		if resp.Status != core.StatusOK || resp.Node != t.home {
			return fmt.Errorf("core locate %s: %v %s, want %s", t.agent, resp.Status, resp.Node, t.home)
		}
		return nil
	})
	r.put("core.iagent_locate_us", cst.ns/1e3, "us")
	cst = r.measure(func() error {
		t := targets[k%sample]
		k++
		var ack core.Ack
		if err := n0.CallAgent(ctx, t.at, t.iagent, core.KindUpdate, core.UpdateReq{Agent: t.agent, Node: t.home}, &ack); err != nil {
			return err
		}
		if ack.Status != core.StatusOK {
			return fmt.Errorf("core update %s: %v", t.agent, ack.Status)
		}
		return nil
	})
	r.put("core.iagent_update_us", cst.ns/1e3, "us")
	cached := c.cfg
	cached.LocateCacheTTL = time.Hour
	ccl := core.NewClient(core.NodeCaller{N: n0}, cached)
	const hot = 1024
	for _, t := range targets[:hot] {
		if _, err := ccl.Locate(ctx, t.agent); err != nil {
			return err
		}
	}
	cst = r.measure(func() error {
		t := targets[k%hot]
		k++
		node, err := ccl.Locate(ctx, t.agent)
		if err == nil && node != t.home {
			err = fmt.Errorf("cached locate %s = %s, want %s", t.agent, node, t.home)
		}
		return err
	})
	r.put("core.cached_locate_ns", cst.ns, "ns")

	// Client protocol and rehash: forced split/merge cycles, each rehash
	// followed by a run of traced locates that meet the stale hash copy.
	bench := trace.NewRecorder("bench", 1, 1)
	bench.SetHooks(agg.observe, nil)
	agg.reset()
	cl := c.client()
	rng := rand.New(rand.NewSource(seed))
	cycle := &rehashCycle{c: c, base: c.leaves, ver: c.ver, prev: st}
	var splitMs, mergeMs []float64
	var moved int
	rehashes := probeCycles * 2 * len(c.leaves)
	for r := 0; r < rehashes; r++ {
		before, split := cycle.prev, cycle.pos < len(cycle.base)
		start := time.Now()
		if _, err := cycle.call(ctx); err != nil {
			return err
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3
		if err := cycle.advance(ctx); err != nil {
			return err
		}
		if split {
			splitMs = append(splitMs, ms)
		} else {
			mergeMs = append(mergeMs, ms)
		}
		for _, a := range pop.agents {
			was, _, _ := before.OwnerOf(a)
			now, _, _ := cycle.prev.OwnerOf(a)
			if was != now {
				moved++
			}
		}
		for j := 0; j < locatesPerRehash; j++ {
			i := rng.Intn(len(pop.agents))
			sp := bench.StartRoot("bench", "locate")
			node, err := cl.Locate(trace.ContextWith(ctx, sp.Context()), pop.agents[i])
			sp.End(err)
			if err != nil {
				return err
			}
			if node != nodeIDs[pop.home[i]] {
				return fmt.Errorf("probe locate %s = %s, want %s", pop.agents[i], node, nodeIDs[pop.home[i]])
			}
		}
	}
	r.put("rehash.split_ms", median(splitMs), "ms")
	r.put("rehash.merge_ms", median(mergeMs), "ms")
	r.put("rehash.handoff_entries", float64(moved)/float64(rehashes), "count")
	locates := agg.get("client/locate").n
	attempts := agg.get("client/iagent.locate").n
	r.put("rehash.stale_ops_per_rehash", float64(attempts-locates)/float64(rehashes), "count")
	r.put("client.rpcs_per_locate", float64(agg.rpcsSum)/float64(locates), "count")
	r.put("client.retries_per_kop", 1e3*float64(attempts-locates)/float64(locates), "count")
	r.put("client.refreshes_per_kop", 1e3*float64(agg.get("client/refresh").n)/float64(locates), "count")
	r.put("client.backoff_us_per_op", float64(agg.get("client/backoff").total.Microseconds())/float64(locates), "us")
	r.put("client.whois_self_us", agg.meanSelfMicros("client/whois"), "us")
	r.put("client.iagent_locate_self_us", agg.meanSelfMicros("client/iagent.locate"), "us")
	return nil
}

// discoverRows measures the capability index alone, then traced Discover
// scatter-gathers on a cluster shaped like discover_tags's. The RPC count
// comes from the server-side spans, one per delivered request.
func discoverRows(seed int64, r *rows) error {
	pop := newPopulation(workloads["discover_tags"].agents, workers, seed, true)
	qs := newQueries(pop, queryCount, seed)
	capindexRows(pop, qs, r)
	agg := newSpanAgg()
	c, err := probeCluster(pop, agg)
	if err != nil {
		return err
	}
	defer c.close()
	bench := trace.NewRecorder("bench", 1, 1)
	bench.SetHooks(agg.observe, nil)
	agg.reset()
	ctx := context.Background()
	cl := c.client()
	matches := 0
	for _, q := range qs {
		sp := bench.StartRoot("bench", "discover")
		got, err := cl.Discover(trace.ContextWith(ctx, sp.Context()), core.Query{Caps: q.caps, Limit: discoverLimit})
		sp.End(err)
		if err != nil {
			return err
		}
		if !checkDiscover(q, got) {
			return fmt.Errorf("probe discover %v: %d matches, want %d", q.caps, len(got), len(q.expect))
		}
		matches += len(got)
	}
	queries := len(qs)
	r.put("discover.leaves_self_us", agg.meanSelfMicros("client/leaves"), "us")
	r.put("discover.leaf_call_us", agg.meanMicros("client/iagent.discover"), "us")
	r.put("discover.rpcs_per_query", float64(agg.count("server"))/float64(queries), "count")
	r.put("discover.matches_per_query", float64(matches)/float64(queries), "count")
	return nil
}
