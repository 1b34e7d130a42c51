package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"agentloc/internal/capindex"
	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/loctable"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// The per-layer ladder: each row times calls into one layer's public
// functions in isolation, bottom up — table, codec, transport, platform,
// core servers, client protocol, rehash, hash tree, durability, capability
// index and scatter. README.md lists which end-to-end metric each row
// should move, on which workload.

// rowTime is the benchmark time of one micro row: testing.Benchmark grows
// the call count until a run of the row takes at least this long.
const rowTime = 200 * time.Millisecond

// cost is one micro row's measurement.
type cost struct {
	ns, allocs, bytes float64 // per operation
}

// rows collects the ladder's metrics and its first error. Once an error is
// recorded, measure does nothing and the ladder fails with that error.
type rows struct {
	m   map[string]metric
	err error
}

func (r *rows) put(name string, v float64, unit string) { r.m[name] = metric{v, unit} }

func (r *rows) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// measure times fn with testing.Benchmark. The first error fn returns ends
// the measurement and is recorded.
func (r *rows) measure(fn func() error) cost {
	if r.err != nil {
		return cost{}
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				r.fail(err)
				b.FailNow()
			}
		}
	})
	if r.err != nil || res.N == 0 {
		return cost{}
	}
	n := float64(res.N)
	return cost{
		ns:     float64(res.T.Nanoseconds()) / n,
		allocs: float64(res.MemAllocs) / n,
		bytes:  float64(res.MemBytes) / n,
	}
}

// roundTrip encodes v with the hot-path codec and decodes it into out,
// returning the encoded size.
func roundTrip(v, out any) (int, error) {
	payload, err := transport.EncodeV(v, wire.MsgVersion)
	if err != nil {
		return 0, err
	}
	return len(payload), transport.Decode(payload, out)
}

// roundTrips round-trips a request and a response.
func roundTrips(req, reqOut, resp, respOut any) error {
	if _, err := roundTrip(req, reqOut); err != nil {
		return err
	}
	_, err := roundTrip(resp, respOut)
	return err
}

// ladder measures every per-layer row.
func ladder(seed int64, dir string) (map[string]metric, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", rowTime.String()); err != nil {
		return nil, err
	}
	r := &rows{m: map[string]metric{}}
	rng := rand.New(rand.NewSource(seed))

	// loctable: the locate_tcp population on one table.
	pop := newPopulation(workloads["locate_tcp"].agents, workers, seed, false)
	h0 := heapAlloc()
	tbl := loctable.New()
	for i, a := range pop.agents {
		tbl.Put(a, nodeIDs[pop.home[i]])
	}
	r.put("loctable.bytes_per_agent", float64(heapAlloc()-h0)/float64(len(pop.agents)), "B")
	order := rng.Perm(len(pop.agents))
	k := 0
	c := r.measure(func() error {
		a := pop.agents[order[k%len(order)]]
		k++
		if _, ok := tbl.Get(a); !ok {
			return fmt.Errorf("loctable: registered agent %s missing", a)
		}
		return nil
	})
	r.put("loctable.get_ns", c.ns, "ns")
	r.put("loctable.get_allocs", c.allocs, "count")
	c = r.measure(func() error {
		tbl.Put(pop.agents[order[k%len(order)]], nodeIDs[k%numNodes])
		k++
		return nil
	})
	r.put("loctable.put_ns", c.ns, "ns")

	// Hot codec: request and response of one RPC, encoded and decoded.
	agent := pop.agents[0]
	c = r.measure(func() error {
		var req core.LocateReq
		var resp core.LocateResp
		return roundTrips(core.LocateReq{Agent: agent}, &req, core.LocateResp{Status: core.StatusOK, Node: nodeIDs[1], HashVersion: 7}, &resp)
	})
	r.put("codec.locate_rt_ns", c.ns, "ns")
	r.put("codec.locate_rt_allocs", c.allocs, "count")
	c = r.measure(func() error {
		var req core.UpdateReq
		var ack core.Ack
		return roundTrips(core.UpdateReq{Agent: agent, Node: nodeIDs[2]}, &req, core.Ack{Status: core.StatusOK, HashVersion: 7}, &ack)
	})
	r.put("codec.update_rt_ns", c.ns, "ns")
	r.put("codec.update_rt_allocs", c.allocs, "count")
	dresp := core.DiscoverResp{Status: core.StatusOK, HashVersion: 7}
	for i := 0; i < discoverLimit; i++ {
		dresp.Matches = append(dresp.Matches, core.DiscoverMatch{Agent: pop.agents[i], Node: nodeIDs[i%numNodes]})
	}
	c = r.measure(func() error {
		var req core.DiscoverReq
		var resp core.DiscoverResp
		return roundTrips(core.DiscoverReq{Caps: []string{stableTag(0), stableTag(1)}, Limit: discoverLimit}, &req, dresp, &resp)
	})
	r.put("codec.discover_rt_ns", c.ns, "ns")
	lresp := core.LeavesResp{HashVersion: 7}
	for i := 0; i < baseLeaves; i++ {
		lresp.Leaves = append(lresp.Leaves, core.LeafRef{IAgent: ids.AgentID(fmt.Sprintf("iagent-%d", i+1)), Node: nodeIDs[1+i%2]})
	}
	c = r.measure(func() error {
		var req core.LeavesReq
		var resp core.LeavesResp
		return roundTrips(core.LeavesReq{}, &req, lresp, &resp)
	})
	r.put("codec.leaves_rt_ns", c.ns, "ns")
	r.put("codec.leaves_rt_allocs", c.allocs, "count")
	const handoffEntries = 1024
	hreq := core.HandoffReq{
		Entries:    map[ids.AgentID]platform.NodeID{},
		Load:       map[ids.AgentID]uint64{},
		Pending:    map[ids.AgentID][]core.Deposited{},
		Bindings:   map[ids.AgentID]ids.ResidenceID{},
		Residences: map[ids.ResidenceID]platform.NodeID{},
		Caps:       map[ids.AgentID][]string{},
	}
	for i := 0; i < handoffEntries; i++ {
		hreq.Entries[pop.agents[i]] = nodeIDs[pop.home[i]]
		hreq.Load[pop.agents[i]] = uint64(1 + i%7)
	}
	var hbytes int
	c = r.measure(func() error {
		var out core.HandoffReq
		var err error
		hbytes, err = roundTrip(hreq, &out)
		return err
	})
	r.put("codec.handoff_ns_per_entry", c.ns/handoffEntries, "ns")
	r.put("codec.handoff_bytes_per_entry", float64(hbytes)/handoffEntries, "B")

	for _, rowsOf := range []func(*rows) error{
		transportRows,
		platformRows,
		func(r *rows) error { return clusterRows(seed, r) },
		func(r *rows) error { return discoverRows(seed, r) },
		func(r *rows) error { return snapshotRows(filepath.Join(dir, "ladder-snap"), pop, r) },
	} {
		if err := rowsOf(r); err != nil {
			r.fail(err)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	return r.m, nil
}

// echo answers every request with a fixed locate response.
func echo(context.Context, transport.Addr, string, []byte) (any, error) {
	return core.LocateResp{Status: core.StatusOK, Node: nodeIDs[1], HashVersion: 7}, nil
}

// callRow times one Peer.Call with a locate-shaped request and response.
func callRow(r *rows, from *transport.Peer, to transport.Addr) cost {
	ctx := context.Background()
	req := core.LocateReq{Agent: "agent-0000001"}
	return r.measure(func() error {
		var resp core.LocateResp
		return from.Call(ctx, to, "bench.echo", req, &resp)
	})
}

// transportRows times Peer.Call over the in-memory link and over TCP
// loopback, with a trivial handler.
func transportRows(r *rows) error {
	mem := transport.NewNetwork(transport.NetworkConfig{})
	defer mem.Close()
	a, err := transport.NewPeer(mem, "a", nil)
	if err != nil {
		return err
	}
	if _, err := transport.NewPeer(mem, "b", echo); err != nil {
		return err
	}
	r.put("transport.mem_call_us", callRow(r, a, "b").ns/1e3, "us")

	la, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer la.Close()
	lb, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer lb.Close()
	la.AddRoute("b", lb.ListenAddr())
	lb.AddRoute("a", la.ListenAddr())
	pa, err := transport.NewPeer(la, "a", nil)
	if err != nil {
		return err
	}
	defer pa.Close()
	pb, err := transport.NewPeer(lb, "b", echo)
	if err != nil {
		return err
	}
	defer pb.Close()
	c := callRow(r, pa, "b")
	r.put("transport.tcp_call_us", c.ns/1e3, "us")
	r.put("transport.tcp_call_allocs", c.allocs, "count")
	r.put("transport.tcp_call_bytes", c.bytes, "B")
	return nil
}

// echoAgent is a trivial agent: it answers every request at once.
type echoAgent struct{}

func (echoAgent) HandleRequest(*platform.Context, string, []byte) (any, error) {
	return core.LocateResp{Status: core.StatusOK, Node: nodeIDs[1], HashVersion: 7}, nil
}

// platformRows times Node.CallAgent to a trivial agent on another node,
// over TCP loopback.
func platformRows(r *rows) error {
	var links []*transport.TCP
	defer func() {
		for _, l := range links {
			l.Close()
		}
	}()
	for range 2 {
		l, err := transport.NewTCP(transport.TCPConfig{ListenOn: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		links = append(links, l)
	}
	links[0].AddRoute(nodeIDs[1].Addr(), links[1].ListenAddr())
	links[1].AddRoute(nodeIDs[0].Addr(), links[0].ListenAddr())
	var nodes []*platform.Node
	for i, l := range links {
		n, err := platform.NewNode(platform.Config{ID: nodeIDs[i], Link: l})
		if err != nil {
			return err
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	if err := nodes[1].Launch("echo", echoAgent{}); err != nil {
		return err
	}
	ctx := context.Background()
	req := core.LocateReq{Agent: "agent-0000001"}
	c := r.measure(func() error {
		var resp core.LocateResp
		return nodes[0].CallAgent(ctx, nodeIDs[1], "echo", "bench.echo", req, &resp)
	})
	r.put("platform.call_agent_us", c.ns/1e3, "us")
	r.put("platform.call_agent_allocs", c.allocs, "count")
	return nil
}

// snapshotRows times the WAL append with and without fsync, and one full
// snapshot holding an IAgent-sized location table.
func snapshotRows(dir string, pop *population, r *rows) error {
	defer os.RemoveAll(dir)
	st, err := snapshot.Open(dir, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	k := 0
	rec := func() snapshot.Record {
		k++
		return snapshot.Record{Op: snapshot.OpPut, IAgent: "iagent-1", Agent: string(pop.agents[k%len(pop.agents)]), Node: string(nodeIDs[k%numNodes]), HashVersion: 7}
	}
	c := r.measure(func() error { return st.Append(rec()) })
	r.put("snapshot.append_us", c.ns/1e3, "us")
	size0, n0 := walSize(dir), k
	st.SyncOnAppend = true
	c = r.measure(func() error { return st.Append(rec()) })
	r.put("snapshot.append_sync_us", c.ns/1e3, "us")
	r.put("snapshot.wal_bytes_per_update", float64(walSize(dir)-size0)/float64(k-n0), "B")
	st.SyncOnAppend = false

	// One leaf of the locate_tcp cluster.
	tbl := loctable.New()
	for i := 0; i < len(pop.agents)/baseLeaves; i++ {
		tbl.Put(pop.agents[i], nodeIDs[pop.home[i]])
	}
	payload, err := tbl.Serialize()
	if err != nil {
		return err
	}
	sec := []snapshot.Section{{Kind: core.SectionIAgent, Name: "iagent-1", Payload: payload}}
	var ms []float64
	for range 7 {
		start := time.Now()
		if err := st.WriteFull(sec); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(start).Microseconds())/1e3)
	}
	r.put("snapshot.full_write_ms", median(ms), "ms")
	return nil
}

// walSize is the total size of the store's WAL files.
func walSize(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var n int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}

// capindexRows times Match and Set on an index holding the discover_tags
// population.
func capindexRows(pop *population, qs []query, r *rows) {
	x := capindex.New()
	for i, a := range pop.agents {
		x.Set(a, pop.tags[i])
	}
	k := 0
	c := r.measure(func() error {
		x.Match(qs[k%len(qs)].caps)
		k++
		return nil
	})
	r.put("capindex.match_us", c.ns/1e3, "us")
	c = r.measure(func() error {
		i := k % len(pop.agents)
		x.Set(pop.agents[i], append(pop.tags[i][:tagsPerAgent:tagsPerAgent], volatileTag(k%volatileTags)))
		k++
		return nil
	})
	r.put("capindex.set_us", c.ns/1e3, "us")
}
