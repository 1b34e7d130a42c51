package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"agentloc/internal/core"
	"agentloc/internal/ids"
	"agentloc/internal/trace"
)

// workers is the closed-loop client count: each sends its next operation
// only after the previous one completed.
const workers = 2

// warmOps is how many read operations each worker sends before timing.
const warmOps = 2000

// workloadSpec is one traffic mix.
type workloadSpec struct {
	agents   int
	withTags bool
	durable  bool
	// readFrac is the read share of the mix: Locate, or Discover with
	// tags. The rest are writes: MoveNotifyTo, or Advertise with tags.
	readFrac float64
	// zipf draws agents with Zipf popularity; otherwise uniformly.
	zipf bool
	// rehashEvery makes worker 0 send a forced split or merge after
	// every rehashEvery of its own operations (0: never). The rehash is
	// then the workload's write class and moves are background traffic.
	rehashEvery int
	// rehashAlone pauses every worker at the same operation count while
	// worker 0's rehash runs, so no move is in flight during a split or
	// merge. Without it the other worker keeps sending, and its moves race
	// the handoff (see README.md, "Known defects").
	rehashAlone bool
	// defects lists the failure causes that a program defect recorded in
	// README.md produces on this mix. They count as failed operations and
	// lower ok_ratio, but leave the run correct; any other failure makes
	// it incorrect.
	defects []string
}

var workloads = map[string]workloadSpec{
	"locate_tcp":    {agents: 100000, readFrac: 0.95, zipf: true},
	"rehash_cycle":  {agents: 20000, readFrac: 0.80, zipf: true, rehashEvery: 300, rehashAlone: true},
	"discover_tags": {agents: 20000, withTags: true, readFrac: 0.50},
	// BENCHMARK.json gates neither of these (see README.md). move_durable's
	// fsync-bound figures move by more than the largest bound between runs
	// of the same code. rehash_race is rehash_cycle with moves racing the
	// rehashes; it shows the lost-update defect in a number of failures
	// that differs from run to run.
	"move_durable": {agents: 100000, durable: true, readFrac: 0.20},
	"rehash_race":  {agents: 20000, readFrac: 0.80, zipf: true, rehashEvery: 300, defects: []string{"locate_wrong", "final_mismatch"}},
}

// Operation classes with their own latency series.
const (
	classRead = iota
	classWrite
	classRehash
	numClasses
)

// session is one deployed cluster with its generator state.
type session struct {
	spec    workloadSpec
	pop     *population
	queries []query
	c       *cluster
	rehash  *rehashCycle
	bench   *trace.Recorder // non-nil: every operation gets a traced root
	fails   *failLog
	gate    *rehashGate // non-nil: rehashes run with every worker paused

	phaseStart time.Time    // start of the current timed phase
	done       atomic.Int64 // operations completed in the current phase
}

type workerState struct {
	id     int
	rng    *rand.Rand
	zipf   *rand.Zipf
	cl     *core.Client
	lat    [numClasses][]sample
	ops    int64 // operations sent in this phase, every class
	failed int64
	ownOps int64 // operations sent in the session: places the rehashes
	steps  int   // mix operations sent in this phase: places the gated rehashes
}

// failLog counts failures by cause and keeps the first message of each.
type failLog struct {
	mu    sync.Mutex
	count map[string]int
	first map[string]string
}

func newFailLog() *failLog {
	return &failLog{count: map[string]int{}, first: map[string]string{}}
}

func (f *failLog) add(cause, msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.count[cause] == 0 {
		f.first[cause] = msg
	}
	f.count[cause]++
}

// unexpected reports whether a cause outside known was counted.
func (f *failLog) unexpected(known []string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.count {
		if !slices.Contains(known, c) {
			return true
		}
	}
	return false
}

func (f *failLog) report() {
	f.mu.Lock()
	defer f.mu.Unlock()
	causes := make([]string, 0, len(f.count))
	for c := range f.count {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Fprintf(os.Stderr, "failure %s: %d (first: %s)\n", c, f.count[c], f.first[c])
	}
}

// newSession sets a cluster up for pop: deploy, pre-split, registration,
// then the untimed warm-up of connections and hash copies. It returns the
// set-up time, which excludes the warm-up.
func newSession(spec workloadSpec, pop *population, spanSink func(trace.Span), dataDir string) (*session, time.Duration, error) {
	s := &session{spec: spec, pop: pop, fails: newFailLog()}
	cs := clusterSpec{onSpan: spanSink}
	if spec.durable {
		dir, err := os.MkdirTemp(dataDir, "wal-")
		if err != nil {
			return nil, 0, err
		}
		cs.durableDir = dir
	}
	ctx := context.Background()
	start := time.Now()
	c, err := newCluster(cs)
	if err != nil {
		return nil, 0, err
	}
	s.c = c
	if err := c.load(ctx, pop); err != nil {
		c.close()
		return nil, 0, err
	}
	setup := time.Since(start)
	if err := c.warm(ctx); err != nil {
		c.close()
		return nil, 0, err
	}
	if spec.rehashEvery > 0 {
		st, err := c.hashState(ctx)
		if err != nil {
			c.close()
			return nil, 0, err
		}
		s.rehash = &rehashCycle{c: c, base: c.leaves, ver: c.ver, prev: st}
		if spec.rehashAlone {
			s.gate = newRehashGate(workers)
		}
	}
	return s, setup, nil
}

func (s *session) newWorkers(seed int64) []*workerState {
	ws := make([]*workerState, workers)
	for w := range ws {
		rng := rand.New(rand.NewSource(seed*1000 + int64(w) + 1))
		ws[w] = &workerState{id: w, rng: rng, cl: s.c.client()}
		if s.spec.zipf {
			ws[w].zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(s.pop.own[w])-1))
		}
	}
	return ws
}

// pick draws one of the worker's own agents.
func (s *session) pick(w *workerState) int {
	own := s.pop.own[w.id]
	if w.zipf != nil {
		return own[w.zipf.Uint64()]
	}
	return own[w.rng.Intn(len(own))]
}

// step sends one operation and records its latency and verdict.
func (s *session) step(ctx context.Context, w *workerState, readOnly bool) {
	w.ownOps++
	if s.rehash != nil && s.gate == nil && !readOnly && w.id == 0 && w.ownOps%int64(s.spec.rehashEvery) == 0 {
		s.rehashStep(ctx, w)
		return
	}
	read := readOnly || w.rng.Float64() < s.spec.readFrac
	switch {
	case s.spec.withTags && read:
		q := s.queries[w.rng.Intn(len(s.queries))]
		s.timed(ctx, w, classRead, "discover", func(ctx context.Context) (string, error) {
			got, err := w.cl.Discover(ctx, core.Query{Caps: q.caps, Limit: discoverLimit})
			if err == nil && !checkDiscover(q, got) {
				return "discover_wrong", fmt.Errorf("discover %v: got %d matches, want %v", q.caps, len(got), q.expect)
			}
			return "discover_err", err
		})
	case s.spec.withTags:
		i := s.pick(w)
		caps := append(append([]string(nil), s.pop.tags[i]...), volatileTag(w.rng.Intn(volatileTags)))
		s.timed(ctx, w, classWrite, "advertise", func(ctx context.Context) (string, error) {
			a, err := w.cl.Advertise(ctx, s.pop.agents[i], caps, s.pop.assign[i])
			if err == nil {
				s.pop.assign[i] = a
				s.pop.home[i] = 0 // Advertise reports the caller's node
			}
			return "advertise_err", err
		})
	case read:
		i := s.pick(w)
		s.timed(ctx, w, classRead, "locate", func(ctx context.Context) (string, error) {
			node, err := w.cl.Locate(ctx, s.pop.agents[i])
			if err == nil && node != nodeIDs[s.pop.home[i]] {
				return "locate_wrong", fmt.Errorf("locate %s = %s, generator has %s", s.pop.agents[i], node, nodeIDs[s.pop.home[i]])
			}
			return "locate_err", err
		})
	default:
		i := s.pick(w)
		dst := (int(s.pop.home[i]) + 1 + w.rng.Intn(numNodes-1)) % numNodes
		class := classWrite
		if s.spec.rehashEvery > 0 {
			class = -1 // background traffic: counted, not a latency series
		}
		s.timed(ctx, w, class, "move", func(ctx context.Context) (string, error) {
			a, err := w.cl.MoveNotifyTo(ctx, s.pop.agents[i], nodeIDs[dst], s.pop.assign[i])
			if err == nil {
				s.pop.assign[i] = a
				s.pop.home[i] = uint8(dst)
			}
			return "move_err", err
		})
	}
}

// rehashStep sends the next scheduled split or merge, timed as one
// operation, and moves the schedule on.
func (s *session) rehashStep(ctx context.Context, w *workerState) {
	if s.timed(ctx, w, classRehash, "rehash", s.rehash.call) {
		if err := s.rehash.advance(ctx); err != nil {
			s.fails.add("rehash_err", err.Error())
			w.failed++
		}
	}
}

// timed runs op, under a traced root span when the session traces, and
// reports whether it succeeded.
func (s *session) timed(ctx context.Context, w *workerState, class int, name string, op func(context.Context) (string, error)) bool {
	var sp *trace.ActiveSpan
	if s.bench != nil {
		sp = s.bench.StartRoot("bench", name)
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	start := time.Now()
	cause, err := op(ctx)
	d := time.Since(start)
	sp.End(err)
	w.ops++
	s.done.Add(1)
	if err != nil {
		w.failed++
		s.fails.add(cause, err.Error())
		return false
	}
	if class >= 0 {
		w.lat[class] = append(w.lat[class], sample{int32(start.Sub(s.phaseStart) / window), int64(d)})
	}
	return true
}

// window is the length of the slices a timed phase is cut into. Rates and
// latency percentiles are computed per window and reported as the median
// over the phase's whole windows, so a burst of outside load on the
// machine moves one window, not the result.
const window = time.Second

// sample is one completed operation: the window it started in and its
// latency.
type sample struct {
	win int32
	ns  int64
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	elapsed time.Duration
	ops     int64 // attempted operations, failed ones included
	failed  int64
	rate    []float64               // per window: completed ops/s
	cpu     []float64               // per window: process CPU µs per op
	lat     [numClasses][][]float64 // per class, per window: latencies in µs
	all     [numClasses][]float64   // per class: every latency in µs
}

// windowed is the median over windows of the q-quantile of class's
// latencies.
func (r phaseResult) windowed(class int, q float64) float64 {
	var per []float64
	for _, xs := range r.lat[class] {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return median(per)
}

// drive runs every worker until d has passed (or for n read-only
// operations each when n > 0) and gathers the measurements.
func (s *session) drive(ws []*workerState, d time.Duration, n int) phaseResult {
	ctx := context.Background()
	for _, w := range ws {
		w.ops, w.failed, w.steps = 0, 0, 0
		for c := range w.lat {
			w.lat[c] = w.lat[c][:0]
		}
	}
	if s.gate != nil {
		s.gate.reset()
	}
	runtime.GC()
	s.done.Store(0)
	windows := int(d / window)
	var res phaseResult
	stop := make(chan struct{})
	monitor := make(chan struct{})
	s.phaseStart = time.Now()
	deadline := s.phaseStart.Add(d)
	go func() {
		// Sample the op count and CPU time at every window boundary.
		defer close(monitor)
		if windows == 0 {
			return
		}
		tick := time.NewTicker(window)
		defer tick.Stop()
		ops0, cpu0, t0 := int64(0), cpuTime(), s.phaseStart
		for len(res.rate) < windows {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				ops, cpu := s.done.Load(), cpuTime()
				res.rate = append(res.rate, float64(ops-ops0)/now.Sub(t0).Seconds())
				res.cpu = append(res.cpu, float64((cpu-cpu0).Microseconds())/float64(max(ops-ops0, 1)))
				ops0, cpu0, t0 = ops, cpu, now
			}
		}
	}()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			if n > 0 {
				for i := 0; i < n; i++ {
					s.step(ctx, w, true)
				}
				return
			}
			if s.gate != nil {
				defer s.gate.leave(w.id)
			}
			for time.Now().Before(deadline) {
				if s.gate != nil && w.steps > 0 && w.steps%s.spec.rehashEvery == 0 {
					s.gatedRehash(ctx, w, w.steps/s.spec.rehashEvery, deadline)
				}
				s.step(ctx, w, false)
				w.steps++
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(s.phaseStart)
	close(stop)
	<-monitor
	for c := range res.lat {
		res.lat[c] = make([][]float64, windows)
	}
	for _, w := range ws {
		res.ops += w.ops
		res.failed += w.failed
		for c := range w.lat {
			for _, x := range w.lat[c] {
				us := float64(x.ns) / 1e3
				res.all[c] = append(res.all[c], us)
				if int(x.win) < windows {
					res.lat[c][x.win] = append(res.lat[c][x.win], us)
				}
			}
		}
	}
	return res
}

// finalCheck locates every agent once more, after the workers stopped, and
// compares each answer with the generator's record. It returns the number
// of agents whose answer disagrees.
func (s *session) finalCheck() (int, error) {
	ctx := context.Background()
	cl := s.c.client()
	bad := 0
	for lo := 0; lo < len(s.pop.agents); lo += registerBatch {
		hi := min(lo+registerBatch, len(s.pop.agents))
		got, err := cl.LocateBatch(ctx, s.pop.agents[lo:hi])
		if err != nil {
			return 0, err
		}
		for i := lo; i < hi; i++ {
			if node, ok := got[s.pop.agents[i]]; !ok || node != nodeIDs[s.pop.home[i]] {
				if bad == 0 {
					s.fails.add("final_mismatch", fmt.Sprintf("%s at %q, generator has %s", s.pop.agents[i], node, nodeIDs[s.pop.home[i]]))
				} else {
					s.fails.add("final_mismatch", "")
				}
				bad++
			}
		}
	}
	return bad, nil
}

// rehashCycle walks the forced rehash schedule: split each base leaf in
// turn (4 → 8 leaves), then merge each new leaf back (8 → 4), and repeat.
// Only worker 0 drives it.
type rehashCycle struct {
	c     *cluster
	base  []ids.AgentID
	added []ids.AgentID
	pos   int
	ver   uint64
	prev  *core.State
}

// call sends the next split or merge: one HAgent RPC, which returns once
// every affected IAgent adopted the new hash state and handed its entries
// off.
func (r *rehashCycle) call(ctx context.Context) (string, error) {
	var err error
	if r.pos < len(r.base) {
		r.ver, err = r.c.rehash(ctx, core.KindRequestSplit, r.base[r.pos], r.ver)
	} else {
		r.ver, err = r.c.rehash(ctx, core.KindRequestMerge, r.added[r.pos-len(r.base)], r.ver)
	}
	return "rehash_err", err
}

// advance learns the name of a split's new leaf from the HAgent's state
// and moves the schedule on. It runs after the timed call.
func (r *rehashCycle) advance(ctx context.Context) error {
	st, err := r.c.hashState(ctx)
	if err != nil {
		return err
	}
	if r.pos < len(r.base) {
		leaf, err := newLeaf(r.prev, st)
		if err != nil {
			return err
		}
		r.added = append(r.added, leaf)
	}
	r.prev = st
	r.pos++
	if r.pos == 2*len(r.base) {
		r.pos, r.added = 0, nil
	}
	return nil
}

// rehashGate pauses the workers at each scheduled rehash of a rehashAlone
// workload. Every worker stops after the same number of its own mix
// operations in the phase; once all have stopped, worker 0 sends the
// rehash, and all go on when it has completed. A worker that has left the
// phase no longer holds the others up.
type rehashGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	reached []int  // per worker: the last boundary it stopped at
	left    []bool // per worker: it has left the phase
	passed  int    // the last boundary whose rehash has completed
}

func newRehashGate(n int) *rehashGate {
	g := &rehashGate{reached: make([]int, n), left: make([]bool, n)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// reset readies the gate for a new phase; boundaries count from 1 again.
func (g *rehashGate) reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	clear(g.reached)
	clear(g.left)
	g.passed = 0
}

func (g *rehashGate) leave(w int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.left[w] = true
	g.cond.Broadcast()
}

// gatedRehash stops worker w at boundary k. Worker 0 waits for the others,
// sends the rehash unless the phase is over, and releases them.
func (s *session) gatedRehash(ctx context.Context, w *workerState, k int, deadline time.Time) {
	g := s.gate
	g.mu.Lock()
	g.reached[w.id] = k
	if w.id != 0 {
		g.cond.Broadcast()
		for g.passed < k && !g.left[0] {
			g.cond.Wait()
		}
		g.mu.Unlock()
		return
	}
	for j := 1; j < len(g.reached); j++ {
		for g.reached[j] < k && !g.left[j] {
			g.cond.Wait()
		}
	}
	g.mu.Unlock()
	if time.Now().Before(deadline) {
		s.rehashStep(ctx, w)
	}
	g.mu.Lock()
	g.passed = k
	g.cond.Broadcast()
	g.mu.Unlock()
}
