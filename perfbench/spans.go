package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"agentloc/internal/trace"
)

// spanAgg folds completed spans into per-phase totals as they are
// recorded, so no span stream is retained. A phase is a span's tier/name;
// its self time is the span's duration minus the part of that interval its
// child spans cover. Children always complete before their parent (a
// server span ends before its reply is sent), so each span's children are
// known by the time it is observed.
type spanAgg struct {
	mu      sync.Mutex
	kids    map[uint64][][2]int64 // open parent span id → child intervals
	phases  map[string]*phase
	rpcsSum int64 // sum of the "rpcs" attribute over client locate roots
}

type phase struct {
	n           int64
	total, self time.Duration
}

func newSpanAgg() *spanAgg {
	return &spanAgg{kids: make(map[uint64][][2]int64), phases: make(map[string]*phase)}
}

func (a *spanAgg) observe(s trace.Span) {
	start := s.Start.UnixNano()
	end := start + int64(s.Duration)
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.Parent != 0 {
		a.kids[s.Parent] = append(a.kids[s.Parent], [2]int64{start, end})
	}
	covered := coverage(a.kids[s.SpanID], start, end)
	delete(a.kids, s.SpanID)
	key := s.Tier + "/" + s.Name
	p := a.phases[key]
	if p == nil {
		p = &phase{}
		a.phases[key] = p
	}
	p.n++
	p.total += s.Duration
	p.self += s.Duration - time.Duration(covered)
	if key == "client/locate" {
		n, _ := strconv.Atoi(s.Attr("rpcs"))
		a.rpcsSum += int64(n)
	}
}

// coverage is the length of the union of the intervals, clipped to
// [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// get returns a copy of the named phase's totals (zero when absent).
func (a *spanAgg) get(key string) phase {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p := a.phases[key]; p != nil {
		return *p
	}
	return phase{}
}

// count sums the span counts of every phase of a tier.
func (a *spanAgg) count(tier string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for key, p := range a.phases {
		if strings.HasPrefix(key, tier+"/") {
			n += p.n
		}
	}
	return n
}

func (a *spanAgg) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.kids = make(map[uint64][][2]int64)
	a.phases = make(map[string]*phase)
	a.rpcsSum = 0
}

// meanSelfMicros is the mean self time of a phase, in µs.
func (a *spanAgg) meanSelfMicros(key string) float64 {
	p := a.get(key)
	if p.n == 0 {
		return 0
	}
	return float64(p.self) / float64(p.n) / 1e3
}

// meanMicros is the mean duration of a phase, in µs.
func (a *spanAgg) meanMicros(key string) float64 {
	p := a.get(key)
	if p.n == 0 {
		return 0
	}
	return float64(p.total) / float64(p.n) / 1e3
}

// print writes the phase table: spans per operation, mean duration and
// mean self time of each phase.
func (a *spanAgg) print(w io.Writer, ops int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.phases))
	for k := range a.phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %-28s %10s %12s %12s\n", "phase", "per_op", "mean_us", "self_us")
	for _, k := range keys {
		p := a.phases[k]
		fmt.Fprintf(w, "# %-28s %10.3f %12.2f %12.2f\n", k, float64(p.n)/float64(max(ops, 1)),
			float64(p.total)/float64(p.n)/1e3, float64(p.self)/float64(p.n)/1e3)
	}
}
