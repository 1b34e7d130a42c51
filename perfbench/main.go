// Command perfbench is agentloc's machine benchmark: traffic mixes, each
// on an in-process cluster of three platform nodes linked by real TCP
// loopback with zero simulated service time, driven by two closed-loop
// workers whose every answer is checked against the generator's own
// record. With --trace 0 it prints the end-to-end metrics; with --trace 1
// it reruns the workload traced, reports the tracing overhead and the
// phase table, and times each layer's public functions in isolation.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload locate_tcp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"agentloc/internal/trace"
)

// setupRepeats is how many times a --trace 0 run sets the cluster up; it
// reports the median set-up time and drives the last cluster.
const setupRepeats = 15

// tailQ is the tail percentile of the read and write classes. Beyond p95
// the latency of this closed loop is set by garbage collection and by the
// CPU time the virtual machine loses to its neighbours; p99 moved by up to
// a half between runs of the same code, p95 by a few percent.
const tailQ = 0.95

// queryCount is the size of the seeded Discover query set.
const queryCount = 512

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced rerun and per-layer metrics")
	data := flag.String("data", ".bench_build/data", "directory for the WAL and snapshot files of a run")
	flag.Parse()

	spec, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(*data, "run-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	d := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 0 {
		res, err = endToEnd(spec, *seed, d, dir)
	} else {
		res, err = tracedRun(spec, *seed, d, dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", name)
			res.Correct = false
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inputs generates the seeded population and query set of a workload.
func inputs(spec workloadSpec, seed int64) (*population, []query) {
	pop := newPopulation(spec.agents, workers, seed, spec.withTags)
	var qs []query
	if spec.withTags {
		qs = newQueries(pop, queryCount, seed)
	}
	return pop, qs
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd is the --trace 0 run: set up setupRepeats times, warm up, drive
// the mix for d, check the final state, report the end-to-end metrics.
func endToEnd(spec workloadSpec, seed int64, d time.Duration, dir string) (result, error) {
	pop, qs := inputs(spec, seed)
	var setups []float64
	var s *session
	var heap0 uint64
	for k := 0; k < setupRepeats; k++ {
		if s != nil {
			s.c.close()
		}
		heap0 = heapAlloc()
		var setup time.Duration
		var err error
		if s, setup, err = newSession(spec, pop, nil, dir); err != nil {
			return result{}, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer s.c.close()
	s.queries = qs
	ws := s.newWorkers(seed)
	warm := s.drive(ws, 0, warmOps)
	heap := float64(heapAlloc()-heap0) / float64(spec.agents)

	res := s.drive(ws, d, 0)
	bad, err := s.finalCheck()
	if err != nil {
		return result{}, err
	}
	s.fails.report()
	attempted := warm.ops + res.ops + int64(spec.agents)
	failed := warm.failed + res.failed + int64(bad)

	readP50, readTail := res.windowed(classRead, 0.50), res.windowed(classRead, tailQ)
	writeP50, writeTail := res.windowed(classWrite, 0.50), res.windowed(classWrite, tailQ)
	if spec.rehashEvery > 0 {
		// A run holds a couple of hundred rehashes: too few per window, so
		// the rehash percentiles are taken over the whole phase, and the
		// tail is p90, the highest with ten or more samples beyond it.
		writeP50, writeTail = quantile(res.all[classRehash], 0.50), quantile(res.all[classRehash], 0.90)
	}
	fmt.Printf("# ops %d in %.2fs: reads %d, writes %d, rehashes %d\n", res.ops, res.elapsed.Seconds(),
		len(res.all[classRead]), len(res.all[classWrite]), len(res.all[classRehash]))
	return result{
		Correct:   !s.fails.unexpected(spec.defects),
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":              {median(setups), "s"},
			"throughput_ops_s":     {median(res.rate), "ops/s"},
			"cpu_us_per_op":        {median(res.cpu), "us"},
			"heap_bytes_per_agent": {heap, "B"},
			"ok_ratio":             {float64(attempted-failed) / float64(attempted), "ratio"},
			"read_p50_us":          {readP50, "us"},
			"read_tail_us":         {readTail, "us"},
			"write_p50_us":         {writeP50, "us"},
			"write_tail_us":        {writeTail, "us"},
		},
	}, nil
}

// tracedRun is the --trace 1 run: the same mix for d/2 untraced, then for
// d/2 with every operation traced through every node's span recorder; the
// throughput difference is the tracing overhead, and the traced half's
// spans give the phase table. Then the per-layer ladder runs.
func tracedRun(spec workloadSpec, seed int64, d time.Duration, dir string) (result, error) {
	pop, qs := inputs(spec, seed)
	agg := newSpanAgg()
	s, _, err := newSession(spec, pop, agg.observe, dir)
	if err != nil {
		return result{}, err
	}
	s.queries = qs
	ws := s.newWorkers(seed)
	warm := s.drive(ws, 0, warmOps)
	plain := s.drive(ws, d/2, 0)
	s.bench = trace.NewRecorder("bench", 1, 1)
	s.bench.SetHooks(agg.observe, nil)
	agg.reset()
	traced := s.drive(ws, d/2, 0)
	bad, err := s.finalCheck()
	s.c.close()
	if err != nil {
		return result{}, err
	}
	s.fails.report()
	fmt.Printf("# traced phase table, %d operations\n", traced.ops)
	agg.print(os.Stdout, traced.ops)

	metrics, err := ladder(seed, dir)
	if err != nil {
		return result{}, err
	}
	metrics["trace.overhead_pct"] = metric{(median(plain.rate)/median(traced.rate) - 1) * 100, "%"}
	return result{
		Correct:   !s.fails.unexpected(spec.defects),
		Attempted: warm.ops + plain.ops + traced.ops + int64(spec.agents),
		Failed:    warm.failed + plain.failed + traced.failed + int64(bad),
		Metrics:   metrics,
	}, nil
}
