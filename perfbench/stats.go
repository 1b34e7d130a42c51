package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile reads the q-quantile (0 < q <= 1) of xs by nearest rank. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
