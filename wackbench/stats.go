package main

import (
	"bufio"
	"bytes"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is sorted
// in place. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the process's user plus system CPU time so far, all
// threads included (the simulated workloads' garbage collector and the live
// workload's three daemons alike).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB, read from
// VmHWM in /proc/self/status (which, unlike getrusage's ru_maxrss, starts
// afresh at exec, so the launching shell is not counted). It falls back to
// ru_maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("VmHWM:")) {
				continue
			}
			fields := bytes.Fields(line[len("VmHWM:"):])
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(string(fields[0]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
