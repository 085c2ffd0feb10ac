package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors now(): monotonic nanoseconds since process start, the
// one clock every timestamp in the benchmark is read from.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// sample is one reported number with the count of observations behind
// it.
type sample struct {
	v float64
	n uint64
}

// usage is a process resource snapshot; the difference of two brackets
// a measured window.
type usage struct {
	wall, cpu int64 // ns
	mallocs   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    now(),
		cpu:     ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
	}
}

// perJob turns a window's resource use into the per-completed-job
// metrics.
func perJob(a, b usage, completed uint64) (cpuUs, allocs sample) {
	if completed == 0 {
		return sample{}, sample{}
	}
	c := float64(completed)
	return sample{float64(b.cpu-a.cpu) / 1e3 / c, completed},
		sample{float64(b.mallocs-a.mallocs) / c, completed}
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		fatalf("read peak RSS: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				fatalf("parse VmHWM %q: %v", rest, err)
			}
			return kb / 1024
		}
	}
	fatalf("no VmHWM in /proc/self/status")
	return 0
}

// meta identifies the machine and code a result came from. Results
// are only comparable when every field but Rev matches.
type meta struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Rev        string `json:"rev"`
}

func readMeta(rev string) meta {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return meta{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Rev:        rev,
	}
}

// machine is meta without the revision: the part that must match for
// two results to be compared.
func (m meta) machine() meta {
	m.Rev = ""
	return m
}
