package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentiles are the candidates for a timing's tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing summarizes one set of latency samples: median, tail at the
// highest percentile with ≥10 samples beyond it, and the sample count.
type timing struct {
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailP float64 `json:"tail_percentile"`
	N     int     `json:"samples"`
}

func summarize(xs []float64) timing {
	p := tailPercentile(len(xs))
	return timing{P50: median(xs), Tail: percentile(xs, p), TailP: p, N: len(xs)}
}

// box is the machine fingerprint recorded with every result.
type box struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CalibNs    float64 `json:"calib_ns"`
}

func fingerprint() box {
	return box{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibNs:    calibrate(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// calibSink keeps the calibration kernel's result live.
var calibSink float64

// calibrate times a fixed dependent floating-point kernel (one million
// multiply-add steps) and returns the fastest of five runs in
// nanoseconds: a box-speed reference to read other timings against.
func calibrate() float64 {
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		x := 1.0
		start := time.Now()
		for i := 0; i < 1_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		if ns := float64(time.Since(start).Nanoseconds()); ns < best {
			best = ns
		}
		calibSink += x
	}
	return best
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// totalAllocMB returns the bytes allocated so far by the process, in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
