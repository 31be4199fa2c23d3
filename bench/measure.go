package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/kernelbench"
)

// meter splits one operation into its set-up and timed phases and reads,
// for the timed phase, wall time, process CPU time and bytes allocated.
type meter struct {
	t0, t1 time.Time
	cpu1   float64
	alloc1 uint64
}

// startMeter collects garbage left by earlier operations — so one
// operation's heap does not tax the next one's timings — and starts the
// set-up phase.
func startMeter() *meter {
	runtime.GC()
	return &meter{t0: time.Now()}
}

// setupDone ends the set-up phase, starts the timed phase and returns the
// set-up wall time in seconds.
func (m *meter) setupDone() float64 {
	m.t1 = time.Now()
	m.cpu1 = cpuSeconds()
	m.alloc1 = totalAlloc()
	return m.t1.Sub(m.t0).Seconds()
}

// runDone ends the timed phase and fills its wall, CPU and allocation
// figures into r.
func (m *meter) runDone(r *opResult) {
	r.run = time.Since(m.t1).Seconds()
	r.cpu = cpuSeconds() - m.cpu1
	r.allocMB = float64(totalAlloc()-m.alloc1) / (1 << 20)
}

// cpuSeconds is the process's user+system CPU time (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the middle value (mean of the middle two for an even
// count) of xs, which it does not modify; 0 when xs is empty.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile picks the highest percentile that still has at least
// ten of n samples beyond it — a tail estimate resting on fewer samples
// than that is noise.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 80, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// hostRef is a fixed dense LU factorisation that shares no code with the
// program. Timed between repetitions, it says how fast the host runs at
// that moment — on a shared host, other tenants' load swings the speed
// of every instruction by up to 2× for minutes at a time — and no change
// to the program can move it.
type hostRef struct {
	a0, a []float64
}

// refN is the matrix order: large enough to be all arithmetic, small
// enough to stay in L1 like the solver's own working set.
const refN = 48

// refNominalNs is about hostRef's ns per factorisation on a quiet host
// of the 2-vCPU kind the bounds were measured on. Time metrics are
// scaled to it, so they read as seconds on such a host.
const refNominalNs = 20000

func newHostRef() *hostRef {
	h := &hostRef{a0: make([]float64, refN*refN), a: make([]float64, refN*refN)}
	state := uint64(0x9e3779b97f4a7c15)
	for i := range h.a0 {
		state = state*6364136223846793005 + 1442695040888963407
		h.a0[i] = float64(state>>40)/float64(1<<24) - 0.5
	}
	for i := 0; i < refN; i++ {
		h.a0[i*refN+i] += refN // diagonally dominant: no pivoting needed
	}
	return h
}

func (h *hostRef) factor() {
	a := h.a
	copy(a, h.a0)
	for k := 0; k < refN; k++ {
		krow := a[k*refN : k*refN+refN]
		for i := k + 1; i < refN; i++ {
			row := a[i*refN : i*refN+refN]
			f := row[k] / krow[k]
			for j := k + 1; j < refN; j++ {
				row[j] -= f * krow[j]
			}
		}
	}
}

// ns times factorisations for about 200 ms and returns ns per
// factorisation. The host flips between fast and slow states many times a
// second; 200 ms averages over enough of them to read like a repetition
// of seconds does.
func (h *hostRef) ns() float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		h.factor()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeCase is the fixed pure-CPU kernel timed before and after each
// workload, so a slow host window can be told apart from a slow change.
const probeCase = "solver/factor-solve-n32"

// probeNs times probeCase with testing.Benchmark and returns ns/op.
func probeNs() (float64, error) {
	for _, c := range kernelbench.Cases() {
		if c.Name == probeCase {
			r := testing.Benchmark(c.Bench)
			if r.N == 0 {
				return 0, fmt.Errorf("probe %s failed", probeCase)
			}
			return float64(r.T.Nanoseconds()) / float64(r.N), nil
		}
	}
	return 0, fmt.Errorf("kernelbench has no case %q", probeCase)
}
