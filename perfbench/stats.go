package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// median returns the middle of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for op_tail_ms, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 80, 75, 50}

// tailPercentile returns the nearest-rank value of the highest candidate
// percentile with at least ten samples beyond it, the percentile, and
// that sample count. With too few samples for any candidate it returns
// the maximum, as p100 with none beyond.
func tailPercentile(xs []float64) (value, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx >= 0 && n-1-idx >= 10 {
			return s[idx], p, n - 1 - idx
		}
	}
	if n == 0 {
		return 0, 100, 0
	}
	return s[n-1], 100, 0
}

// rssMB reads the process's current resident set in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// inputVec is op i's fresh input: n values in [-1, 1) drawn from a
// stream keyed by the run seed and the op index, so the same seed gives
// the same inputs and no two ops share one.
func inputVec(seed int64, i, n int) []float32 {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	v := make([]float32, n)
	for k := range v {
		v[k] = float32(r.Float64()*2 - 1)
	}
	return v
}

// digest hashes every simulated statistic a workload records (cycles,
// DRAM command counts, output bits, traffic and virtual latencies) over
// a fixed prefix of ops, so two commits given the same seed can confirm
// that the modelled results are identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		d.h.Write(buf[:])
	}
}

func (d *digest) floats(xs []float32) {
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
		d.h.Write(buf[:])
	}
}

func (d *digest) float64s(xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		d.h.Write(buf[:])
	}
}

func (d *digest) str(s string) { d.h.Write([]byte(s)) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// cpuNs reads the process's CPU time, user and system over all threads,
// in ns. Every host time the benchmark reports is a difference of two
// readings. On a shared VM, wall time also counts the time the host
// steals from the vCPUs and the time one thread waits for a contended
// second vCPU, which flips a run's wall time by up to 2x; CPU time counts
// neither. It counts the work of every thread, so the simulator's own
// pool and the garbage collector are included, but a change that spreads
// the same work over more workers does not show as faster.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// spans accumulates host time per layer call, timed from the benchmark
// around each call into a layer's public function.
type spans map[string][]float64

// time runs fn and records its host time under name; on nil spans it
// only runs fn.
func (s spans) time(name string, fn func() error) error {
	if s == nil {
		return fn()
	}
	t0 := cpuNs()
	err := fn()
	s[name] = append(s[name], float64(cpuNs()-t0))
	return err
}

// medianMs is the median recorded call time under name, in ms.
func (s spans) medianMs(name string) float64 { return median(s[name]) / 1e6 }

// totalNs is the summed recorded time under name.
func (s spans) totalNs(name string) float64 {
	var t float64
	for _, x := range s[name] {
		t += x
	}
	return t
}

// withinAbs reports the first index where |got-want| exceeds tol or is
// NaN.
func withinAbs(got, want []float32, tol float64) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range want {
		if !(math.Abs(float64(got[i]-want[i])) <= tol) {
			return i, false
		}
	}
	return 0, true
}

// sameBits reports whether two float vectors are bit-identical.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
