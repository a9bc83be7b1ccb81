package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
)

// memDelta is the allocation activity of a window.
type memDelta struct {
	allocBytes, allocs uint64
}

type memSnap struct{ totalAlloc, mallocs uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.Mallocs}
}

func (a memSnap) sub(b memSnap) memDelta {
	return memDelta{a.totalAlloc - b.totalAlloc, a.mallocs - b.mallocs}
}

// liveHeapMB forces a collection and returns the heap in use, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / 1e6
}

// Runtime metrics over a window.
const (
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
	rmSchedLaten = "/sched/latencies:seconds"
)

type rtSnap struct {
	gcCycles uint64
	pauses   *metrics.Float64Histogram
	sched    *metrics.Float64Histogram
}

// rtDelta is the runtime's activity over a window: GC cycles, total GC
// stop-the-world pause, and the distribution of how long runnable
// goroutines waited for a processor.
type rtDelta struct {
	gcCycles  uint64
	gcPauseS  float64
	schedP99S float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rmGCCycles}, {Name: rmGCPauses}, {Name: rmSchedLaten}}
	metrics.Read(s)
	var out rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[1].Value.Float64Histogram()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[2].Value.Float64Histogram()
	}
	return out
}

func (a rtSnap) sub(b rtSnap) rtDelta {
	d := rtDelta{gcCycles: a.gcCycles - b.gcCycles}
	if a.pauses != nil && b.pauses != nil {
		counts := histDelta(a.pauses, b.pauses)
		for i, n := range counts {
			d.gcPauseS += float64(n) * bucketMid(a.pauses.Buckets, i)
		}
	}
	if a.sched != nil && b.sched != nil {
		counts := histDelta(a.sched, b.sched)
		d.schedP99S = histPercentile(counts, a.sched.Buckets, 99)
	}
	return d
}

func histDelta(a, b *metrics.Float64Histogram) []uint64 {
	out := make([]uint64, len(a.Counts))
	for i := range a.Counts {
		out[i] = a.Counts[i] - b.Counts[i]
	}
	return out
}

// bucketMid is the midpoint of bucket i, clamping infinite edges to the
// finite one.
func bucketMid(edges []float64, i int) float64 {
	lo, hi := edges[i], edges[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

// histPercentile returns the upper edge of the bucket holding the
// nearest-rank p-th percentile of a histogram (0 when it is empty).
func histPercentile(counts []uint64, edges []float64, p float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			hi := edges[i+1]
			if math.IsInf(hi, 1) {
				hi = edges[i]
			}
			return hi
		}
	}
	return edges[len(edges)-1]
}

// hostFacts describes the machine a run measured.
func hostFacts(tmp string) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s tmpdir_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(tmp))
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
