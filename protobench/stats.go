package main

import (
	"math"
	"sort"
	"time"

	"protosim/internal/core"
	"protosim/internal/hw"
	"protosim/internal/kernel"
	"protosim/internal/kernel/bcache"
	"protosim/internal/kernel/blkq"
	"protosim/internal/kernel/bufpool"
	"protosim/internal/kernel/net"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 50th percentile of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// perOp divides a counter delta by the op count (0 when no op completed).
func perOp(delta float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return delta / float64(ops)
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// counter indexes one public counter a layer exports. A snapshot reads
// them all; the difference of two snapshots is the work the layers did in
// between.
type counter int

const (
	cSyscalls counter = iota
	cWFI
	cFrameAllocs
	cDcacheHits   // positive + negative hits, both mounts
	cDcacheLooks  // hits + misses, both mounts
	cDcacheFail   // fast-path walks abandoned to the locked walk
	cJnlCommits   // xv6fs journal transactions committed
	cJnlAbsorbed  // records absorbed into an already-batched block
	cFatRangeBlks // blocks moved by FAT32 range transfers
	cRdHits
	cRdMisses
	cSdHits
	cSdMisses
	cSdWritebacks
	cSdDaemonFlush
	cSdQSubmitted
	cSdQCommands
	cSdQPlugTimeouts
	cSdQRetries
	cSdDeviceUs // simulated poll + DMA wait
	cSdBlocks   // blocks read + written by the card
	cNetSegs    // kernel stack segments in + out
	cNetRetrans
	cNicIRQs // kernel-side NIC TX + RX interrupts
	cPoolGets
	cPoolRecycled
	cPoolNews
	cWMPixels
	cFBFlushBytes
	nCounters
)

// snapshot is every counter at one instant.
type snapshot [nCounters]float64

// sub returns a - b.
func (a snapshot) sub(b snapshot) snapshot {
	var d snapshot
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// takeSnapshot reads every layer's exported counters. It only loads
// atomics and takes short stats locks, so it is cheap enough to bracket
// every op in traced mode.
func takeSnapshot(sys *core.System) snapshot {
	var s snapshot
	k := sys.Kernel
	m := sys.Machine
	s[cSyscalls] = float64(k.SyscallCount())
	s[cWFI] = float64(k.Sched.IdleWFI())
	s[cFrameAllocs] = float64(k.FrameAlloc.TotalAllocs())
	if k.RootFS != nil {
		d := k.RootFS.Dcache().Stats()
		s[cDcacheHits] += float64(d.Hits + d.NegHits)
		s[cDcacheLooks] += float64(d.Hits + d.NegHits + d.Misses)
		s[cDcacheFail] += float64(d.FastFail)
		if j := k.RootFS.Journal(); j != nil {
			js := j.Stats()
			s[cJnlCommits] = float64(js.Commits)
			s[cJnlAbsorbed] = float64(js.Absorbed)
		}
		h, mi := cacheHits(k.RootFS.Cache())
		s[cRdHits], s[cRdMisses] = h, mi
	}
	if k.FatFS != nil {
		d := k.FatFS.Dcache().Stats()
		s[cDcacheHits] += float64(d.Hits + d.NegHits)
		s[cDcacheLooks] += float64(d.Hits + d.NegHits + d.Misses)
		s[cDcacheFail] += float64(d.FastFail)
		_, blocks := k.FatFS.RangeStats()
		s[cFatRangeBlks] = float64(blocks)
		c := k.FatFS.Cache()
		h, mi := cacheHits(c)
		s[cSdHits], s[cSdMisses] = h, mi
		_, _, _, wb := c.Stats()
		s[cSdWritebacks] = float64(wb)
		s[cSdDaemonFlush] = float64(c.DaemonFlushes())
	}
	if q := sdQueue(k); q != nil {
		sub, disp, _, _, _ := q.Stats()
		_, timeouts := q.PlugStats()
		retries, _, _, _ := q.FaultStats()
		s[cSdQSubmitted] = float64(sub)
		s[cSdQCommands] = float64(disp)
		s[cSdQPlugTimeouts] = float64(timeouts)
		s[cSdQRetries] = float64(retries)
	}
	if m.SD != nil {
		poll, dma := m.SD.WaitStats()
		s[cSdDeviceUs] = float64(poll + dma)
		_, rb, wb, _ := m.SD.Stats()
		s[cSdBlocks] = float64(rb + wb)
	}
	if k.Net != nil {
		ns := k.Net.Stats()
		s[cNetSegs] = float64(ns.SegsIn + ns.SegsOut)
		s[cNetRetrans] = float64(ns.Retrans)
		nic := m.NIC.Stats()
		s[cNicIRQs] = float64(nic.TxIRQs + nic.RxIRQs)
	}
	for _, size := range []int{hw.NICMTU, net.RingSize} {
		ps := bufpool.Shared(size).Stats()
		s[cPoolGets] += float64(ps.Gets)
		s[cPoolRecycled] += float64(ps.Recycled)
		s[cPoolNews] += float64(ps.News)
	}
	if k.WM != nil {
		_, px := k.WM.Stats()
		s[cWMPixels] = float64(px)
	}
	_, fb := k.FB.Stats()
	s[cFBFlushBytes] = float64(fb)
	return s
}

func cacheHits(c *bcache.Cache) (hits, misses float64) {
	h, m, _, _ := c.Stats()
	return float64(h), float64(m)
}

// sdQueue is the request queue in front of the SD card, or nil.
func sdQueue(k *kernel.Kernel) *blkq.Queue {
	for _, d := range k.BlockDevs() {
		if d.Name() == "sd0" {
			return d.Queue()
		}
	}
	return nil
}

// taskSwitches maps every live task to how often it has been scheduled in.
func taskSwitches(k *kernel.Kernel) map[int]int64 {
	out := make(map[int]int64)
	for _, t := range k.Sched.Tasks() {
		out[t.ID] = t.Switches()
	}
	return out
}

// switchDelta is how many times tasks were scheduled in between two
// taskSwitches maps; tasks that exited in between are the caller's to add.
func switchDelta(before, after map[int]int64) int64 {
	var n int64
	for id, sw := range after {
		n += sw - before[id]
	}
	return n
}

// phase is what one timed phase measured: the op latencies, the counter
// and CPU deltas around it, and (traced) the spans.
type phase struct {
	lats     []float64 // µs per completed op, in completion order
	windows  []window  // boundaries of the phase's one-second windows
	attempts int
	failed   int
	elapsed  time.Duration
	cpu      time.Duration
	steal    time.Duration // host CPU time stolen by the hypervisor
	heapMB   float64
	delta    snapshot
	switches int64
	peakKB   float64
	spanP50  map[string]float64 // µs, by span name (traced)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the figures a user of the system sees. Throughput, CPU
// per op and the latency percentiles are taken in each one-second window
// of the phase, and each is reported as its median over the windows.
func endToEnd(ph *phase, setups []float64) map[string]metric {
	var rate, cpu, p50, p90 []float64
	for i := 1; i < len(ph.windows); i++ {
		a, b := ph.windows[i-1], ph.windows[i]
		ops := b.ops - a.ops
		s := sortedCopy(ph.lats[a.ops:b.ops])
		rate = append(rate, ratio(float64(ops), b.at.Sub(a.at).Seconds()))
		cpu = append(cpu, perOp(float64((b.cpu-a.cpu).Nanoseconds())/1e3, ops))
		p50 = append(p50, percentile(s, 50))
		p90 = append(p90, percentile(s, 90))
	}
	return map[string]metric{
		"ops_per_s":     {median(rate), "1/s"},
		"lat_p50_us":    {median(p50), "us"},
		"lat_p90_us":    {median(p90), "us"},
		"cpu_us_per_op": {median(cpu), "us"},
		"heap_mb":       {ph.heapMB, "MB"},
		"setup_s":       {median(setups), "s"},
	}
}

// layerMetric is one per-layer figure, which way is better, and how the
// traced phase yields it.
type layerMetric struct {
	name, unit, better string
	value              func(ph *phase, ops int) float64
}

// perOpOf reports a counter delta per completed op.
func perOpOf(c counter) func(*phase, int) float64 {
	return func(ph *phase, ops int) float64 { return perOp(ph.delta[c], ops) }
}

// ratioOf reports one counter delta over another.
func ratioOf(num, den counter) func(*phase, int) float64 {
	return func(ph *phase, _ int) float64 { return ratio(ph.delta[num], ph.delta[den]) }
}

// spanOf reports the median duration of one span name.
func spanOf(name string) func(*phase, int) float64 {
	return func(ph *phase, _ int) float64 { return ph.spanP50[name] }
}

// layerMetrics is every per-layer figure, in the order BENCHMARK.json
// lists them. The README maps each to the end-to-end metric and workload
// it should move.
var layerMetrics = []layerMetric{
	{"kernel.syscalls_per_op", "count", "lower", perOpOf(cSyscalls)},
	{"kernel.open_us", "us", "lower", spanOf("open")},
	{"kernel.read_us", "us", "lower", spanOf("read")},
	{"kernel.write_us", "us", "lower", spanOf("write")},
	{"kernel.fsync_us", "us", "lower", spanOf("fsync")},
	{"kernel.stat_us", "us", "lower", spanOf("stat")},
	{"kernel.close_us", "us", "lower", spanOf("close")},
	{"kernel.cacheflush_us", "us", "lower", spanOf("cacheflush")},
	{"kernel.surface_write_us", "us", "lower", spanOf("surface_write")},
	{"sched.wfi_per_op", "count", "lower", perOpOf(cWFI)},
	{"sched.switches_per_op", "count", "lower", func(ph *phase, ops int) float64 { return perOp(float64(ph.switches), ops) }},
	{"sched.spawn_us", "us", "lower", spanOf("spawn")},
	{"mm.frame_allocs_per_op", "count", "lower", perOpOf(cFrameAllocs)},
	{"mm.kmalloc_peak_kb", "KiB", "lower", func(ph *phase, _ int) float64 { return ph.peakKB }},
	{"dcache.hit_ratio", "ratio", "higher", ratioOf(cDcacheHits, cDcacheLooks)},
	{"dcache.fastpath_fail_per_op", "count", "lower", perOpOf(cDcacheFail)},
	{"jnl.commits_per_op", "count", "lower", perOpOf(cJnlCommits)},
	{"jnl.absorbed_per_op", "count", "lower", perOpOf(cJnlAbsorbed)},
	{"fat32.range_blocks_per_op", "blocks", "lower", perOpOf(cFatRangeBlks)},
	{"bcache.rd0.hit_ratio", "ratio", "higher", func(ph *phase, _ int) float64 {
		return ratio(ph.delta[cRdHits], ph.delta[cRdHits]+ph.delta[cRdMisses])
	}},
	{"bcache.sd0.hit_ratio", "ratio", "higher", func(ph *phase, _ int) float64 {
		return ratio(ph.delta[cSdHits], ph.delta[cSdHits]+ph.delta[cSdMisses])
	}},
	{"bcache.sd0.writebacks_per_op", "blocks", "lower", perOpOf(cSdWritebacks)},
	{"bcache.sd0.daemon_flushes_per_op", "count", "lower", perOpOf(cSdDaemonFlush)},
	{"blkq.sd0.commands_per_op", "count", "lower", perOpOf(cSdQCommands)},
	{"blkq.sd0.merge_ratio", "ratio", "higher", ratioOf(cSdQSubmitted, cSdQCommands)},
	{"blkq.sd0.plug_timeouts_per_op", "count", "lower", perOpOf(cSdQPlugTimeouts)},
	{"blkq.sd0.retries_per_op", "count", "lower", perOpOf(cSdQRetries)},
	{"hw.sd.device_us_per_op", "us", "lower", perOpOf(cSdDeviceUs)},
	{"hw.sd.blocks_per_op", "blocks", "lower", perOpOf(cSdBlocks)},
	{"net.segs_per_op", "count", "lower", perOpOf(cNetSegs)},
	{"net.retrans_per_op", "count", "lower", perOpOf(cNetRetrans)},
	{"hw.nic.irqs_per_op", "count", "lower", perOpOf(cNicIRQs)},
	{"net.send_us", "us", "lower", spanOf("send")},
	{"net.reply_us", "us", "lower", spanOf("reply")},
	{"bufpool.recycle_ratio", "ratio", "higher", ratioOf(cPoolRecycled, cPoolGets)},
	{"bufpool.allocs_per_op", "count", "lower", perOpOf(cPoolNews)},
	{"wm.pixels_per_op", "pixels", "lower", perOpOf(cWMPixels)},
	{"wm.present_us", "us", "lower", spanOf("present")},
	{"hw.fb.flush_bytes_per_op", "bytes", "lower", perOpOf(cFBFlushBytes)},
	{"apps.emulate_us", "us", "lower", spanOf("emulate")},
	{"apps.raycast_us", "us", "lower", spanOf("raycast")},
}

// perLayer computes every per-layer figure of a traced phase.
func perLayer(ph *phase) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{lm.value(ph, len(ph.lats)), lm.unit}
	}
	return out
}

// spanMedians returns the median duration in µs of each span name.
func spanMedians(byName map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(byName))
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out[n] = median(byName[n])
	}
	return out
}
