package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/sched"
)

// errStop ends a closed loop early without failing it (the watchdog fired).
var errStop = errors.New("protobench: run stopped")

// runner drives one workload's closed loop: it times every op, knows which
// op is in flight for the watchdog, and in traced mode records a span
// around every call the loop makes into a layer plus the counter deltas
// of every op. Spans stay in memory until writeTrace.
type runner struct {
	sys     *core.System
	traced  bool
	seconds time.Duration
	opLimit time.Duration // an op running longer than this is stuck

	mu       sync.Mutex
	lats     []float64 // µs, completed ops
	attempts int
	failed   int
	failure  error
	start    time.Time
	end      time.Time
	stopped  bool
	windows  []window // the loop's state at each whole second of the phase
	next     time.Time

	opStart atomic.Int64 // UnixNano at which the op in flight began; 0 between ops
	opIndex atomic.Int64 // index of the op in flight

	// Per-op state, touched only by the loop's goroutine.
	t0     time.Time
	timed  bool     // opEnd already recorded this op's latency
	before snapshot // traced: counters at op start

	// Traced: spans and the first traceLines per-op deltas (guarded by mu).
	spans  []span
	deltas []opDelta
}

// windowLen is the length of the windows end-to-end metrics are medians
// over: a stall of the host shows in the latency tail of the window it
// hits instead of moving the whole run's throughput.
const windowLen = time.Second

// window is the loop's state where one window ends.
type window struct {
	at    time.Time
	ops   int           // ops completed so far
	cpu   time.Duration // process CPU time so far
	steal time.Duration // host steal so far
}

// span is one timed call into a layer, child of the op it ran in.
type span struct {
	op    int
	name  string
	start time.Duration // since the phase began
	dur   time.Duration
}

// opDelta is one nonzero counter delta across one op.
type opDelta struct {
	op int
	c  counter
	v  float64
}

// clock returns the current time when tracing, the zero time otherwise: a
// span is opened as t := r.clock() and closed by r.span(name, t).
func (r *runner) clock() time.Time {
	if !r.traced {
		return time.Time{}
	}
	return time.Now()
}

// span records the call that began at t under the op in flight.
func (r *runner) span(name string, t time.Time) {
	if !r.traced {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{op: int(r.opIndex.Load()), name: name, start: t.Sub(r.start), dur: now.Sub(t)})
	r.mu.Unlock()
}

// loop runs whole rounds of roundSize ops until the phase's time is up.
// op(i) performs op i and calls r.opEnd once the op's own work is done;
// whatever it does after that (checking outputs) is not timed. An error
// from op counts the op as failed and ends the loop.
func (r *runner) loop(roundSize int, op func(i int) error) {
	r.mu.Lock()
	r.start = time.Now()
	r.windows = []window{{at: r.start, cpu: cpuTime(), steal: hostSteal()}}
	r.next = r.start.Add(windowLen)
	r.mu.Unlock()
	deadline := r.start.Add(r.seconds)
	for i := 0; ; {
		for j := 0; j < roundSize; j, i = j+1, i+1 {
			if err := r.run(i, op); err != nil {
				r.finish()
				return
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	r.finish()
}

func (r *runner) finish() {
	r.mu.Lock()
	r.endLocked()
	r.mu.Unlock()
}

// endLocked marks the end of the phase and closes the window it ends in
// when that window is the phase's last whole one, or its only one (a short
// run, or one stopped early).
func (r *runner) endLocked() {
	if r.end.IsZero() {
		r.end = time.Now()
	}
	last := len(r.windows) == 1 || (!r.end.Before(r.next) && r.next.Sub(r.start) <= r.seconds)
	if len(r.windows) > 0 && last {
		r.windows = append(r.windows, window{r.end, len(r.lats), cpuTime(), hostSteal()})
	}
}

// run performs one op under the watchdog's eye.
func (r *runner) run(i int, op func(int) error) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return errStop
	}
	r.attempts++
	r.mu.Unlock()
	if r.traced {
		r.before = takeSnapshot(r.sys)
	}
	r.timed = false
	r.opIndex.Store(int64(i))
	r.t0 = time.Now()
	r.opStart.Store(r.t0.UnixNano())
	err := op(i)
	if !r.timed {
		r.opEnd()
	}
	r.opStart.Store(0)
	if err != nil {
		r.mu.Lock()
		r.failed++
		r.lats = r.lats[:len(r.lats)-1]
		if r.failure == nil {
			r.failure = fmt.Errorf("op %d: %w", i, err)
		}
		r.mu.Unlock()
	}
	return err
}

// opEnd closes the op in flight's timed part.
func (r *runner) opEnd() {
	if r.timed {
		return
	}
	r.timed = true
	now := time.Now()
	lat := float64(now.Sub(r.t0).Nanoseconds()) / 1e3
	var d snapshot
	if r.traced {
		d = takeSnapshot(r.sys).sub(r.before)
	}
	r.mu.Lock()
	r.lats = append(r.lats, lat)
	if len(r.windows) > 0 && !now.Before(r.next) && r.next.Sub(r.start) <= r.seconds {
		r.windows = append(r.windows, window{now, len(r.lats), cpuTime(), hostSteal()})
		for !now.Before(r.next) { // an op that spans boundaries ends one window
			r.next = r.next.Add(windowLen)
		}
	}
	if r.traced {
		i := int(r.opIndex.Load())
		r.spans = append(r.spans, span{op: i, name: "op", start: r.t0.Sub(r.start), dur: now.Sub(r.t0)})
		for c, v := range d {
			if v != 0 && len(r.deltas) < traceLines {
				r.deltas = append(r.deltas, opDelta{op: i, c: counter(c), v: v})
			}
		}
	}
	r.mu.Unlock()
}

// stuck reports the op in flight if it has run past the op limit.
func (r *runner) stuck(now time.Time) (int, time.Duration, bool) {
	s := r.opStart.Load()
	if s == 0 {
		return 0, 0, false
	}
	age := now.Sub(time.Unix(0, s))
	if age < r.opLimit {
		return 0, 0, false
	}
	return int(r.opIndex.Load()), age, true
}

// stop freezes the loop's results and refuses later ops. opFailed counts
// the op in flight as failed (the watchdog found it wedged).
func (r *runner) stop(cause error, opFailed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stopped = true
	if opFailed {
		r.failed++
	}
	if r.failure == nil {
		r.failure = cause
	}
	r.endLocked()
}

// results copies what the loop measured so far into ph.
func (r *runner) results(ph *phase) (failure error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.end
	if end.IsZero() {
		end = time.Now()
	}
	ph.lats = append([]float64(nil), r.lats...)
	ph.windows = append([]window(nil), r.windows...)
	ph.attempts, ph.failed, ph.elapsed = r.attempts, r.failed, end.Sub(r.start)
	return r.failure
}

// recordBytes is the heap the loop's own records hold: latencies, windows
// and, traced, spans and counter deltas.
func (r *runner) recordBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.lats)*int(unsafe.Sizeof(float64(0))) + cap(r.windows)*int(unsafe.Sizeof(window{})) +
		cap(r.spans)*int(unsafe.Sizeof(span{})) + cap(r.deltas)*int(unsafe.Sizeof(opDelta{}))
}

// spanDurations groups the recorded call spans by name, in µs.
func (r *runner) spanDurations() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]float64)
	for _, s := range r.spans {
		if s.name == "op" {
			continue
		}
		out[s.name] = append(out[s.name], float64(s.dur.Nanoseconds())/1e3)
	}
	return out
}

// traceLines caps each kind of line a trace file holds, so that traces of
// the fast workloads stay a few MB; the per-layer figures use every span.
const traceLines = 100000

// writeTrace writes the first traceLines spans and per-op counter deltas as
// JSON lines: {"op":i,"span":name,"start_us":..,"dur_us":..} with the op's
// own span named "op" (the parent of every other span of the same op), and
// {"op":i,"counter":name,"delta":..}.
func (r *runner) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans[:min(len(r.spans), traceLines)] {
		fmt.Fprintf(w, "{\"op\":%d,\"span\":%q,\"start_us\":%.3f,\"dur_us\":%.3f}\n",
			s.op, s.name, float64(s.start.Nanoseconds())/1e3, float64(s.dur.Nanoseconds())/1e3)
	}
	for _, d := range r.deltas {
		fmt.Fprintf(w, "{\"op\":%d,\"counter\":%q,\"delta\":%g}\n", d.op, counterNames[d.c], d.v)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counterNames label the per-op deltas in the trace file.
var counterNames = [nCounters]string{
	cSyscalls: "syscalls", cWFI: "wfi", cFrameAllocs: "frame_allocs",
	cDcacheHits: "dcache_hits", cDcacheLooks: "dcache_lookups", cDcacheFail: "dcache_fastpath_fail",
	cJnlCommits: "jnl_commits", cJnlAbsorbed: "jnl_absorbed", cFatRangeBlks: "fat32_range_blocks",
	cRdHits: "rd0_hits", cRdMisses: "rd0_misses", cSdHits: "sd0_hits", cSdMisses: "sd0_misses",
	cSdWritebacks: "sd0_writebacks", cSdDaemonFlush: "sd0_daemon_flushes",
	cSdQSubmitted: "sd0q_submitted", cSdQCommands: "sd0q_commands",
	cSdQPlugTimeouts: "sd0q_plug_timeouts", cSdQRetries: "sd0q_retries",
	cSdDeviceUs: "sd_device_us", cSdBlocks: "sd_blocks", cNetSegs: "net_segs",
	cNetRetrans: "net_retrans", cNicIRQs: "nic_irqs", cPoolGets: "bufpool_gets",
	cPoolRecycled: "bufpool_recycled", cPoolNews: "bufpool_news",
	cWMPixels: "wm_pixels", cFBFlushBytes: "fb_flush_bytes",
}

// gate is a host-to-task signal. A kernel task waits for it asleep on a
// wait queue, holding no simulated core, and a shutdown can still kill it.
type gate struct {
	open atomic.Bool
	wq   sched.WaitQueue
}

func (g *gate) wait(p *kernel.Proc) {
	for !g.open.Load() {
		g.wq.SleepUnless(p.Task, func() bool { return g.open.Load() || p.Task.Killed() })
		p.Checkpoint() // a task killed while it waited unwinds here
	}
}

func (g *gate) release() {
	g.open.Store(true)
	g.wq.WakeAll()
}

// dumpTasks writes every kernel task with its state.
func dumpTasks(w *os.File, k *kernel.Kernel) {
	fmt.Fprintf(w, "kernel tasks:\n")
	for _, t := range k.Sched.Tasks() {
		fmt.Fprintf(w, "  %s cpu=%v switches=%d\n", t, t.CPUTime().Round(time.Microsecond), t.Switches())
	}
}

// taskLoop runs a workload inside one kernel process, the way an app runs:
// the process prepares (set-up), waits for the start gate, runs the closed
// loop, then waits for the check gate and checks its outputs through
// syscalls. The host side only opens gates and waits.
type taskLoop struct {
	ready          chan error
	start, checkGo gate
	looped         chan struct{}
	checked        chan struct{}

	r                 *runner // set before start opens
	loopErr, checkErr error
}

// spawn starts the process and returns once prep has finished.
func (tl *taskLoop) spawn(k *kernel.Kernel, name string, prep func(p *kernel.Proc) error,
	loop func(p *kernel.Proc, r *runner) error, check func(p *kernel.Proc) error) error {
	tl.ready = make(chan error, 1)
	tl.looped = make(chan struct{})
	tl.checked = make(chan struct{})
	k.Spawn(name, 0, func(p *kernel.Proc, _ []string) int {
		err := prep(p)
		tl.ready <- err
		if err != nil {
			return 1
		}
		tl.start.wait(p)
		tl.loopErr = loop(p, tl.r)
		close(tl.looped)
		tl.checkGo.wait(p)
		if check != nil {
			tl.checkErr = check(p)
		}
		close(tl.checked)
		return 0
	}, []string{name})
	return <-tl.ready
}

// run opens the start gate and waits for the loop to end.
func (tl *taskLoop) run(r *runner) error {
	tl.r = r
	tl.start.release()
	<-tl.looped
	return tl.loopErr
}

// check opens the check gate and waits for the process's checks.
func (tl *taskLoop) check() error {
	tl.checkGo.release()
	<-tl.checked
	return tl.checkErr
}
