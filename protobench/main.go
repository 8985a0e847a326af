// Command protobench is protosim's benchmark: it boots Prototype 5 with as
// many simulated cores as the host has, runs one closed-loop workload
// (frames, files, echo or launch) for a fixed time, checks the outputs,
// and prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics of a traced run — as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash protobench/run.sh --workload files --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"protosim/internal/core"
	"protosim/internal/hw"
)

const (
	// setups is how many times a run boots and prepares a system; setup_s
	// is their median and the last one is measured.
	setups = 3
	// opLimit is the watchdog's per-op deadline: hundreds of times the
	// slowest workload's p90, so only a wedged op reaches it.
	opLimit = 10 * time.Second
	// runLimit bounds the whole run: past it the run is reported wedged.
	runLimit = 170 * time.Second
)

// workload is one closed-loop workload. A fresh value serves one set-up.
type workload interface {
	// options adjusts the boot options (network, extra root files).
	options(o *core.Options)
	// prepare builds the workload's inputs on the booted system and warms
	// it up; it is part of set-up.
	prepare(sys *core.System) error
	// run drives the closed loop through r until r's time is up.
	run(r *runner) error
	// opName describes op i for the watchdog's report.
	opName(i int) string
	// exitedSwitches counts scheduler switches of tasks that ran and
	// exited during the timed phase (their counters leave with them).
	exitedSwitches() int64
	// check verifies the outputs after the timed phase; it may shut the
	// system down to inspect its disks.
	check(sys *core.System) error
	// discard tears down a set-up that will not be measured.
	discard(sys *core.System)
}

// newWorkload returns the named workload for seed, or nil.
func newWorkload(name string, seed uint64) workload {
	switch name {
	case "frames":
		return newFrames(seed)
	case "files":
		return newFiles(seed)
	case "echo":
		return newEcho(seed)
	case "launch":
		return newLaunch(seed)
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "frames, files, echo or launch")
	seed := flag.Uint64("seed", 1, "seed for the op sequence and inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if newWorkload(*name, *seed) == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "protobench: usage: --workload frames|files|echo|launch --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	cores := runtime.NumCPU()
	fmt.Printf("env host_cores=%d gomaxprocs=%d sim_cores=%d go=%s commit=%s tree=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cores, runtime.Version(), commit(), treeHash(), *name, *seed, *seconds, *trace)
	b := &bench{name: *name, seed: *seed, cores: cores, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "protobench: run exceeded %v while in %v\n", runLimit, b.stage.Load())
		if sys := b.live.Load(); sys != nil {
			dumpTasks(os.Stderr, sys.Kernel)
		}
		dumpStacks()
		os.Exit(3)
	})
	os.Exit(b.main())
}

// bench is one invocation: set-ups, the timed phase, checks and report.
type bench struct {
	name    string
	seed    uint64
	cores   int
	seconds time.Duration
	traced  bool

	w      workload
	sys    *core.System
	setups []float64 // seconds
	boots  []float64 // seconds, kernel boot alone

	live        atomic.Pointer[core.System] // the system being set up or measured
	stage       atomic.Value                // what the run is doing, for the run-limit report
	stealBefore time.Duration

	// reporting is held by whichever of the loop and the watchdog closes
	// the timed phase first, so exactly one of them reports.
	reporting sync.Mutex
}

func (b *bench) main() int {
	for i := 0; i < setups; i++ {
		b.stage.Store(fmt.Sprintf("set-up %d", i+1))
		w := newWorkload(b.name, b.seed)
		start := time.Now()
		sys, err := b.setup(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "protobench: set-up: %v\n", err)
			return 1
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		b.boots = append(b.boots, sys.Kernel.BootDuration().Seconds())
		if i < setups-1 {
			w.discard(sys)
			continue
		}
		b.w, b.sys = w, sys
	}
	runtime.GC()

	r := &runner{sys: b.sys, traced: b.traced, seconds: b.seconds, opLimit: opLimit}
	before := takeSnapshot(b.sys)
	swBefore := taskSwitches(b.sys.Kernel)
	cpuBefore := cpuTime()
	b.stealBefore = hostSteal()
	go b.watch(r, before, swBefore, cpuBefore)
	b.stage.Store("the timed phase")
	if err := b.w.run(r); err != nil {
		r.stop(err, false)
	}
	b.reporting.Lock()
	ph, failure := b.measure(r, before, swBefore, cpuBefore)
	correct := true
	if failure != nil {
		fmt.Fprintf(os.Stderr, "protobench: %v\n", failure)
	}
	b.stage.Store("the checks")
	if err := b.w.check(b.sys); err != nil {
		fmt.Fprintf(os.Stderr, "protobench: check failed: %v\n", err)
		correct = false
	}
	b.report(r, ph, correct)
	if !correct {
		return 1
	}
	return 0
}

// setup boots Prototype 5 for w and prepares the workload.
func (b *bench) setup(w workload) (*core.System, error) {
	opts := core.Options{Prototype: core.Prototype5, Cores: b.cores}
	w.options(&opts)
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	b.live.Store(sys)
	if err := w.prepare(sys); err != nil {
		sys.Shutdown()
		return nil, err
	}
	return sys, nil
}

// watch is the watchdog: an op past its deadline is counted as failed and
// ends the run, which reports the op, every kernel task and the metrics of
// the ops that completed. The wedged task cannot be unwound, so the
// process exits from here.
func (b *bench) watch(r *runner, before snapshot, swBefore map[int]int64, cpuBefore time.Duration) {
	for range time.Tick(100 * time.Millisecond) {
		i, age, stuck := r.stuck(time.Now())
		if !stuck {
			continue
		}
		b.reporting.Lock()
		r.stop(fmt.Errorf("op %d (%s) stuck for %v", i, b.w.opName(i), age.Round(time.Millisecond)), true)
		fmt.Fprintf(os.Stderr, "protobench: op %d (%s) has not finished after %v; stopping the run\n",
			i, b.w.opName(i), age.Round(time.Millisecond))
		dumpTasks(os.Stderr, b.sys.Kernel)
		dumpStacks()
		ph, _ := b.measure(r, before, swBefore, cpuBefore)
		b.report(r, ph, true)
		os.Exit(0)
	}
}

// measure closes the timed phase: counter and CPU deltas, live heap, and
// the loop's own failure, if any.
func (b *bench) measure(r *runner, before snapshot, swBefore map[int]int64, cpuBefore time.Duration) (*phase, error) {
	ph := &phase{cpu: cpuTime() - cpuBefore, steal: hostSteal() - b.stealBefore}
	ph.delta = takeSnapshot(b.sys).sub(before)
	ph.switches = switchDelta(swBefore, taskSwitches(b.sys.Kernel)) + b.w.exitedSwitches()
	ph.peakKB = float64(b.sys.Kernel.KHeap.Peak()) / 1024
	// The live heap, less what is not the system's: the backing arrays of
	// the simulated DRAM and SD card, and the loop's own latency record.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	other := b.sys.Machine.Mem.Size() + r.recordBytes()
	if sd := b.sys.Machine.SD; sd != nil {
		other += sd.Blocks() * hw.SDBlockSize
	}
	ph.heapMB = (float64(ms.HeapAlloc) - float64(other)) / (1 << 20)
	failure := r.results(ph)
	if b.traced {
		ph.spanP50 = spanMedians(r.spanDurations())
	}
	return ph, failure
}

// report prints the human summary and, last, the result line.
func (b *bench) report(r *runner, ph *phase, correct bool) {
	s := sortedCopy(ph.lats)
	fmt.Printf("summary ops=%d attempted=%d failed=%d elapsed_s=%.3f windows=%d p50_us=%.1f p90_us=%.1f p99_us=%.1f p999_us=%.1f max_us=%.1f cpu_us_per_op=%.1f host_steal_s=%.2f\n",
		len(s), ph.attempts, ph.failed, ph.elapsed.Seconds(), len(ph.windows)-1, percentile(s, 50), percentile(s, 90),
		percentile(s, 99), percentile(s, 99.9), percentile(s, 100), perOp(float64(ph.cpu.Nanoseconds())/1e3, len(s)), ph.steal.Seconds())
	var rates, steals []float64
	for i := 1; i < len(ph.windows); i++ {
		a, w := ph.windows[i-1], ph.windows[i]
		rates = append(rates, float64(w.ops-a.ops)/w.at.Sub(a.at).Seconds())
		steals = append(steals, (w.steal - a.steal).Seconds())
	}
	fmt.Printf("windows ops_per_s=%s host_steal_s=%s\n", joinFloats(rates, 1, "%.0f"), joinFloats(steals, 1, "%.2f"))
	fmt.Printf("setup setups_s=%s boot_ms=%s\n", joinFloats(b.setups, 1, "%.3f"), joinFloats(b.boots, 1000, "%.2f"))
	e2e := endToEnd(ph, b.setups)
	metrics := e2e
	if b.traced {
		// The end-to-end figures of a traced run measure the tracing
		// overhead against an untraced run; the result line carries the
		// per-layer figures.
		fmt.Printf("traced-e2e %s\n", formatMetrics(e2e))
		metrics = perLayer(ph)
		path := filepath.Join(buildDir(), "trace", b.name+".jsonl")
		if err := r.writeTrace(path); err != nil {
			fmt.Fprintf(os.Stderr, "protobench: trace: %v\n", err)
		} else {
			fmt.Printf("trace %s\n", path)
		}
	}
	out, err := json.Marshal(result{Correct: correct, Attempted: ph.attempts, Failed: ph.failed, Metrics: metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Printf("%s\n", out)
}

// dumpStacks writes every goroutine's stack: the kernel tasks' goroutines
// show what each wedged task waits on.
func dumpStacks() {
	buf := make([]byte, 4<<20)
	os.Stderr.Write(buf[:runtime.Stack(buf, true)])
}

// buildDir is where build outputs and trace files go.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func formatMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.4f(%s)", n, m[n].Value, m[n].Unit)
	}
	return strings.Join(parts, " ")
}

func joinFloats(xs []float64, scale float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x*scale)
	}
	return strings.Join(parts, ",")
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the time the hypervisor has kept this machine's CPUs from
// running it, summed over CPUs (the steal column of /proc/stat), or 0 where
// that is not available. A run reports it beside its figures: time stolen
// during the timed phase slows every op.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// treeHash fingerprints the Go sources under the working directory (the
// repository root), so a run names the code it measured even where no
// VCS revision is available.
func treeHash() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}
