package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 10; i++ {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {99.9, 10}, {100, 10}, {0.1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %v, want 7", got)
	}
	if got := median([]float64{9, 1, 5, 3, 7}); got != 5 {
		t.Errorf("median of an unsorted sample = %v, want 5", got)
	}
}

func TestPerOpArithmetic(t *testing.T) {
	if got := perOp(30, 10); got != 3 {
		t.Errorf("perOp(30, 10) = %v", got)
	}
	if got := perOp(30, 0); got != 0 {
		t.Errorf("perOp with no ops = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over nothing = %v, want 0", got)
	}

	var before, after snapshot
	before[cSyscalls], after[cSyscalls] = 1000, 1400
	before[cRdHits], after[cRdHits] = 10, 40
	before[cRdMisses], after[cRdMisses] = 5, 15
	before[cSdQSubmitted], after[cSdQSubmitted] = 0, 90
	before[cSdQCommands], after[cSdQCommands] = 0, 30
	ph := &phase{lats: make([]float64, 100), delta: after.sub(before), switches: 250, peakKB: 12}
	got := perLayer(ph)
	for name, want := range map[string]float64{
		"kernel.syscalls_per_op": 4,
		"bcache.rd0.hit_ratio":   0.75,
		"blkq.sd0.merge_ratio":   3,
		"sched.switches_per_op":  2.5,
		"mm.kmalloc_peak_kb":     12,
		"hw.sd.blocks_per_op":    0,
		"dcache.hit_ratio":       0,
		"kernel.fsync_us":        0,
	} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
	if len(got) != len(layerMetrics) {
		t.Errorf("perLayer reports %d metrics, want %d", len(got), len(layerMetrics))
	}
}

func TestSwitchDelta(t *testing.T) {
	before := map[int]int64{1: 5, 2: 3}
	after := map[int]int64{2: 10, 3: 4}
	if got := switchDelta(before, after); got != 11 {
		t.Errorf("switchDelta = %d, want 11 (task 2 ran 7 more times, new task 3 ran 4)", got)
	}
}

func TestEndToEndTakesWindowMedians(t *testing.T) {
	t0 := time.Unix(0, 0)
	ph := &phase{
		// Three one-second windows: 4 ops, 2 ops (a stall), 4 ops.
		lats: []float64{40, 10, 30, 20, 9000, 9000, 11, 41, 31, 21},
		windows: []window{
			{at: t0},
			{at: t0.Add(time.Second), ops: 4, cpu: 400 * time.Microsecond},
			{at: t0.Add(2 * time.Second), ops: 6, cpu: 1000 * time.Microsecond},
			{at: t0.Add(3 * time.Second), ops: 10, cpu: 1400 * time.Microsecond},
		},
		heapMB: 3.5,
	}
	m := endToEnd(ph, []float64{0.3, 0.1, 0.2})
	for name, want := range map[string]float64{
		"ops_per_s": 4, "lat_p50_us": 21, "lat_p90_us": 41, "cpu_us_per_op": 100, "heap_mb": 3.5, "setup_s": 0.2,
	} {
		if m[name].Value != want {
			t.Errorf("%s = %v, want %v", name, m[name].Value, want)
		}
	}
}

func TestSeedFixesOpsAndInputs(t *testing.T) {
	gen := func(seed uint64) any {
		var out []any
		for round := 0; round < 50; round++ {
			out = append(out, frameKinds(seed, round), filesOps(seed, round), echoOps(seed, round))
		}
		l := newLaunch(seed)
		for round := 0; round < 50; round++ {
			out = append(out, launchOps(seed, round, l.texts))
		}
		f := newFiles(seed)
		out = append(out, frameKeys(seed, frameMario, 3), frameKeys(seed, frameDoom, 3),
			l.texts, f.static, newEcho(seed).pool)
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed yielded two different op sequences or inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds yielded the same op sequences and inputs")
	}
}

func TestRoundsHaveTheWorkloadMix(t *testing.T) {
	count := func(kinds []int, n int) []int {
		c := make([]int, n)
		for _, k := range kinds {
			c[k]++
		}
		return c
	}
	for round := 0; round < 100; round++ {
		if got := count(frameKinds(3, round), len(framesRound)); !reflect.DeepEqual(got, framesRound) {
			t.Fatalf("frames round %d has kinds %v, want %v", round, got, framesRound)
		}
		var mounts []int
		for _, op := range filesOps(3, round) {
			mounts = append(mounts, op.mount)
		}
		if got := count(mounts, 2); !reflect.DeepEqual(got, []int{filesRoundSize / 2, filesRoundSize / 2}) {
			t.Fatalf("files round %d reads %v files per mount, want half on each", round, got)
		}
		var cmds []string
		for _, op := range launchOps(3, round, newLaunch(3).texts[:4]) {
			cmds = append(cmds, op.cmd)
		}
		sort.Strings(cmds)
		if !reflect.DeepEqual(cmds, []string{"cat", "grep", "wc"}) {
			t.Fatalf("launch round %d runs %v, want each command once", round, cmds)
		}
		for _, op := range echoOps(3, round) {
			if op.size < echoMin || op.size > echoMax || op.off < 0 || op.off+op.size > echoPool {
				t.Fatalf("echo round %d frame %+v outside the payload pool", round, op)
			}
		}
	}
}

func TestStratifiedDrawsOnePerStratum(t *testing.T) {
	for _, geometric := range []bool{false, true} {
		sizes := stratified(11, 8, 16, 8192, geometric, 1)
		sort.Ints(sizes)
		for i, s := range sizes {
			var lo, hi float64
			if geometric {
				lo = 16 * math.Pow(512, float64(i)/8)
				hi = 16 * math.Pow(512, float64(i+1)/8)
			} else {
				w := float64(8192-16+1) / 8
				lo, hi = 16+w*float64(i), 16+w*float64(i+1)
			}
			if float64(s) < math.Floor(lo) || float64(s) > math.Ceil(hi) {
				t.Errorf("geometric=%v: size %d is not in stratum %d [%.0f, %.0f]", geometric, s, i, lo, hi)
			}
		}
	}
}

func TestLaunchExpectedOutput(t *testing.T) {
	text := []byte("kernel proto\tframe\ncache kernel\n\npipe\n")
	for _, c := range []struct {
		op   launchOp
		want string
	}{
		{launchOp{cmd: "wc"}, "4 6 38\n"},
		{launchOp{cmd: "grep", argv: []string{"grep", "kernel"}}, "kernel proto\tframe\ncache kernel\n"},
		{launchOp{cmd: "grep", argv: []string{"grep", "zzz"}}, ""},
		{launchOp{cmd: "cat"}, string(text)},
	} {
		if got := string(c.op.want(text)); got != c.want {
			t.Errorf("%s: want() = %q, want %q", c.op.cmd, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name, 1) == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	e2e := endToEnd(&phase{}, []float64{1})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: the program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if lm := layerMetrics[i]; lm.name != m.Name || lm.unit != m.Unit || lm.better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]",
				i, m.Name, m.Unit, m.Better, lm.name, lm.unit, lm.better)
		}
	}
}
