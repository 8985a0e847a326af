package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/fs"
)

// launch is the process lifecycle: the host spawns a process that opens
// the console as fd 0 and 1 and execs /bin/wc, /bin/grep or /bin/cat (one
// of each per round, in a seeded order) on one of 24 seeded text files,
// then waits for the task to end. An op is one launch, run to exit.
// Waiting from the host on the task's Done channel, rather than through
// wait(), keeps the known wait() hang out of the workload.
//
// Check: each command's console output equals the counts, matching lines
// or bytes computed in Go from the same seeded file.
type launch struct {
	seed     uint64
	k        *kernel.Kernel
	texts    [][]byte
	out      console
	ops      []launchOp
	switches int64
	execErr  error // set by a launched task whose exec failed
	bad      error // first output mismatch
}

// launchOp is one launch: the command and its argv.
type launchOp struct {
	cmd  string
	argv []string
	file int
}

const (
	nTexts          = 24
	launchRoundSize = 3
)

var launchCmds = []string{"wc", "grep", "cat"}

func newLaunch(seed uint64) *launch {
	l := &launch{seed: seed}
	for i, size := range stratified(seed, nTexts, 64, 640, false, 30) {
		l.texts = append(l.texts, textFile(seed, uint64(i), size))
	}
	return l
}

func textPath(i int) string { return fmt.Sprintf("/bl/t%02d.txt", i) }

// options packs the text files into the root image.
func (l *launch) options(o *core.Options) {
	o.ExtraRootFiles = make(map[string][]byte)
	for i, t := range l.texts {
		o.ExtraRootFiles[textPath(i)] = t
	}
	o.ConsoleOut = &l.out
}

// launchOps is round's launches: each command once, in a seeded order,
// each on a seeded file; grep looks for a word of a seeded line of it.
func launchOps(seed uint64, round int, texts [][]byte) []launchOp {
	r := newRand(seed, streamOps, uint64(round))
	kinds := roundKinds(r, []int{1, 1, 1})
	ops := make([]launchOp, len(kinds))
	for j, k := range kinds {
		file := r.IntN(len(texts))
		cmd := launchCmds[k]
		argv := []string{cmd, textPath(file)}
		if cmd == "grep" {
			lines := strings.Split(strings.TrimSuffix(string(texts[file]), "\n"), "\n")
			ws := strings.Fields(lines[r.IntN(len(lines))])
			argv = []string{cmd, ws[r.IntN(len(ws))], textPath(file)}
		}
		ops[j] = launchOp{cmd, argv, file}
	}
	return ops
}

// want is the output the command must print, computed in Go.
func (op launchOp) want(text []byte) []byte {
	switch op.cmd {
	case "wc":
		lines := bytes.Count(text, []byte("\n"))
		words := len(strings.FieldsFunc(string(text), func(r rune) bool { return r == ' ' || r == '\n' || r == '\t' }))
		return []byte(fmt.Sprintf("%d %d %d\n", lines, words, len(text)))
	case "grep":
		var b bytes.Buffer
		for _, line := range strings.Split(string(text), "\n") {
			if strings.Contains(line, op.argv[1]) {
				b.WriteString(line + "\n")
			}
		}
		return b.Bytes()
	}
	return text
}

func (l *launch) opName(i int) string {
	return strings.Join(launchOps(l.seed, i/launchRoundSize, l.texts)[i%launchRoundSize].argv, " ")
}

// prepare warms the exec path: every command on every file, untimed.
func (l *launch) prepare(sys *core.System) error {
	l.k = sys.Kernel
	warm := &runner{}
	for round := 0; round < nTexts; round++ {
		for _, op := range launchOps(l.seed+1, round, l.texts) {
			if err := l.launch(warm, op); err != nil {
				return err
			}
		}
	}
	l.switches, l.bad = 0, nil
	return nil
}

func (l *launch) run(r *runner) error {
	r.loop(launchRoundSize, func(i int) error {
		if i%launchRoundSize == 0 {
			l.ops = launchOps(l.seed, i/launchRoundSize, l.texts)
		}
		return l.launch(r, l.ops[i%launchRoundSize])
	})
	return nil
}

// launch spawns the process for op, waits for it to end and checks what it
// printed.
func (l *launch) launch(r *runner, op launchOp) error {
	l.out.arm()
	l.execErr = nil
	t := r.clock()
	p := l.k.Spawn("launch", 0, func(p *kernel.Proc, _ []string) int {
		fd, err := p.SysOpen("/dev/console", fs.ORdWr)
		if err != nil || fd != 0 {
			l.execErr = fmt.Errorf("open /dev/console: fd %d: %v", fd, err)
			return 126
		}
		if fd, err := p.SysDup(0); err != nil || fd != 1 {
			l.execErr = fmt.Errorf("dup console: fd %d: %v", fd, err)
			return 126
		}
		l.execErr = p.SysExec("/bin/"+op.cmd, op.argv)
		return 127
	}, nil)
	task := p.Task
	r.span("spawn", t)
	<-task.Done()
	r.opEnd()
	l.switches += task.Switches()
	got := l.out.take()
	if l.execErr != nil {
		return l.execErr
	}
	if want := op.want(l.texts[op.file]); l.bad == nil && !bytes.Equal(got, want) {
		l.bad = fmt.Errorf("%s printed %q, want %q", strings.Join(op.argv, " "), got, want)
	}
	return nil
}

func (l *launch) exitedSwitches() int64 { return l.switches }

func (l *launch) check(sys *core.System) error {
	if err := sys.Shutdown(); err != nil {
		return err
	}
	return l.bad
}

func (l *launch) discard(sys *core.System) { sys.Shutdown() }

// console captures what the UART transmits while armed: the output of the
// one launched process in flight.
type console struct {
	mu    sync.Mutex
	armed bool
	buf   bytes.Buffer
}

// Write implements io.Writer as the UART's sink.
func (c *console) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.armed {
		c.buf.Write(p)
	}
	c.mu.Unlock()
	return len(p), nil
}

func (c *console) arm() {
	c.mu.Lock()
	c.armed = true
	c.buf.Reset()
	c.mu.Unlock()
}

// take disarms the capture and returns what it holds.
func (c *console) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = false
	return append([]byte(nil), c.buf.Bytes()...)
}
