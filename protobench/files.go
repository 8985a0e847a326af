package main

import (
	"bytes"
	"fmt"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/fat32/fatfsck"
	"protosim/internal/kernel/fs"
	"protosim/internal/kernel/xv6fs/xfsck"
)

// files is the file read path on both mounts — syscall, open file
// descriptions, dcache, xv6fs and FAT32, buffer cache. One process runs
// rounds of eight ops, each a stat, open, read and close of one small file:
// four of the 40 static files on the xv6fs root and four of the 8 on FAT32
// /d, in a seeded order. The root's files are packed into its image;
// set-up writes the ones on /d.
//
// The timed ops write nothing. Every write path — FAT32 append+fsync,
// xv6fs create/rewrite+fsync — contends with a writeback daemon on the
// kernel's SleepLocks, which can lose a wakeup and wedge the op (FOUND in
// CHANGES.md); ops that fail now and then cannot be measured, so durable
// writes, and with them the SD card's latency model, join this workload
// once the lock is mended.
//
// Checks: every read returns the seeded generator's bytes; after the timed
// phase every file reads back whole equal to them, and after shutdown
// xfsck and fatfsck find both images clean.
type files struct {
	seed uint64
	tl   taskLoop
	sys  *core.System

	static [2][][]byte // per mount (0 the root, 1 /d), the static files' bytes
	ops    []fileOp
	buf    []byte
	bad    error // first read mismatch
}

// fileOp is one read: its mount and the file's index there.
type fileOp struct{ mount, file int }

const filesRoundSize = 8 // reads per round, half on each mount

var nStatic = [2]int{40, 8} // static files on the root and on /d

func newFiles(seed uint64) *files {
	f := &files{seed: seed, buf: make([]byte, 4096+1)}
	for m := 0; m < 2; m++ {
		for i, size := range stratified(seed, nStatic[m], 128, 4096, false, uint64(10+m)) {
			f.static[m] = append(f.static[m], seededBytes(seed, size, 1, uint64(m), uint64(i)))
		}
	}
	return f
}

// options packs the root's static files into its image.
func (f *files) options(o *core.Options) {
	o.ExtraRootFiles = make(map[string][]byte)
	for i, data := range f.static[0] {
		o.ExtraRootFiles[staticPath(0, i)] = data
	}
}

// filesOps is round's seeded reads.
func filesOps(seed uint64, round int) []fileOp {
	r := newRand(seed, streamOps, uint64(round))
	mounts := roundKinds(r, []int{filesRoundSize / 2, filesRoundSize / 2})
	ops := make([]fileOp, len(mounts))
	for j, m := range mounts {
		ops[j] = fileOp{m, r.IntN(nStatic[m])}
	}
	return ops
}

func staticPath(mount, i int) string {
	if mount == 0 {
		return fmt.Sprintf("/bf/s%02d", i)
	}
	return fmt.Sprintf("/d/bf/s%02d.dat", i)
}

func (f *files) opName(i int) string {
	op := filesOps(f.seed, i/filesRoundSize)[i%filesRoundSize]
	return "stat+open+read+close " + staticPath(op.mount, op.file)
}

func (f *files) prepare(sys *core.System) error {
	f.sys = sys
	return f.tl.spawn(sys.Kernel, "files", f.prep, f.loop, f.readBack)
}

// prep writes the static files on /d, syncs, and reads every static file
// once to warm the caches.
func (f *files) prep(p *kernel.Proc) error {
	if err := p.SysMkdir("/d/bf"); err != nil {
		return fmt.Errorf("mkdir /d/bf: %w", err)
	}
	for i, data := range f.static[1] {
		if err := writeFile(p, staticPath(1, i), data); err != nil {
			return err
		}
	}
	if err := p.SysSync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	for m := 0; m < 2; m++ {
		for i, data := range f.static[m] {
			if err := f.read(p, &runner{}, staticPath(m, i), data); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *files) loop(p *kernel.Proc, r *runner) error {
	r.loop(filesRoundSize, func(i int) error {
		if i%filesRoundSize == 0 {
			f.ops = filesOps(f.seed, i/filesRoundSize)
		}
		op := f.ops[i%filesRoundSize]
		return f.read(p, r, staticPath(op.mount, op.file), f.static[op.mount][op.file])
	})
	return nil
}

// read stats, opens, reads and closes path, then checks the bytes.
func (f *files) read(p *kernel.Proc, r *runner, path string, want []byte) error {
	t := r.clock()
	st, err := p.SysStat(path)
	r.span("stat", t)
	if err != nil {
		return fmt.Errorf("stat %s: %w", path, err)
	}
	t = r.clock()
	fd, err := p.SysOpen(path, fs.ORdOnly)
	r.span("open", t)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	t = r.clock()
	n, err := p.SysRead(fd, f.buf)
	r.span("read", t)
	if err != nil {
		p.SysClose(fd)
		return fmt.Errorf("read %s: %w", path, err)
	}
	t = r.clock()
	err = p.SysClose(fd)
	r.span("close", t)
	if err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	r.opEnd()
	if f.bad == nil && (st.Size != int64(len(want)) || !bytes.Equal(f.buf[:n], want)) {
		f.bad = fmt.Errorf("%s: read %d bytes (stat size %d), want the %d seeded bytes", path, n, st.Size, len(want))
	}
	return nil
}

// readBack reads every file whole after the timed phase and compares it
// with the seeded bytes.
func (f *files) readBack(p *kernel.Proc) error {
	for m := 0; m < 2; m++ {
		for i, want := range f.static[m] {
			got, err := readFile(p, staticPath(m, i))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s: read back %d bytes, want the %d seeded bytes", staticPath(m, i), len(got), len(want))
			}
		}
	}
	return nil
}

func (f *files) run(r *runner) error { return f.tl.run(r) }

func (f *files) exitedSwitches() int64 { return 0 }

// check reads everything back, shuts down, and checks both images.
func (f *files) check(sys *core.System) error {
	if err := f.tl.check(); err != nil {
		return err
	}
	if f.bad != nil {
		return f.bad
	}
	if err := sys.Shutdown(); err != nil {
		return err
	}
	// fsck reads whole images; the SD card's latency model would make
	// that half a minute of simulated wire time.
	sys.Machine.SD.SetLatencyScale(0)
	for _, d := range sys.Kernel.BlockDevs() {
		switch d.Name() {
		case "rd0":
			rep, err := xfsck.Check(d, xfsck.Strict)
			if err != nil {
				return err
			}
			if !rep.Clean() {
				return fmt.Errorf("xv6fs root after shutdown: %s: %v", rep, rep.Errors)
			}
		case "sd0":
			rep, err := fatfsck.Check(d, fatfsck.Strict)
			if err != nil {
				return err
			}
			if !rep.Clean() {
				return fmt.Errorf("FAT32 /d after shutdown: %v", rep.Errors)
			}
		}
	}
	return nil
}

func (f *files) discard(sys *core.System) { sys.Shutdown() }

// writeFile creates path holding data, durably: fsync before close, so the
// writeback daemon finds nothing of it left to flush.
func writeFile(p *kernel.Proc, path string, data []byte) error {
	fd, err := p.SysOpen(path, fs.OCreate|fs.OWrOnly|fs.OTrunc)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if n, err := p.SysWrite(fd, data); err != nil || n != len(data) {
		p.SysClose(fd)
		return fmt.Errorf("write %s: wrote %d of %d: %v", path, n, len(data), err)
	}
	if err := p.SysFsync(fd); err != nil {
		p.SysClose(fd)
		return fmt.Errorf("fsync %s: %w", path, err)
	}
	return p.SysClose(fd)
}
