package main

import (
	"bytes"
	"fmt"
	"hash/maphash"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/fs"
	"protosim/internal/user/apps/doomlike"
	"protosim/internal/user/apps/nes"
)

// frames is Table 5's media workload: one process renders a seeded 3:1 mix
// of mario-sdl frames (emulate the NES, render, write the frame to a WM
// surface, composite it onto the panel) and doom frames (raycast into the
// mapped framebuffer, flush the cache). The loop makes the same calls the
// two app mains make; one frame is one op.
//
// Each kind restarts from fresh state — a new console, a reloaded world —
// every 64 of its frames, so every run renders the same kind of scenes.
//
// Checks: the last frame of every 8th mario episode and every 16th doom
// frame are sampled. A sampled mario frame must reach the panel unchanged,
// and must equal the frame an independent console, fed the same seeded
// controller input from a freshly built cartridge, renders into plain
// memory. A sampled doom frame, as the panel shows it, must equal what an
// independent world loaded from a freshly built WAD renders into plain
// memory after the same seeded key input.
type frames struct {
	seed uint64
	tl   taskLoop
	k    *kernel.Kernel

	// Process-side state, touched only by the loop's task.
	cart    *nes.Cartridge
	console *nes.Console
	world   *doomlike.World
	wad     []byte
	frame   []byte // one rendered mario frame
	fbmem   []byte
	sfd     int
	efd     int
	evbuf   []byte
	winX    int // mario window on the panel
	winY    int
	kinds   []int
	marioN  int // mario frames rendered
	doomN   int // doom frames rendered
	hseed   maphash.Seed
	marioS  []frameSample
	doomS   []frameSample
	badShow error // first panel mismatch
}

// frameSample is the hash of one sampled frame, by its index among the
// frames of its kind.
type frameSample struct {
	n    int
	hash uint64
}

const (
	frameMario = iota
	frameDoom

	episode          = 64 // frames of one kind per fresh console or world
	marioSampleEvery = 8  // sample the last frame of every 8th mario episode
	doomSampleEvery  = 16 // sample every 16th doom frame

	// wadBytes is the size core.NewSystem pads /d/doom1.wad to at its
	// default asset scale (2 MB / 8).
	wadBytes = (2 << 20) / 8
)

var framesRound = []int{frameMario: 3, frameDoom: 1}

func newFrames(seed uint64) *frames { return &frames{seed: seed, hseed: maphash.MakeSeed()} }

func (f *frames) options(*core.Options) {}

// frameKinds is round's seeded order of frame kinds.
func frameKinds(seed uint64, round int) []int {
	return roundKinds(newRand(seed, streamOps, uint64(round)), framesRound)
}

// frameKeys is the seeded input for one episode of a frame kind:
// controller bytes for mario, engine key bits for doom.
func frameKeys(seed uint64, kind, ep int) []byte {
	keys := seededBytes(seed, episode, streamKeys, uint64(kind), uint64(ep))
	if kind == frameDoom {
		for i := range keys {
			keys[i] &= doomlike.KeyForward | doomlike.KeyBack | doomlike.KeyLeft | doomlike.KeyRight
		}
	}
	return keys
}

func (f *frames) opName(i int) string {
	names := []string{frameMario: "mario frame", frameDoom: "doom frame"}
	return names[frameKinds(f.seed, i/4)[i%4]]
}

// prepare stops the WM's kernel thread before the process starts: the loop
// composites every mario frame itself, and WM.Composite must not run twice
// at once (two passes draw and flush the same pixels unlocked), nor beside
// a doom frame drawing into the same framebuffer.
func (f *frames) prepare(sys *core.System) error {
	f.k = sys.Kernel
	f.k.WM.Stop()
	for _, t := range f.k.Sched.Tasks() {
		if t.Name == "kwm" {
			<-t.Done()
		}
	}
	return f.tl.spawn(sys.Kernel, "frames", f.prep, f.loop, nil)
}

// prep loads the cartridge and the WAD from disk, opens the window, maps
// the framebuffer and renders a few untimed frames of each kind on
// throwaway state.
func (f *frames) prep(p *kernel.Proc) error {
	rom, err := readFile(p, "/roms/mario.rom")
	if err != nil {
		return err
	}
	if f.cart, err = nes.LoadCartridge(rom); err != nil {
		return err
	}
	if f.wad, err = readFile(p, "/d/doom1.wad"); err != nil {
		return err
	}
	if f.sfd, err = p.OpenSurface("mario", nes.ScreenW, nes.ScreenH); err != nil {
		return err
	}
	f.winX, f.winY = p.Surface().Pos()
	if f.fbmem, err = p.MapFramebuffer(); err != nil {
		return err
	}
	if f.efd, err = p.SysOpen("/dev/events", fs.ORdOnly|fs.ONonblock); err != nil {
		return err
	}
	f.evbuf = make([]byte, 8)
	f.frame = make([]byte, nes.ScreenW*nes.ScreenH*4)
	f.console = nes.NewConsole(f.cart)
	if f.world, err = doomlike.LoadWAD(f.wad); err != nil {
		return err
	}
	warm := &runner{}
	for i := 0; i < 16; i++ {
		if err := f.mario(p, warm, 0); err != nil {
			return err
		}
		if err := f.doom(p, warm, 0); err != nil {
			return err
		}
	}
	return nil
}

func (f *frames) loop(p *kernel.Proc, r *runner) error {
	r.loop(4, func(i int) error {
		if i%4 == 0 {
			f.kinds = frameKinds(f.seed, i/4)
		}
		if f.kinds[i%4] == frameMario {
			if f.marioN%episode == 0 {
				f.console = nes.NewConsole(f.cart)
			}
			key := frameKeys(f.seed, frameMario, f.marioN/episode)[f.marioN%episode]
			if err := f.mario(p, r, key); err != nil {
				return err
			}
			n := f.marioN
			f.marioN++
			if n%episode == episode-1 && (n/episode)%marioSampleEvery == 0 {
				f.sampleMario(n)
			}
			return nil
		}
		if f.doomN%episode == 0 {
			w, err := doomlike.LoadWAD(f.wad)
			if err != nil {
				return err
			}
			f.world = w
		}
		key := frameKeys(f.seed, frameDoom, f.doomN/episode)[f.doomN%episode]
		if err := f.doom(p, r, key); err != nil {
			return err
		}
		if f.doomN%doomSampleEvery == 0 {
			f.doomS = append(f.doomS, frameSample{f.doomN, maphash.Bytes(f.hseed, f.k.FB.Snapshot())})
		}
		f.doomN++
		return nil
	})
	return nil
}

// mario renders and presents one mario-sdl frame.
func (f *frames) mario(p *kernel.Proc, r *runner, key byte) error {
	t := r.clock()
	f.console.Controller = key
	f.console.StepFrame()
	f.console.Render(f.frame, nes.ScreenW*4)
	r.span("emulate", t)
	if f.console.CPU.Halted() {
		return fmt.Errorf("mario: cpu halted")
	}
	t = r.clock()
	_, err := p.SysWrite(f.sfd, f.frame)
	r.span("surface_write", t)
	if err != nil {
		return fmt.Errorf("mario: surface write: %w", err)
	}
	t = r.clock()
	f.k.WM.Composite()
	r.span("present", t)
	p.Checkpoint()
	r.opEnd()
	return nil
}

// doom renders one doom frame the way doomlike.Main does: drain key
// events without blocking, step, raycast into the framebuffer, flush.
func (f *frames) doom(p *kernel.Proc, r *runner, key byte) error {
	t := r.clock()
	_, err := p.SysRead(f.efd, f.evbuf)
	r.span("read", t)
	if err == nil {
		return fmt.Errorf("doom: unexpected input event")
	}
	t = r.clock()
	f.world.Step(key)
	fb := f.k.FB
	f.world.Render(f.fbmem, fb.Width(), fb.Height(), fb.Pitch())
	r.span("raycast", t)
	t = r.clock()
	err = p.SysCacheFlush(0, fb.Size())
	r.span("cacheflush", t)
	if err != nil {
		return fmt.Errorf("doom: cacheflush: %w", err)
	}
	p.Checkpoint()
	r.opEnd()
	return nil
}

// sampleMario records the hash of mario frame n and checks that the panel
// shows it.
func (f *frames) sampleMario(n int) {
	f.marioS = append(f.marioS, frameSample{n, maphash.Bytes(f.hseed, f.frame)})
	fb := f.k.FB
	if !f.panelShowsFrame(fb.Snapshot(), fb.Pitch()) && f.badShow == nil {
		f.badShow = fmt.Errorf("mario frame %d: panel does not show the frame written to the surface", n)
	}
}

func (f *frames) panelShowsFrame(panel []byte, pitch int) bool {
	row := nes.ScreenW * 4
	for y := 0; y < nes.ScreenH; y++ {
		o := (f.winY+y)*pitch + f.winX*4
		if !bytes.Equal(panel[o:o+row], f.frame[y*row:(y+1)*row]) {
			return false
		}
	}
	return true
}

func (f *frames) run(r *runner) error { return f.tl.run(r) }

func (f *frames) exitedSwitches() int64 { return 0 }

// check replays the sampled frames on independent state.
func (f *frames) check(sys *core.System) error {
	if err := f.tl.check(); err != nil {
		return err
	}
	if err := sys.Shutdown(); err != nil {
		return err
	}
	if f.badShow != nil {
		return f.badShow
	}
	if !bytes.Equal(f.wad, doomlike.BuildWAD(48, 32, wadBytes)) {
		return fmt.Errorf("doom: /d/doom1.wad differs from the generated WAD")
	}
	if len(f.marioS) == 0 || len(f.doomS) == 0 {
		return fmt.Errorf("frames: no frame sampled (%d mario, %d doom)", len(f.marioS), len(f.doomS))
	}
	cart, err := nes.BuildMarioROM("mario", 3)
	if err != nil {
		return err
	}
	frame := make([]byte, nes.ScreenW*nes.ScreenH*4)
	for _, s := range f.marioS {
		c := nes.NewConsole(cart)
		for n := s.n - s.n%episode; n <= s.n; n++ {
			c.Controller = frameKeys(f.seed, frameMario, n/episode)[n%episode]
			c.StepFrame()
		}
		c.Render(frame, nes.ScreenW*4)
		if maphash.Bytes(f.hseed, frame) != s.hash {
			return fmt.Errorf("mario frame %d differs from an independent console's", s.n)
		}
	}
	wad := doomlike.BuildWAD(48, 32, wadBytes)
	fb := sys.Kernel.FB
	img := make([]byte, fb.Size())
	for _, s := range f.doomS {
		world, err := doomlike.LoadWAD(wad)
		if err != nil {
			return err
		}
		for n := s.n - s.n%episode; n <= s.n; n++ {
			world.Step(frameKeys(f.seed, frameDoom, n/episode)[n%episode])
		}
		world.Render(img, fb.Width(), fb.Height(), fb.Pitch())
		if maphash.Bytes(f.hseed, img) != s.hash {
			return fmt.Errorf("doom frame %d on the panel differs from an independent world's", s.n)
		}
	}
	return nil
}

func (f *frames) discard(sys *core.System) { sys.Shutdown() }

// readFile reads a whole file through syscalls.
func readFile(p *kernel.Proc, path string) ([]byte, error) {
	fd, err := p.SysOpen(path, fs.ORdOnly)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer p.SysClose(fd)
	var out []byte
	buf := make([]byte, 64<<10)
	for {
		n, err := p.SysRead(fd, buf)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}
