package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"protosim/internal/core"
	"protosim/internal/kernel"
	"protosim/internal/kernel/net"
	"protosim/internal/user/apps/chanserv"
	"protosim/internal/user/ulib"
)

// echo is the network column: a host-side client on the peer NIC's
// net.Stack keeps one connection to chanserv, alone in its room, so every
// frame it sends is broadcast straight back. It sends one seeded-size
// frame at a time (16 B – 8 KiB, one from each of eight size strata per
// round); an op is one frame and its echo.
//
// Check: every reply equals its request byte for byte.
type echo struct {
	seed uint64
	peer *net.Stack
	sk   *net.Socket
	dec  ulib.FrameDecoder
	pool []byte // seeded payload bytes; a frame is a window of them
	wire []byte // length prefix + payload being sent
	rbuf []byte
	ops  []echoOp
	bad  error // first reply mismatch
}

// echoOp is one frame: its size and where its payload starts in the pool.
type echoOp struct{ size, off int }

const (
	echoRoundSize = 8
	echoMin       = 16
	echoMax       = 8 << 10
	echoPool      = 64 << 10
)

func newEcho(seed uint64) *echo {
	return &echo{
		seed: seed,
		pool: seededBytes(seed, echoPool, 4),
		wire: make([]byte, ulib.FrameHdrSize+echoMax),
		rbuf: make([]byte, 16<<10),
	}
}

func (e *echo) options(o *core.Options) { o.EnableNet = true }

// echoOps is round's frames: one size from each geometric stratum of
// [16 B, 8 KiB], in a seeded order, each at a seeded pool offset.
func echoOps(seed uint64, round int) []echoOp {
	sizes := stratified(seed, echoRoundSize, echoMin, echoMax, true, 20, uint64(round))
	r := newRand(seed, streamOps, uint64(round))
	ops := make([]echoOp, len(sizes))
	for i, s := range sizes {
		ops[i] = echoOp{s, r.IntN(echoPool - s + 1)}
	}
	return ops
}

func (e *echo) opName(i int) string {
	return fmt.Sprintf("echo of a %d-byte frame", echoOps(e.seed, i/echoRoundSize)[i%echoRoundSize].size)
}

// prepare starts chanserv, connects from the peer, joins a room of one and
// echoes a warm-up round of every size.
func (e *echo) prepare(sys *core.System) error {
	e.peer = net.NewStack("peer0", kernel.NetPeerHost, sys.Machine.PeerNIC, net.Options{
		After: func(d time.Duration, fn func()) func() bool { return time.AfterFunc(d, fn).Stop },
	})
	sys.Machine.PeerNIC.SetNotify(e.peer.IRQ)
	sys.Kernel.Spawn("chanserv", 0, func(p *kernel.Proc, argv []string) int {
		return chanserv.Main(p, argv)
	}, []string{"chanserv"})
	deadline := time.Now().Add(10 * time.Second)
	for {
		sk := e.peer.NewSocket()
		err := sk.Connect(nil, net.Addr{Host: kernel.NetLocalHost, Port: chanserv.DefaultPort})
		if err == nil {
			e.sk = sk
			break
		}
		sk.Close(nil)
		if time.Now().After(deadline) {
			return fmt.Errorf("echo: connect: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.send([]byte("bench")); err != nil {
		return err
	}
	warm := &runner{}
	for round := 0; round < 4; round++ {
		for _, op := range echoOps(e.seed+1, round) {
			if err := e.roundTrip(warm, e.pool[op.off:op.off+op.size]); err != nil {
				return err
			}
		}
	}
	e.bad = nil
	return nil
}

func (e *echo) run(r *runner) error {
	r.loop(echoRoundSize, func(i int) error {
		if i%echoRoundSize == 0 {
			e.ops = echoOps(e.seed, i/echoRoundSize)
		}
		op := e.ops[i%echoRoundSize]
		return e.roundTrip(r, e.pool[op.off:op.off+op.size])
	})
	return nil
}

// roundTrip sends payload as one frame and reads until its echo is whole.
func (e *echo) roundTrip(r *runner, payload []byte) error {
	t := r.clock()
	if err := e.send(payload); err != nil {
		return err
	}
	r.span("send", t)
	t = r.clock()
	var reply []byte
	for reply == nil {
		f, err := e.dec.Next()
		if err != nil {
			return fmt.Errorf("echo: decode: %w", err)
		}
		if f != nil {
			reply = f
			break
		}
		n, err := e.sk.Read(nil, e.rbuf)
		if err != nil {
			return fmt.Errorf("echo: read: %w", err)
		}
		if n == 0 {
			return fmt.Errorf("echo: read: %w", io.EOF)
		}
		e.dec.Feed(e.rbuf[:n])
	}
	r.span("reply", t)
	r.opEnd()
	if e.bad == nil && !bytes.Equal(reply, payload) {
		e.bad = fmt.Errorf("echo: a %d-byte frame came back as %d different bytes", len(payload), len(reply))
	}
	return nil
}

// send writes payload as one length-prefixed frame.
func (e *echo) send(payload []byte) error {
	binary.BigEndian.PutUint32(e.wire, uint32(len(payload)))
	n := copy(e.wire[ulib.FrameHdrSize:], payload)
	buf := e.wire[:ulib.FrameHdrSize+n]
	for len(buf) > 0 {
		w, err := e.sk.Write(nil, buf)
		if err != nil {
			return fmt.Errorf("echo: write: %w", err)
		}
		buf = buf[w:]
	}
	return nil
}

func (e *echo) exitedSwitches() int64 { return 0 }

func (e *echo) check(sys *core.System) error {
	e.discard(sys)
	return e.bad
}

func (e *echo) discard(sys *core.System) {
	if e.sk != nil {
		e.sk.Close(nil)
	}
	e.peer.Close()
	sys.Shutdown()
}
