package main

import (
	"math"
	"math/rand/v2"
	"strings"
)

// Seeded inputs. Every workload draws its op sequence and its input bytes
// from the run's seed through these helpers, so one seed always yields the
// same ops and the same bytes, and the program under test only ever sees
// the generated inputs. Sizes are stratified — each seed draws one value
// from every stratum, then shuffles — so the make-up of the inputs is the
// same on every seed and only their order and contents move.

// Stream tags keep the generators of one run apart.
const (
	streamOps   = 1 // a workload's per-round op order and targets
	streamBytes = 2 // file and payload contents
	streamSizes = 3 // stratified sizes
	streamText  = 4 // launch text files
	streamKeys  = 5 // controller and key input for the frames workload
)

// newRand returns the generator for one stream of seed; the ids pick a
// sub-stream (a round, a file, a version).
func newRand(seed uint64, stream uint64, ids ...uint64) *rand.Rand {
	h := stream*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, id := range ids {
		h ^= id + 0x9E3779B97F4A7C15 + h<<6 + h>>2
	}
	return rand.New(rand.NewPCG(seed, h))
}

// seededBytes returns n bytes of one sub-stream.
func seededBytes(seed uint64, n int, ids ...uint64) []byte {
	r := newRand(seed, streamBytes, ids...)
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// roundKinds returns one round's op kinds: counts[k] ops of kind k, in a
// seeded order. Every round has the same make-up, so any whole number of
// rounds has the workload's exact mix.
func roundKinds(r *rand.Rand, counts []int) []int {
	var out []int
	for k, n := range counts {
		for i := 0; i < n; i++ {
			out = append(out, k)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stratified draws n sizes from [lo, hi]: one uniformly inside each of n
// equal strata (geometric strata when geometric is set), then shuffled.
// The ids pick the sub-stream.
func stratified(seed uint64, n, lo, hi int, geometric bool, ids ...uint64) []int {
	r := newRand(seed, streamSizes, ids...)
	out := make([]int, n)
	for i := range out {
		var a, b float64
		if geometric {
			ratio := float64(hi) / float64(lo)
			a = float64(lo) * math.Pow(ratio, float64(i)/float64(n))
			b = float64(lo) * math.Pow(ratio, float64(i+1)/float64(n))
		} else {
			w := float64(hi-lo+1) / float64(n)
			a = float64(lo) + w*float64(i)
			b = a + w
		}
		v := int(a + r.Float64()*(b-a))
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[i] = v
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// words is the launch workload's vocabulary: text files are lines of these
// words, and grep patterns are drawn from them.
var words = []string{
	"kernel", "proto", "frame", "pixel", "sched", "inode", "cache", "block",
	"queue", "merge", "flush", "dirty", "panic", "trap", "core", "timer",
	"pipe", "fork", "exec", "wait", "mmap", "page", "fault", "irq",
	"uart", "surface", "window", "doom", "mario", "sound", "journal", "dentry",
}

// textFile returns a seeded text file of about size bytes: lines of 1–12
// vocabulary words separated by single spaces or tabs, each line ending in
// a newline.
func textFile(seed uint64, id uint64, size int) []byte {
	r := newRand(seed, streamText, id)
	var b strings.Builder
	for b.Len() < size {
		n := 1 + r.IntN(12)
		for w := 0; w < n; w++ {
			if w > 0 {
				if r.IntN(8) == 0 {
					b.WriteByte('\t')
				} else {
					b.WriteByte(' ')
				}
			}
			b.WriteString(words[r.IntN(len(words))])
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
