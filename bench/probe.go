package main

import (
	"sync/atomic"
	"time"
)

// The host probe. This benchmark was sized on a shared host whose speed
// changes in phases that last from half a minute to an hour: the same
// block of simulated cycles takes 0.46 s in one phase and 0.72 s in
// another, while an ALU-only loop does not move. A dependent random
// walk over a 16 MB table slows down with the simulator, though not by
// the same factor on every workload (README.md, "Noise measured on this
// host", has the fit per workload), so every run interleaves that walk
// with its timed blocks and reports host times divided by how much
// slower than nominal the walk ran; the times as measured are reported
// beside them. The probe is the benchmark's own code and touches
// nothing of the simulator, so both sides of a comparison are scaled by
// the same yardstick.
const (
	probeWords = 4 << 20 // uint32 entries: a 16 MB table
	// probeNominalNS is what one step costs on the quiet reference host.
	// On another host it only rescales the reported times by a constant.
	probeNominalNS = 120.0
)

type hostProbe struct {
	table []uint32
	steps int
	// busy is set for a workload that steps the network with two
	// workers: the probe then measures the host with both CPUs occupied,
	// as that workload finds it. The second CPU is kept busy by the
	// benchmark itself and not left to the executor's workers, which spin
	// in their barrier between timed blocks today but may park tomorrow:
	// the slowdown must not move with how the executor waits.
	busy    bool
	samples []float64 // ns per step, one per sample call
	sink    uint32
}

func newHostProbe(steps int, busy bool) *hostProbe {
	p := &hostProbe{table: make([]uint32, probeWords), steps: steps, busy: busy}
	x := uint32(1)
	for i := range p.table {
		x = x*1664525 + 1013904223
		p.table[i] = x % probeWords
	}
	return p
}

// sample walks the table once and records the cost per step. A busy
// probe keeps a second CPU occupied with a spinner of its own meanwhile.
func (p *hostProbe) sample() {
	if p.busy {
		var stop atomic.Bool
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			for !stop.Load() {
			}
		}()
		defer func() {
			stop.Store(true)
			<-stopped
		}()
	}
	start := time.Now()
	at := p.sink % probeWords
	for i := 0; i < p.steps; i++ {
		at = (p.table[at] + uint32(i)) % probeWords
	}
	p.sink = at
	p.samples = append(p.samples, float64(time.Since(start).Nanoseconds())/float64(p.steps))
}

// slowdown is how much slower than nominal the host ran the probe over
// this run: 1 on the quiet reference host, 1.3 in a bad phase. A run
// that never sampled reads 1.
func (p *hostProbe) slowdown() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	var sum float64
	for _, s := range p.samples {
		sum += s
	}
	return sum / float64(len(p.samples)) / probeNominalNS
}
