package main

import (
	"time"

	"stashsim/internal/arb"
	"stashsim/internal/buffer"
	"stashsim/internal/core"
	"stashsim/internal/endpoint"
	"stashsim/internal/proto"
	"stashsim/internal/route"
	"stashsim/internal/sim"
	"stashsim/internal/stats"
	"stashsim/internal/traffic"
)

// Kernels are bench-owned loops over single public functions of the
// packages the hot path is built from. They do not depend on the
// workload: a traced run reports them so that a change in, say,
// core.switch_step_s can be traced to the DAMQ or the arbiter. Each is
// a fixed number of operations per batch, reported as the median
// ns/op of kernelBatches batches.
const (
	kernelBatches = 7
	kernelOps     = 20_000
)

// kernelSink keeps results alive so the compiler cannot drop the loops.
var kernelSink int

type kernel struct {
	name string
	// setup returns one batch: a function doing kernelOps operations on
	// fresh state.
	setup func() func()
}

func testFlit(i int) proto.Flit {
	return proto.Flit{
		Src: int32(i % 342), Dst: int32((i*7 + 1) % 342), MsgID: uint32(i),
		PktID: proto.MakePktID(int32(i%342), uint32(i)), Birth: int64(i),
		Size: 1, VC: uint8(i % proto.NumNetVCs), Kind: proto.Data,
		Flags: proto.FlagHead | proto.FlagTail, MidGroup: -1,
	}
}

type zeroQueues struct{}

func (zeroQueues) OutputQueue(int) int { return 0 }

var kernels = []kernel{
	{"buffer.damq_push_pop_ns", func() func() {
		d := buffer.NewDAMQ(1000, proto.NumNetVCs)
		return func() {
			for i := 0; i < kernelOps; i++ {
				f := testFlit(i)
				d.Push(f)
				g, _ := d.Pop(int(f.VC))
				kernelSink += int(g.Seq)
			}
		}
	}},
	{"buffer.stash_put_delete_ns", func() func() {
		p := buffer.NewStashPool(4096, true)
		return func() {
			for i := 0; i < kernelOps; i++ {
				f := testFlit(i)
				p.Reserve(1)
				p.PutCopy(f)
				p.Delete(f.PktID, 1)
			}
			kernelSink += p.Used()
		}
	}},
	{"buffer.stash_retr_ns", func() func() {
		p := buffer.NewStashPool(4096, false)
		return func() {
			for i := 0; i < kernelOps; i++ {
				p.Reserve(1)
				p.PutCongested(testFlit(i))
				g := p.RetrPop()
				kernelSink += int(g.Seq)
			}
		}
	}},
	{"buffer.parity_store_delete_ns", func() func() {
		const k = 4
		pools := make([]*buffer.StashPool, k+2)
		for i := range pools {
			pools[i] = buffer.NewStashPool(4096, false)
		}
		t := buffer.NewParityTracker(k, pools)
		return func() {
			// One operation enrolls a copy and, k copies later, retires
			// it: every k-th store seals a group and mints its parity.
			for i := 0; i < kernelOps; i++ {
				t.OnStore(uint64(i+1), 8, i%k)
				if i >= k {
					t.OnDelete(uint64(i + 1 - k))
				}
			}
			kernelSink += t.Members()
		}
	}},
	{"arb.rr_grantmask_ns", func() func() {
		rr := arb.NewRoundRobin(20)
		return func() {
			for i := 0; i < kernelOps; i++ {
				kernelSink += rr.GrantMask(uint64(i)*2654435761 | 1<<19)
			}
		}
	}},
	{"arb.separable_allocate_ns", func() func() {
		s := arb.NewSeparable(5, 5)
		req := make([]uint64, 5)
		return func() {
			for i := 0; i < kernelOps; i++ {
				for j := range req {
					req[j] = uint64(i*(j+3)) & 0x1f
				}
				kernelSink += s.Allocate(req)[0]
			}
		}
	}},
	{"core.link_flit_ns", func() func() {
		l := core.NewLink(4)
		return func() {
			for i := 0; i < kernelOps; i++ {
				now := int64(i)
				l.SendFlit(now, testFlit(i))
				if f, ok := l.RecvFlit(now); ok {
					kernelSink += int(f.Seq)
				}
			}
		}
	}},
	{"core.link_credit_ns", func() func() {
		l := core.NewLink(4)
		return func() {
			for i := 0; i < kernelOps; i++ {
				now := int64(i)
				l.SendCredit(now, proto.Credit{VC: uint8(i % proto.NumNetVCs)})
				if c, ok := l.RecvCredit(now); ok {
					kernelSink += int(c.VC)
				}
			}
		}
	}},
	{"route.route_ns", func() func() {
		cfg := core.SmallConfig()
		r := route.New(cfg.Topo, cfg.Route, sim.NewRNG(1))
		return func() {
			for i := 0; i < kernelOps; i++ {
				f := testFlit(i)
				kernelSink += r.Route(&f, i%cfg.Topo.NumSwitches(), zeroQueues{}).Out
			}
		}
	}},
	{"proto.flit_codec_ns", func() func() {
		buf := make([]byte, 0, 128)
		return func() {
			for i := 0; i < kernelOps; i++ {
				f := testFlit(i)
				buf = proto.AppendFlit(buf[:0], &f)
				g, n, err := proto.DecodeFlit(buf)
				if err != nil {
					panic(err)
				}
				kernelSink += n + int(g.Seq)
			}
		}
	}},
	{"traffic.uniform_next_ns", func() func() {
		cfg := core.SmallConfig()
		rng := sim.NewRNG(1)
		ep := endpoint.New(0, cfg, rng)
		gen := traffic.Uniform(rng.Derive(7), cfg.Topo.NumEndpoints(), nil, 0.3, 10.0/13, proto.MaxPacketFlits, proto.ClassDefault, 0)
		return func() {
			for i := 0; i < kernelOps; i++ {
				gen(sim.Tick(i), ep)
			}
			kernelSink += int(ep.QueuedFlits())
		}
	}},
	{"stats.hist_add_ns", func() func() {
		h := &stats.Hist{}
		return func() {
			for i := 0; i < kernelOps; i++ {
				h.Add(int64(i*37) & 0xffff)
			}
			kernelSink += int(h.N())
		}
	}},
}

// kernelMetrics runs every kernel and returns its median ns/op.
func kernelMetrics() map[string]float64 {
	out := make(map[string]float64, len(kernels))
	for _, k := range kernels {
		samples := make([]float64, kernelBatches)
		for b := range samples {
			batch := k.setup()
			start := time.Now()
			batch()
			samples[b] = float64(time.Since(start).Nanoseconds()) / kernelOps
		}
		out[k.name] = median(samples)
	}
	return out
}
