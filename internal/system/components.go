package system

import (
	"fmt"

	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// meshNext is a mesh's next wake: the next cycle while anything is in
// flight, else Never until an injection or credit return wakes it.
func meshNext(m *noc.Mesh, now int64) int64 {
	if m.Activity() > 0 {
		return now + 1
	}
	return sim.Never
}

// buildKernel registers the wired subsystems with a fresh simulation
// kernel. Phase order plus registration order reproduce the exact
// intra-cycle sequence of the pre-kernel monolithic Step:
//
//	Deliver   req links, resp links
//	Arbitrate req routers, resp routers
//	Admit     memory sink drain + controller admission
//	MemTick   memory controller
//	Complete  per-core response sink drain + split retirement
//	Inject    response injector, then per-core generation + injection
//	Audit     observability sampling, checked-mode mesh audits
//
// (The old Step drained core sinks before the controller ticked and
// retired splits after; both halves touch disjoint state — the resp
// mesh's sinks versus the request pipeline — so folding them into one
// Complete component after MemTick is order-equivalent.)
//
// The wake each tick returns gives the activity-driven idle-skip its
// soundness: a component only sleeps through cycles its tick provably
// would not change state, and every producer of cross-component input
// wakes the consumer's handle.
func (r *Runner) buildKernel() {
	k := sim.NewKernel()
	r.kern = k

	regMesh := func(name string, m *noc.Mesh) {
		hd := k.Register(sim.Component{Name: name + "-links", Phase: sim.PhaseDeliver, Tick: func(now int64) int64 {
			m.Deliver(now)
			return meshNext(m, now)
		}})
		ha := k.Register(sim.Component{Name: name + "-routers", Phase: sim.PhaseArbitrate, Tick: func(now int64) int64 {
			m.Arbitrate(now)
			return meshNext(m, now)
		}})
		m.OnWake = func() {
			// Work appears outside the mesh's own phases (an injector
			// launch, a sink credit return), so this cycle's Deliver and
			// Arbitrate have already run: deliver it next cycle, exactly
			// when the always-ticked mesh would have.
			at := k.Now() + 1
			hd.Wake(at)
			ha.Wake(at)
		}
	}
	regMesh("req", r.reqMesh)
	regMesh("resp", r.respMesh)

	// chName suffixes a component name with its channel on multi-channel
	// runs only, so single-channel kernels keep the seed's exact names.
	chName := func(base string, ch int) string {
		if len(r.devs) == 1 {
			return base
		}
		return fmt.Sprintf("%s/ch%d", base, ch)
	}

	for ch := range r.devs {
		ch := ch
		sink, ctrl := r.memSinks[ch], r.ctrls[ch]
		hAdmit := k.Register(sim.Component{
			Name: chName("mem-admit", ch), Phase: sim.PhaseAdmit,
			Tick: func(now int64) int64 {
				sink.Step(now)
				for {
					p := sink.Peek()
					if p == nil || !ctrl.Offer(p, now) {
						break
					}
					sink.Pop(now)
					// The controller must see the admission this cycle. (A
					// refused Offer needs no wake: every refusal reason —
					// refresh drain, a full window, a backlogged thread
					// queue — implies the controller is already awake.)
					r.hMems[ch].Wake(now)
				}
				if sink.Occupied() > 0 || sink.Ready() > 0 {
					return now + 1
				}
				return sim.Never
			},
		})
		sink.OnArrival = func(now int64) { hAdmit.Wake(now) }
	}

	for ch := range r.devs {
		ctrl := r.ctrls[ch]
		r.hMems = append(r.hMems, k.Register(sim.Component{
			Name: chName("memctrl", ch), Phase: sim.PhaseMemTick,
			Tick: func(now int64) int64 {
				ctrl.Tick(now)
				return ctrl.NextEvent(now)
			},
		}))
	}

	for _, c := range r.cores {
		c := c
		hc := k.Register(sim.Component{
			Name: "core-complete/" + c.spec.Name, Phase: sim.PhaseComplete,
			Tick: func(now int64) int64 {
				c.sink.Step(now)
				for {
					p := c.sink.Pop(now)
					if p == nil {
						break
					}
					r.completeSplit(p, now)
					// The response packet's journey ends here; recycle it.
					r.freePkt(p)
				}
				if c.sink.Occupied() > 0 || c.sink.Ready() > 0 {
					return now + 1
				}
				return sim.Never
			},
		})
		c.sink.OnArrival = func(now int64) { hc.Wake(now) }
	}

	for ch := range r.devs {
		inj := r.respInjs[ch]
		r.hRespInjs = append(r.hRespInjs, k.Register(sim.Component{
			Name: chName("resp-inject", ch), Phase: sim.PhaseInject,
			Tick: func(now int64) int64 {
				inj.Step(now)
				if inj.QueueLen() > 0 {
					return now + 1
				}
				return sim.Never
			},
		}))
	}

	for i, c := range r.cores {
		i, c := i, c
		h := k.Register(sim.Component{
			Name: "core-inject/" + c.spec.Name, Phase: sim.PhaseInject,
			Tick: func(now int64) int64 {
				blocked := c.inj.QueueFlits() >= r.cfg.InjectCap
				if blocked {
					// The injection backpressure point: this core's
					// generators lose the cycle. Counted once per core per
					// cycle — a backlogged injector keeps the component
					// awake, so no stall cycle is skipped.
					r.met.Stalled++
					r.stalls[i]++
				}
				for _, g := range c.gens {
					req := g.Tick(now, blocked)
					if req == nil {
						continue
					}
					r.injectLogical(c, g, req, now)
				}
				c.inj.Step(now)
				if c.inj.QueueFlits() > 0 {
					return now + 1
				}
				next := sim.Never
				for _, g := range c.gens {
					if a := g.NextArrival(); a < next {
						next = a
					}
				}
				return next
			},
		})
		r.hInject = append(r.hInject, h)
	}

	if se := r.cfg.SampleEvery; se > 0 {
		k.Register(sim.Component{
			Name: "obs-sample", Phase: sim.PhaseAudit,
			Tick: func(now int64) int64 {
				if (now+1)%se == 0 {
					r.sample(now+1, se)
				}
				// The smallest n > now with (n+1) divisible by se: sampling
				// windows close on exact cycles even across skipped gaps.
				return (now+1+se)/se*se - 1
			},
		})
	}

	if r.chk != nil {
		// Checked mode audits every settled cycle, which also pins the
		// kernel to visit every cycle — the conservation walks are
		// per-cycle invariants, not samplable ones.
		k.Register(sim.Component{
			Name: "check-audit", Phase: sim.PhaseAudit,
			Tick: func(now int64) int64 {
				r.auditMeshes(now)
				return now + 1
			},
		})
	}
}
