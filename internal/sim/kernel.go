package sim

import (
	"fmt"
	"math"
)

// Phase orders the work of one simulated cycle. The kernel ticks every
// due component of a phase (in registration order) before moving to the
// next, so the system-wide intra-cycle ordering the monolithic runner
// hand-wired is reproduced by construction:
//
//	Deliver   — links move last cycle's flits and credits
//	Arbitrate — routers allocate output channels and forward flits
//	Admit     — sinks drain and hand packets to the memory subsystem
//	MemTick   — the memory controller drives the command bus
//	Complete  — response consumers retire finished requests
//	Inject    — traffic sources generate and NIs launch new flits
//	Audit     — observers sample and checkers audit the settled cycle
type Phase int

const (
	PhaseDeliver Phase = iota
	PhaseArbitrate
	PhaseAdmit
	PhaseMemTick
	PhaseComplete
	PhaseInject
	PhaseAudit

	// NumPhases counts the phases above.
	NumPhases = int(PhaseAudit) + 1
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseDeliver:
		return "deliver"
	case PhaseArbitrate:
		return "arbitrate"
	case PhaseAdmit:
		return "admit"
	case PhaseMemTick:
		return "memtick"
	case PhaseComplete:
		return "complete"
	case PhaseInject:
		return "inject"
	case PhaseAudit:
		return "audit"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Never is the wake time of a component with no self-scheduled future
// work: it sleeps until some other component wakes its Handle.
const Never = int64(math.MaxInt64)

// Component is one clocked unit of the simulation. The kernel calls
// Tick(now) on every cycle the component is awake; Tick performs one
// cycle of work and returns the next cycle it must run.
//
// The wakeup contract: Tick returns the next wake — the earliest future
// cycle the component could possibly act, judged from its own state
// alone — or Never when only external input (a flit arrival, a credit
// return, a completion) can make it actable, in which case whoever
// produces that input must Wake the component's Handle. A returned cycle
// not after now means now+1. Sleeping must be unobservable: a component
// may only sleep through cycles where its Tick would not have changed
// any state (its own or the counters it maintains). Returning now+1
// every cycle is always correct — idle-skip is then just never applied —
// so components opt into skipping only where idleness is provably a
// no-op.
type Component struct {
	// Name identifies the component in diagnostics.
	Name string
	// Phase declares the intra-cycle slot the component ticks in.
	Phase Phase
	// Tick performs one cycle of work and returns the next wake.
	Tick func(now int64) (next int64)
}

// Handle is a registered component's scheduling slot. Producers of
// external input hold the consumer's Handle and Wake it.
type Handle struct {
	tick   func(now int64) int64
	k      *Kernel
	wakeAt int64
}

// Wake schedules the component to tick at cycle at (clamped to the
// current cycle: waking into the past means "as soon as possible", and
// a component whose phase already ran this cycle ticks next cycle).
// Waking an already-earlier-scheduled component is a no-op; Wake only
// ever moves the wake time forward in urgency, never later.
func (h *Handle) Wake(at int64) {
	if at < h.k.now {
		at = h.k.now
	}
	if at < h.wakeAt {
		h.wakeAt = at
	}
}

// Kernel owns the simulation clock and the registered components. Step
// advances one cycle in phase order; RunUntil additionally fast-forwards
// the clock over cycles where every component sleeps (idle-skip).
type Kernel struct {
	now      int64
	byPhase  [NumPhases][]*Handle
	handles  []*Handle
	idleSkip bool
}

// NewKernel returns an empty kernel at cycle 0 with idle-skip enabled.
func NewKernel() *Kernel { return &Kernel{idleSkip: true} }

// SetIdleSkip toggles the activity protocol as a whole. Off, the kernel
// ignores every wake time: all registered components tick on every
// cycle, reproducing the monolithic pre-kernel loop — the reference
// behavior the equivalence tests compare against. Because sleeping must
// be unobservable (see Component), results are identical either way;
// only wall-clock time differs. Toggle before running, not mid-run.
func (k *Kernel) SetIdleSkip(on bool) { k.idleSkip = on }

// Now returns the current cycle.
func (k *Kernel) Now() int64 { return k.now }

// Register adds a component, initially awake at the current cycle.
// Registration order is tick order within a phase and must therefore be
// deterministic.
func (k *Kernel) Register(c Component) *Handle {
	p := c.Phase
	if p < 0 || int(p) >= NumPhases {
		panic(fmt.Sprintf("sim: component %q has invalid phase %d", c.Name, p))
	}
	h := &Handle{tick: c.Tick, k: k, wakeAt: k.now}
	k.byPhase[p] = append(k.byPhase[p], h)
	k.handles = append(k.handles, h)
	return h
}

// Step advances exactly one cycle: every awake component ticks, phase by
// phase, then the clock increments. A component woken for the current
// cycle during an earlier phase still ticks this cycle; one woken after
// its own phase ran ticks next cycle. With idle-skip off every
// component ticks regardless of its wake time.
func (k *Kernel) Step() {
	now := k.now
	for _, phase := range &k.byPhase {
		for _, h := range phase {
			if k.idleSkip && h.wakeAt > now {
				continue
			}
			if w := h.tick(now); w > now {
				h.wakeAt = w
			} else {
				h.wakeAt = now + 1
			}
		}
	}
	k.now = now + 1
}

// nextWake returns the earliest pending wake across all components.
func (k *Kernel) nextWake() int64 {
	min := Never
	for _, h := range k.handles {
		if h.wakeAt < min {
			min = h.wakeAt
		}
	}
	return min
}

// RunUntil advances the clock to cycle end (exclusive of further work:
// afterwards Now() == end and no component has ticked at end). With
// idle-skip on, stretches where every component sleeps are crossed in
// one assignment instead of being ticked through.
func (k *Kernel) RunUntil(end int64) {
	for k.now < end {
		if k.idleSkip {
			if nw := k.nextWake(); nw > k.now {
				if nw >= end {
					k.now = end
					return
				}
				k.now = nw
			}
		}
		k.Step()
	}
}
