package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// logTick returns a Tick that records "cycle:name" in log and the cycle
// in *ticks, then returns next(now), or now+1 when next is nil.
func logTick(name string, log *[]string, ticks *[]int64, next func(now int64) int64) func(int64) int64 {
	return func(now int64) int64 {
		if ticks != nil {
			*ticks = append(*ticks, now)
		}
		*log = append(*log, fmt.Sprintf("%d:%s", now, name))
		if next != nil {
			return next(now)
		}
		return now + 1
	}
}

// TestKernelPhaseOrdering registers a component in every phase (two in
// one phase to pin registration order) and asserts the per-cycle call
// sequence matches the documented Deliver..Audit order.
func TestKernelPhaseOrdering(t *testing.T) {
	k := NewKernel()
	var log []string
	names := []string{}
	for ph := Phase(0); int(ph) < NumPhases; ph++ {
		k.Register(Component{Name: ph.String(), Phase: ph, Tick: logTick(ph.String(), &log, nil, nil)})
		names = append(names, ph.String())
	}
	// A second Arbitrate component, registered after every first-wave
	// component, must still tick right after the first Arbitrate one.
	k.Register(Component{Name: "arbitrate2", Phase: PhaseArbitrate, Tick: logTick("arbitrate2", &log, nil, nil)})

	k.RunUntil(3)

	var want []string
	for cyc := int64(0); cyc < 3; cyc++ {
		for _, n := range names {
			want = append(want, fmt.Sprintf("%d:%s", cyc, n))
			if n == PhaseArbitrate.String() {
				want = append(want, fmt.Sprintf("%d:arbitrate2", cyc))
			}
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("call sequence:\n got %v\nwant %v", log, want)
	}
	if k.Now() != 3 {
		t.Fatalf("Now() = %d, want 3", k.Now())
	}
}

// TestKernelIdleSkip checks that a self-scheduling component ticks on
// exactly the cycles it asked for, and that the clock lands on the run
// boundary even when the last wake is beyond it.
func TestKernelIdleSkip(t *testing.T) {
	var log []string
	var ticks []int64
	k := NewKernel()
	k.Register(Component{Name: "p", Phase: PhaseInject,
		Tick: logTick("p", &log, &ticks, func(now int64) int64 { return now + 5 })})
	k.RunUntil(12)

	if want := []int64{0, 5, 10}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	if k.Now() != 12 {
		t.Fatalf("Now() = %d, want 12", k.Now())
	}
}

// TestKernelIdleSkipOffEquivalence runs the same component with and
// without idle-skip. With skip off every component ticks on every cycle
// (the pre-kernel reference loop); with skip on only the self-declared
// wake cycles tick. A component honouring the sleeping-is-unobservable
// contract acts identically either way — the kernel invariant the
// full-system equivalence test leans on.
func TestKernelIdleSkipOffEquivalence(t *testing.T) {
	// The worker acts (mutates state) only on cycles that are a multiple
	// of its stride, whether or not it is ticked on other cycles.
	run := func(skip bool) (ticks, acted []int64) {
		k := NewKernel()
		k.SetIdleSkip(skip)
		k.Register(Component{Name: "w", Phase: PhaseMemTick, Tick: func(now int64) int64 {
			ticks = append(ticks, now)
			if now%7 == 0 {
				acted = append(acted, now)
			}
			return (now/7 + 1) * 7
		}})
		k.RunUntil(60)
		return ticks, acted
	}
	onTicks, onActed := run(true)
	offTicks, offActed := run(false)
	if !reflect.DeepEqual(onActed, offActed) {
		t.Fatalf("idle-skip on acted %v != off %v", onActed, offActed)
	}
	// Skip on ticks only the declared wake cycles; off ticks all 60.
	if want := []int64{0, 7, 14, 21, 28, 35, 42, 49, 56}; !reflect.DeepEqual(onTicks, want) {
		t.Fatalf("skip-on ticks = %v, want %v", onTicks, want)
	}
	if len(offTicks) != 60 {
		t.Fatalf("skip-off ticked %d cycles, want all 60", len(offTicks))
	}
}

// TestKernelWakeSameCycle checks the cross-phase wake contract: a wake
// for the current cycle issued from an earlier phase ticks the target
// this cycle; one issued after the target's phase ran lands next cycle.
func TestKernelWakeSameCycle(t *testing.T) {
	var log []string
	var sleeperTicks, lateTicks []int64
	never := func(int64) int64 { return Never }
	k := NewKernel()
	hs := k.Register(Component{Name: "sleeper", Phase: PhaseComplete,
		Tick: logTick("sleeper", &log, &sleeperTicks, never)})
	hl := k.Register(Component{Name: "late", Phase: PhaseDeliver,
		Tick: logTick("late", &log, &lateTicks, never)})
	k.Register(Component{Name: "admit", Phase: PhaseAdmit,
		Tick: logTick("admit", &log, nil, func(now int64) int64 {
			if now == 2 {
				hs.Wake(now) // Complete runs later this cycle
				hl.Wake(now) // Deliver already ran: clamps to next cycle
			}
			return now + 1
		})})
	k.RunUntil(4)

	if want := []int64{0, 2}; !reflect.DeepEqual(sleeperTicks, want) {
		t.Fatalf("same-cycle wake ticks = %v, want %v", sleeperTicks, want)
	}
	// late ticked at 0 (initial), then its Wake(2) could only take
	// effect at cycle 3 — its phase had already run at cycle 2.
	if want := []int64{0, 3}; !reflect.DeepEqual(lateTicks, want) {
		t.Fatalf("past-phase wake ticks = %v, want %v", lateTicks, want)
	}
}

// TestKernelInvalidPhase ensures registration rejects out-of-range
// phases instead of silently dropping the component.
func TestKernelInvalidPhase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted an invalid phase")
		}
	}()
	NewKernel().Register(Component{Name: "bad", Phase: Phase(99), Tick: func(now int64) int64 { return now + 1 }})
}

// noopKernel returns a kernel with n always-awake components that do no
// work, spread round-robin over the phases.
func noopKernel(n int) *Kernel {
	k := NewKernel()
	for i := 0; i < n; i++ {
		k.Register(Component{Name: fmt.Sprintf("noop%d", i), Phase: Phase(i % NumPhases),
			Tick: func(now int64) int64 { return now + 1 }})
	}
	return k
}

// TestKernelStepAllocs pins that dispatch allocates nothing per cycle.
func TestKernelStepAllocs(t *testing.T) {
	k := noopKernel(64)
	if a := testing.AllocsPerRun(100, k.Step); a != 0 {
		t.Fatalf("Step allocates %v times per cycle, want 0", a)
	}
}

// BenchmarkKernelDispatch measures the kernel's own per-cycle cost: one
// Step over n always-awake no-op components.
func BenchmarkKernelDispatch(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			k := noopKernel(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
