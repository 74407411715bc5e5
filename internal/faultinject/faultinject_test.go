package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestDisabledIsNoOp(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() with no plan")
	}
	if err := Fire(CacheDiskWrite); err != nil {
		t.Fatalf("disabled Fire returned %v", err)
	}
	if Stats() != nil {
		t.Fatal("Stats() non-nil with no plan")
	}
}

// The disabled path must be allocation-free: fault points sit on integrator
// and model hot loops, so the production (no-plan) state cannot churn the
// heap. This mirrors the obs no-op guarantee.
func TestDisabledPathAllocationFree(t *testing.T) {
	Disable()
	if n := testing.AllocsPerRun(1000, func() {
		_ = Fire(OscEvalNaN)
		_ = Fire(CacheDiskRead)
	}); n != 0 {
		t.Fatalf("disabled Fire allocates %v per run, want 0", n)
	}
}

func TestErrorModeFiresAndClassifies(t *testing.T) {
	defer Enable(Plan{SweepAttempt: {Mode: ModeError}})()
	err := Fire(SweepAttempt)
	if err == nil {
		t.Fatal("active error point did not fire")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error %v does not wrap ErrInjected", err)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Point != SweepAttempt {
		t.Fatalf("injected error %v does not carry the point name", err)
	}
	// Unconfigured points stay silent under an active plan.
	if err := Fire(CacheDiskRead); err != nil {
		t.Fatalf("unconfigured point fired: %v", err)
	}
	st := Stats()
	if st[SweepAttempt].Hits != 1 || st[SweepAttempt].Fired != 1 {
		t.Fatalf("stats: %+v", st[SweepAttempt])
	}
}

func TestAfterAndCountWindows(t *testing.T) {
	defer Enable(Plan{CacheDiskWrite: {Mode: ModeError, After: 2, Count: 3}})()
	var fired int
	for i := 0; i < 10; i++ {
		if Fire(CacheDiskWrite) != nil {
			fired++
			if i < 2 {
				t.Fatalf("fired on hit %d, inside the After window", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3 (Count)", fired)
	}
	st := Stats()[CacheDiskWrite]
	if st.Hits != 10 || st.Fired != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestProbIsSeededAndDeterministic(t *testing.T) {
	run := func() []bool {
		defer Enable(Plan{OscEvalDelay: {Mode: ModeError, Prob: 0.5, Seed: 7}})()
		out := make([]bool, 64)
		for i := range out {
			out[i] = Fire(OscEvalDelay) != nil
		}
		return out
	}
	a, b := run(), run()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs across identically-seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("Prob=0.5 fired %d/%d — not probabilistic", fired, len(a))
	}
}

func TestDelayMode(t *testing.T) {
	defer Enable(Plan{ServeHandlerLatency: {Mode: ModeDelay, Delay: 30 * time.Millisecond}})()
	start := time.Now()
	if err := Fire(ServeHandlerLatency); err != nil {
		t.Fatalf("delay mode returned %v", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delay mode slept %v, want ≥30ms", el)
	}
}

func TestPanicMode(t *testing.T) {
	defer Enable(Plan{OscEvalPanic: {Mode: ModePanic}})()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("panic mode did not panic")
		}
		ie, ok := rec.(*InjectedError)
		if !ok || ie.Point != OscEvalPanic {
			t.Fatalf("panic value %v, want *InjectedError for %q", rec, OscEvalPanic)
		}
	}()
	_ = Fire(OscEvalPanic)
}

func TestPointsInventory(t *testing.T) {
	pts := Points()
	if len(pts) == 0 {
		t.Fatal("empty inventory")
	}
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate point %q", p)
		}
		seen[p] = true
	}
	for _, want := range []string{CacheDiskRead, CacheDiskWrite, OscEvalDelay, OscEvalNaN, OscEvalPanic, ServeHandlerLatency, ServeJournalWrite, ServeReplayDelay, SweepAttempt} {
		if !seen[want] {
			t.Fatalf("inventory missing %q", want)
		}
	}
}
