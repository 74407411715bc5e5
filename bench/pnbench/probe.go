package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is a share of a busy host, and the speed
// at which it executes the same instructions drifts from minute to minute by
// more than the bounds allow (bench/README.md, "Machine speed"). So while a
// pass sets the server up and runs its window, a probe times a fixed kernel
// every probeEvery on a thread of its own, and the untraced run reports its
// timings scaled to the speed the kernel has on the reference machine:
//
//	reported = measured × refProbeMS / (mean kernel time of the pass)
//
// The kernel belongs to the benchmark and imports nothing from the
// repository, so no change to pnserve changes its work. It does what pnserve
// spends its time on, integrating an ODE and encoding and decoding floats as
// JSON, and it is timed in its thread's CPU time, which leaves out the time
// the thread waited for a core behind pnserve's threads: that wait belongs to
// the program under test, while what slows every instruction on the host,
// contention for the cores, caches and memory, does not. The mean, not the
// median, because the machine also runs fast for spells of a few seconds,
// and pnserve gains from those as much as the kernel does.

const (
	// probeEvery is the probe's period. A sample costs about 1.3 ms of one
	// core, so the probe takes about 1% of one of the two.
	probeEvery = 100 * time.Millisecond
	// refProbeMS fixes the reference speed: the kernel's typical time on
	// the machine of bench/README.md when the benchmark was first measured.
	// It sets the unit of the reported timings, the same for every commit.
	refProbeMS = 1.3
)

// probeSink keeps the compiler from discarding the kernel's work.
var probeSink float64

// probeKernel integrates the van der Pol oscillator over 1000 RK4 steps,
// encodes the trajectory as JSON and decodes it again.
func probeKernel() float64 {
	const h, mu = 1e-3, 1.5
	f := func(x, y float64) (float64, float64) { return y, mu*(1-x*x)*y - x }
	x, y := 2.0, 0.0
	tr := make([]float64, 0, 2000)
	for i := 0; i < 1000; i++ {
		k1x, k1y := f(x, y)
		k2x, k2y := f(x+h/2*k1x, y+h/2*k1y)
		k3x, k3y := f(x+h/2*k2x, y+h/2*k2y)
		k4x, k4y := f(x+h*k3x, y+h*k3y)
		x += h / 6 * (k1x + 2*k2x + 2*k3x + k4x)
		y += h / 6 * (k1y + 2*k2y + 2*k3y + k4y)
		tr = append(tr, x, y)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		panic(err) // a []float64 of finite values always encodes
	}
	var back []float64
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	return back[len(back)-1]
}

// threadCPU is the calling OS thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probe is one running speed probe.
type probe struct {
	stop chan struct{}
	done chan []float64
	once sync.Once
	ms   float64 // the mean sample, once finished
}

func startProbe() *probe {
	pr := &probe{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go pr.run()
	return pr
}

func (pr *probe) run() {
	// The thread stays the goroutine's own, so its CPU clock times only
	// the kernel.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	var samples []float64
	for {
		t0 := threadCPU()
		probeSink += probeKernel()
		samples = append(samples, ms(threadCPU()-t0))
		select {
		case <-pr.stop:
			pr.done <- samples
			return
		case <-tick.C:
		}
	}
}

// finish stops the probe and waits for it; later calls do nothing.
func (pr *probe) finish() {
	pr.once.Do(func() {
		close(pr.stop)
		pr.ms = mean(<-pr.done)
	})
}

// scale brings a time measured while the probe ran to the reference
// machine's speed; call it after finish.
func (pr *probe) scale() float64 { return refProbeMS / pr.ms }
