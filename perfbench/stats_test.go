package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileTenBeyondRule(t *testing.T) {
	// 1000 samples: the p99 rank is the 990th value, with exactly ten
	// samples beyond it, so it is reported.
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples leave only nine beyond the p99 rank: not reportable.
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Fatal("p99 over 999 samples reported; want refused")
	}
	// The median needs ten beyond it too.
	if v, ok := percentile(seq(21), 0.5); !ok || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11, true", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Fatal("p50 over 19 samples reported with nine beyond; want refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func TestIncreaseAcrossCounterReset(t *testing.T) {
	// A victim counted to 500, was killed after the 500 sample, restarted
	// from zero and reached 120: total growth 100 + 120 = 220, where the
	// naive last-first reads -280.
	samples := []float64{400, 500, 30, 120}
	if got := increase(samples); got != 100+30+90 {
		t.Fatalf("increase = %v, want 220", got)
	}
	if naive := samples[len(samples)-1] - samples[0]; naive >= 0 {
		t.Fatalf("naive delta %v should be negative in this fixture", naive)
	}
	if got := increase([]float64{7}); got != 0 {
		t.Fatalf("single sample increase = %v", got)
	}
}

func TestReduceOutvotesAStallInOneSlice(t *testing.T) {
	// An open loop at 1000 tx/s over a 10 s window cut into five slices;
	// the cluster stalls for 1 s from 8.5 s in, so every transaction due
	// in that second waits for the stall to end, and one never commits.
	ms := time.Millisecond
	stall := 8500 * ms
	res := &loadResult{wStart: 0, wEnd: 10 * time.Second, window: 10 * time.Second, slices: 5}
	due := make([]time.Duration, 10000)
	for i := range due {
		due[i] = time.Duration(i)*ms + ms/2
		lat := 4*ms + time.Duration(i%100)*ms/20
		if due[i] >= stall && due[i] < stall+time.Second {
			lat = stall + time.Second - due[i]
		}
		res.states = append(res.states, txState{sent: due[i], committed: due[i] + lat})
	}
	res.states[9999].committed = 0
	res.due = func(i int32) time.Duration { return due[i] }
	f, err := res.reduce()
	if err != nil {
		t.Fatal(err)
	}
	if f.attempted != 10000 || f.failed != 1 || f.samples != 9999 {
		t.Fatalf("attempted %d failed %d samples %d, want 10000, 1, 9999", f.attempted, f.failed, f.samples)
	}
	if len(f.sliceP99) != 5 {
		t.Fatalf("%d slices counted, want 5", len(f.sliceP99))
	}
	if f.p99 > 10 || f.windowP99 < 100 {
		t.Fatalf("p99 %.2f ms (want the clean slices' ≈9 ms), whole-window p99 %.2f ms (want the stall)", f.p99, f.windowP99)
	}
}
