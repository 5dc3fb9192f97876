package main

import (
	"fmt"
	"sort"
	"time"
)

// liveSpec is one live workload's traffic.
type liveSpec struct {
	rate        float64 // open-loop offered load in tx/s; 0 = closed loop
	outstanding int     // closed loop: logical clients, one transaction each
	payload     int     // transaction payload bytes
}

var liveSpecs = map[string]liveSpec{
	"steady": {rate: 1000, payload: 32},
	"peak":   {outstanding: 256, payload: 1024},
}

const (
	warmup      = time.Second
	setupRuns   = 15               // cluster set-ups per run; setup_s is their median
	txDeadline  = 10 * time.Second // a transaction not committed this long after its start failed
	peakRateCap = 7000             // closed-loop pre-signing budget in tx/s of run time
	maxLagMs    = 50.0             // a run whose generator lag p99 exceeds this is invalid
	sliceLen    = 2 * time.Second  // latency and CPU are medians over slices of the window this long
)

// scheduleLen sizes the pre-signed schedule. Every cluster of a run sends
// it from the start, for warm-up plus window. An open loop needs the
// offered rate over that span; a closed loop a cap the cluster cannot
// reach (exhausting it fails the run).
func (ls liveSpec) scheduleLen(seconds int) int {
	span := warmup.Seconds() + float64(seconds) + 1
	if ls.rate > 0 {
		return int(ls.rate * span)
	}
	return int(peakRateCap*span) + 8*ls.outstanding
}

// liveCluster is what a workload needs from a cluster: process-hosted for
// the measured runs, in-process for the traced run.
type liveCluster interface {
	// sample records counters at a window edge.
	sample() error
	// tick records what is cheap to read from outside the servers at a
	// slice edge of the window.
	tick(at time.Duration)
}

// loadResult is what one workload run observed from the generator side.
type loadResult struct {
	wStart, wEnd time.Duration // window, relative to the generator epoch
	window       time.Duration
	slices       int // equal slices of the window
	states       []txState
	due          func(int32) time.Duration // open loop: a transaction's due time; nil when closed
	sends        []sendRec
	verifyNs     time.Duration
	verifyCnt    int
	cpuFrac      float64 // generator process CPU over the window, in CPUs
}

// setUp starts the cluster (start), then a generator, and returns once the
// first transaction committed; elapsed runs from the start call.
func setUp(start func() error, sched *schedule, spec liveSpec, capture bool) (g *gen, elapsed time.Duration, err error) {
	t0 := time.Now()
	if err := start(); err != nil {
		return nil, 0, err
	}
	g, err = newGen(sched, spec.outstanding, capture)
	if err != nil {
		return nil, 0, err
	}
	g.start(spec.outstanding)
	deadline := time.Now().Add(firstCommitT)
	for g.firstCommitAfter(-1) == 0 {
		if err := g.err(); err != nil {
			g.finish()
			g.close()
			return nil, 0, err
		}
		if time.Now().After(deadline) {
			g.finish()
			g.close()
			return nil, 0, fmt.Errorf("no commit within %v of start-up", firstCommitT)
		}
		time.Sleep(time.Millisecond)
	}
	return g, time.Since(t0), nil
}

// runLoad drives an already-started generator through warm-up and the
// window, then drains. It leaves the generator finished.
func runLoad(cl liveCluster, g *gen, seconds int) (*loadResult, error) {
	defer g.finish()
	res := &loadResult{}
	window := time.Duration(seconds) * time.Second
	sleepUntil(g, g.now()+warmup)
	res.wStart = g.now()
	ru0 := selfCPU()
	if err := cl.sample(); err != nil {
		return nil, err
	}
	cl.tick(res.wStart)
	slices := max(1, int(window/sliceLen))
	for k := 1; k < slices; k++ {
		sleepUntil(g, res.wStart+time.Duration(k)*window/time.Duration(slices))
		cl.tick(g.now())
	}
	sleepUntil(g, res.wStart+window)
	res.wEnd = g.now()
	cl.tick(res.wEnd)
	res.window, res.slices = window, slices
	res.cpuFrac = (selfCPU() - ru0) / (res.wEnd - res.wStart).Seconds()
	if err := cl.sample(); err != nil {
		return nil, err
	}

	g.stopSending()
	waitFor(txDeadline, func() bool { return g.allCommitted(res.wStart, res.wEnd) })
	if err := g.err(); err != nil {
		return nil, err
	}
	res.states = g.snapshot()
	if g.sched.due != nil {
		res.due = g.due
	}
	g.finish()
	res.sends = g.sends
	g.mu.Lock()
	res.verifyNs, res.verifyCnt = g.verifyNs, g.verifyCnt
	g.mu.Unlock()
	return res, nil
}

// sleepUntil sleeps until the generator clock reads t.
func sleepUntil(g *gen, t time.Duration) {
	if d := t - g.now(); d > 0 {
		time.Sleep(d)
	}
}

// waitFor polls cond every 10 ms for up to d and reports whether it held.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// liveFigures are the generator-side end-to-end numbers of one run.
type liveFigures struct {
	attempted, failed  int
	committed          int // commits whose f+1th Notif arrived inside the window
	tps                float64
	p50, p99           float64   // ms, medians over the window's slices
	sliceP50, sliceP99 []float64 // ms, each counted slice's percentiles
	windowP99          float64   // ms, over the whole window
	samples            int
	lagP99             float64  // ms, over the window's sends
	sendUs             float64  // mean broadcast time of the window's sends
	failures           []string // the first few failed transactions
}

// reduce turns a loadResult into end-to-end figures. A transaction belongs
// to the window when its start (due time in an open loop, send time in a
// closed one) falls inside it; its latency runs from that start to its
// f+1th matching Notif.
func (res *loadResult) reduce() (*liveFigures, error) {
	f := &liveFigures{}
	var lat, starts []time.Duration
	for i, s := range res.states {
		if s.sent == 0 {
			continue
		}
		start := s.sent
		if res.due != nil {
			start = res.due(int32(i))
		}
		if s.committed >= res.wStart && s.committed < res.wEnd {
			f.committed++
		}
		if start < res.wStart || start >= res.wEnd {
			continue
		}
		f.attempted++
		if s.committed == 0 || s.committed-start > txDeadline {
			f.failed++
			if len(f.failures) < 5 {
				f.failures = append(f.failures, fmt.Sprintf("tx %d due %v sent %v committed %v, verified Notifs from %04b",
					i, start, s.sent, s.committed, s.verified>>1))
			}
			continue
		}
		lat = append(lat, s.committed-start)
		starts = append(starts, start)
	}
	window := res.wEnd - res.wStart
	f.tps = float64(f.committed) / window.Seconds()
	f.samples = len(lat)
	all := sortedMs(lat)
	f.windowP99, _ = percentile(all, 0.99)
	// Per-slice percentiles, then their median, so that a stall that hits
	// one part of the window is outvoted; the whole window's p99, stall
	// included, is windowP99.
	byslice := make([][]time.Duration, res.slices)
	for i, l := range lat {
		k := min(int((starts[i]-res.wStart)*time.Duration(res.slices)/res.window), res.slices-1)
		byslice[k] = append(byslice[k], l)
	}
	var p50s, p99s []float64
	for _, sl := range byslice {
		ms := sortedMs(sl)
		p50, ok50 := percentile(ms, 0.50)
		p99, ok99 := percentile(ms, 0.99)
		if ok50 && ok99 {
			p50s, p99s = append(p50s, p50), append(p99s, p99)
		}
	}
	if 2*len(p99s) <= res.slices {
		return nil, fmt.Errorf("only %d of %d window slices have ten latency samples beyond p99", len(p99s), res.slices)
	}
	f.p50, f.p99 = median(p50s), median(p99s)
	f.sliceP50, f.sliceP99 = p50s, p99s
	var lag, dur []time.Duration
	for _, sr := range res.sends {
		if sr.at >= res.wStart && sr.at < res.wEnd {
			lag = append(lag, sr.lag)
			dur = append(dur, sr.dur)
		}
	}
	lags := sortedMs(lag)
	if v, ok := percentile(lags, 0.99); ok {
		f.lagP99 = v
	} else if len(lags) > 0 {
		f.lagP99 = lags[len(lags)-1]
	}
	f.sendUs = meanDur(dur, time.Microsecond)
	return f, nil
}

// commitTimes lists when each committed transaction's f+1th Notif came.
func (res *loadResult) commitTimes() []time.Duration {
	var out []time.Duration
	for _, s := range res.states {
		if s.committed != 0 {
			out = append(out, s.committed)
		}
	}
	return out
}

// meanDur is the mean of ds in the given unit.
func meanDur(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(unit)
}

// medianDur is the median of ds in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(xs)
	return median(xs)
}
