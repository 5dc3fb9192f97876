package main

import (
	"fmt"
	"log"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/sim"
	"prestigebft/internal/types"
)

// The paper's headline Byzantine cell exactly as harness.RunAttack builds
// it at quick scale: PrestigeBFT, n=16, f=3 colluding attackers that
// equivocate (F3) and force repeated view changes (F4), rotation 2.5 s, 1 s
// warm-up plus 15 s measured, all in virtual time. The cell is fixed,
// seed included, so its trajectory is the same on every run.
const (
	simN       = 16
	simF       = 3
	simSeed    = 90 + simN*10 + simF // RunAttack's seed for this cell
	simWarmup  = time.Second
	simSpan    = 15 * time.Second
	simSetups  = 25 // cluster constructions per run; setup_s is their median
	simMinReps = 2  // full runs per run; repeats must match exactly
)

func simOptions(seed int64) harness.Options {
	fa := map[types.ServerID]faults.Spec{}
	for i := 0; i < simF; i++ {
		fa[types.ServerID(simN-i)] = faults.Spec{
			Mode:          faults.Equivocate,
			RepeatedVC:    true,
			HashRateScale: simF, // collusion: joint computation
		}
	}
	return harness.Options{
		Protocol: harness.PrestigeBFT, N: simN,
		Clients: 60, ClientThinkTime: 4 * time.Millisecond,
		BatchSize: 60, Seed: seed,
		ViewPolicy: 2500 * time.Millisecond,
		TimeoutMin: 800 * time.Millisecond, TimeoutMax: 1200 * time.Millisecond,
		ClientTimeout: 2 * time.Second,
		Faults:        fa,
	}
}

// simRep is one full run of the cell.
type simRep struct {
	wall      time.Duration
	cpu       float64 // process CPU seconds during the stepping loop
	events    uint64
	alloc     uint64
	tpsV      float64 // virtual committed tx/s over the measured span
	txs       int     // transactions committed over the whole run
	latencies []float64
	c         *harness.Cluster
}

// stepCell runs a started cluster to the end of the cell, one Sched.Step at
// a time. A sentinel event just past the end stops the loop, so the events
// stepped are those Cluster.Run would have executed.
func stepCell(c *harness.Cluster) simRep {
	end := sim.Duration(simWarmup + simSpan)
	done := false
	c.Sched.At(end+1, func() { done = true })
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	ev0 := c.Sched.Processed
	cpu0 := selfCPU()
	t0 := time.Now()
	for !done && c.Sched.Step() {
	}
	rep := simRep{wall: time.Since(t0), cpu: selfCPU() - cpu0, events: c.Sched.Processed - ev0 - 1, c: c}
	goruntime.ReadMemStats(&ms1)
	rep.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	c.CollectClientStats()
	rep.tpsV = c.Metrics.TPS(sim.Duration(simWarmup), end)
	rep.txs = c.Metrics.TotalTxs
	for _, l := range c.Metrics.Latencies {
		rep.latencies = append(rep.latencies, float64(l)/float64(time.Millisecond))
	}
	sort.Float64s(rep.latencies)
	return rep
}

// serviceGaps returns, for each election, the virtual time from the last
// commit before it to the first commit after it: the time without service
// around a leader change.
func serviceGaps(m *harness.Metrics) []time.Duration {
	var gaps []time.Duration
	for _, lp := range m.Leaders {
		var before, after sim.Time = -1, -1
		for _, c := range m.Commits {
			if c.At < lp.At {
				before = c.At
			} else {
				after = c.At
				break
			}
		}
		if before >= 0 && after >= 0 {
			gaps = append(gaps, (after - before).ToDuration())
		}
	}
	return gaps
}

// runSimAttack steps the fixed cell at least twice and checks the repeats
// agree exactly. Its time metrics are wall-clock: a virtual duration
// divided by the measured simulation speed is the wall time the simulator
// takes to play that duration out. The virtual figures go to stderr.
func runSimAttack(seconds int, trace bool) (*outcome, error) {
	opts := simOptions(simSeed)
	var setups []time.Duration
	var c *harness.Cluster
	for k := 0; k < simSetups; k++ {
		// The previous cluster's garbage is collected first, so that no
		// set-up pays for another's.
		goruntime.GC()
		t0 := time.Now()
		c = harness.NewCluster(opts)
		c.Start()
		setups = append(setups, time.Since(t0))
	}
	var reps []simRep
	start := time.Now()
	for len(reps) < simMinReps || time.Since(start) < time.Duration(seconds)*time.Second {
		if c == nil {
			c = harness.NewCluster(opts)
			c.Start()
		}
		reps = append(reps, stepCell(c))
		c = nil
		r := reps[len(reps)-1]
		log.Printf("sim-attack rep %d: %d events in %v, virtual %.1f tx/s", len(reps), r.events, r.wall, r.tpsV)
	}
	first := reps[0]
	for i, r := range reps[1:] {
		if r.events != first.events || r.tpsV != first.tpsV {
			return nil, errCheck{error: fmt.Errorf("determinism: rep %d stepped %d events at %.4f virtual tx/s, rep 1 %d at %.4f",
				i+2, r.events, r.tpsV, first.events, first.tpsV)}
		}
	}
	if first.txs == 0 {
		return nil, errCheck{error: fmt.Errorf("sim-attack committed nothing")}
	}
	p50, ok50 := percentile(first.latencies, 0.5)
	p99, ok99 := percentile(first.latencies, 0.99)
	if !ok50 || !ok99 {
		return nil, fmt.Errorf("only %d latency samples: p99 needs ten beyond it", len(first.latencies))
	}
	gaps := serviceGaps(first.c.Metrics)
	if len(gaps) == 0 {
		return nil, fmt.Errorf("sim-attack: no leader change to measure")
	}

	var tps, cpu, speeds, nsPerEv []float64
	for _, r := range reps {
		tps = append(tps, float64(r.txs)/r.wall.Seconds())
		cpu = append(cpu, r.cpu*1e6/float64(r.txs))
		speeds = append(speeds, (simWarmup+simSpan).Seconds()/r.wall.Seconds())
		nsPerEv = append(nsPerEv, float64(r.wall)/float64(r.events))
	}
	speed := median(speeds)
	gap := medianDur(gaps, time.Millisecond)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	m := first.c.Metrics
	net := first.c.Net
	txs := float64(first.txs)
	v := map[string]float64{
		"committed_tps": median(tps),
		"commit_p50_ms": p50 / speed,
		"commit_p99_ms": p99 / speed,
		"cpu_us_per_tx": median(cpu),
		"server_rss_mb": float64(ru.Maxrss) / 1024,
		"setup_s":       medianDur(setups, time.Second),

		"sim.events":              float64(first.events),
		"sim.ns_per_event":        median(nsPerEv),
		"sim.tps_virtual":         first.tpsV,
		"sim.speed":               speed,
		"sim.service_gap_ms":      gap,
		"core.tx_per_block":       ratio(txs, float64(len(m.Commits))),
		"transport.msgs_per_tx":   ratio(float64(net.Sent), txs),
		"transport.bytes_per_tx":  ratio(float64(net.Bytes), txs),
		"proc.alloc_bytes_per_tx": ratio(float64(first.alloc), txs),
		"core.viewchanges":        float64(m.ViewChangesStarted),
		"core.elections":          float64(m.Elections),
		"core.splitvotes":         float64(m.SplitVotes),
		"gen.samples":             float64(len(first.latencies)),
	}
	if trace {
		// Layers the simulator does not run: no TCP, codec, verify pool,
		// real crypto, generator or traced replicas.
		for _, d := range perLayer {
			if _, ok := v[d.name]; !ok {
				v[d.name] = 0
			}
		}
	}
	out := &outcome{attempted: len(first.latencies), values: v}
	out.notes = append(out.notes,
		fmt.Sprintf("sim-attack: n=%d f=%d F3+F4, rotation 2.5s, %v virtual; %d reps, each %d events; %d latency samples (virtual time); %d elections",
			simN, simF, simWarmup+simSpan, len(reps), first.events, len(first.latencies), m.Elections),
		fmt.Sprintf("virtual time: commit p50 %.3f ms, p99 %.3f ms, median service gap around an election %.1f ms, %.4f tx/s",
			p50, p99, gap, first.tpsV),
		fmt.Sprintf("wall time: set-ups %v; reps %v; %.3f virtual s per wall s", setups, wallsOf(reps), speed))
	return out, nil
}

func wallsOf(reps []simRep) []time.Duration {
	out := make([]time.Duration, len(reps))
	for i, r := range reps {
		out[i] = r.wall
	}
	return out
}
