package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"prestigebft/internal/crypto"
	"prestigebft/internal/types"
)

// processRun adapts a procCluster to a workload. It keeps every server's
// /metrics samples from the window's edges, and the servers' /proc CPU at
// each slice edge.
type processRun struct {
	pc     *procCluster
	series map[types.ServerID][]serverSample
	ticks  []cpuTick // the servers' CPU at each slice edge of the window
}

type cpuTick struct {
	at  time.Duration
	cpu map[types.ServerID]float64
}

// tick reads the servers' CPU from /proc, which costs them nothing.
func (p *processRun) tick(at time.Duration) {
	p.ticks = append(p.ticks, cpuTick{at, p.pc.cpu()})
}

// cpuPerTx is the median over window slices of the servers' CPU time per
// transaction committed in the slice. A slice in which a server's CPU
// could not be read is left out.
func (p *processRun) cpuPerTx(commits []time.Duration) (med float64, slices []float64, err error) {
	var per []float64
	for k := 1; k < len(p.ticks); k++ {
		a, b := p.ticks[k-1], p.ticks[k]
		if len(a.cpu) != nServers || len(b.cpu) != nServers {
			continue
		}
		sec := 0.0
		for id, ca := range a.cpu {
			sec += b.cpu[id] - ca
		}
		n := 0
		for _, c := range commits {
			if c >= a.at && c < b.at {
				n++
			}
		}
		if n > 0 {
			per = append(per, sec*1e6/float64(n))
		}
	}
	if len(per) == 0 {
		return 0, nil, fmt.Errorf("no window slice with every server's CPU read and a commit")
	}
	return median(per), per, nil
}

func (p *processRun) sample() error {
	s, err := p.pc.sample()
	if err != nil {
		return err
	}
	for id, v := range s {
		p.series[id] = append(p.series[id], v)
	}
	return nil
}

// total sums a counter's window growth over all servers.
func (p *processRun) total(name string) float64 {
	t := 0.0
	for _, ser := range p.series {
		vals := make([]float64, len(ser))
		for i, s := range ser {
			vals[i] = s.snap.Sum(name)
		}
		t += increase(vals)
	}
	return t
}

// most is a counter's largest window growth on any one server.
func (p *processRun) most(name string) float64 {
	m := 0.0
	for _, ser := range p.series {
		vals := make([]float64, len(ser))
		for i, s := range ser {
			vals[i] = s.snap.Sum(name)
		}
		m = max(m, increase(vals))
	}
	return m
}

// peakRSS sums the servers' peak resident sets at the window's end.
func (p *processRun) peakRSS() float64 {
	t := 0.0
	for _, ser := range p.series {
		t += ser[len(ser)-1].hwmMB
	}
	return t
}

// runLiveProcesses measures a live workload on four prestige-server
// processes. It sets the cluster up setupRuns times (spawn to first
// commit), measures on the last one, and tears everything down.
func runLiveProcesses(name string, spec liveSpec, seed int64, seconds int, bin string, kids *children) (*outcome, error) {
	if err := checkPortsFree(); err != nil {
		return nil, err
	}
	_, _, clientKeys := crypto.GenerateDeployment(keySeed, nServers, 64)
	sched := buildSchedule(seed, spec.scheduleLen(seconds), spec.payload, spec.rate, clientKeys[genClientID])

	// Server output goes to one file opened before any timed set-up.
	logf, err := os.Create(filepath.Join(buildDir, fmt.Sprintf("servers-%s-seed%d.log", name, seed)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	newCluster := func() *processRun {
		return &processRun{pc: &procCluster{kids: kids, bin: bin, log: logf}, series: make(map[types.ServerID][]serverSample)}
	}
	start := func(pr *processRun) func() error {
		return func() error {
			if err := pr.pc.startAll(); err != nil {
				return err
			}
			return pr.pc.waitHealthy()
		}
	}

	// Throw-away set-ups first; the window's own cluster is the last one.
	var setups []time.Duration
	for k := 0; k < setupRuns-1; k++ {
		pr := newCluster()
		g, took, err := setUp(start(pr), sched, spec, false)
		if err == nil {
			g.finish()
			g.close()
		}
		pr.pc.stop()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setups = append(setups, took)
	}
	pr := newCluster()
	g, took, err := setUp(start(pr), sched, spec, false)
	if err != nil {
		pr.pc.stop()
		return nil, fmt.Errorf("set-up %d: %w", setupRuns, err)
	}
	setups = append(setups, took)
	res, err := runLoad(pr, g, seconds)
	g.close()
	pr.pc.stop()
	if err != nil {
		return nil, err
	}
	fig, err := res.reduce()
	if err != nil {
		return nil, err
	}
	if vc := pr.total("prestige_viewchange_total"); vc != 0 {
		return nil, errCheck{error: fmt.Errorf("%s: %v view changes inside a fault-free window", name, vc)}
	}

	committed := float64(fig.committed)
	out := &outcome{
		attempted: fig.attempted,
		failed:    fig.failed,
		values:    map[string]float64{},
	}
	if fig.failed > 0 {
		out.notes = append(out.notes, fmt.Sprintf("FAILED: %d of %d window transactions not committed within %v: %v",
			fig.failed, fig.attempted, txDeadline, fig.failures))
	}
	if fig.lagP99 > maxLagMs {
		return nil, fmt.Errorf("invalid run: generator lag p99 %.1f ms exceeds %.0f ms", fig.lagP99, maxLagMs)
	}
	v := out.values
	v["committed_tps"] = fig.tps
	v["commit_p50_ms"] = fig.p50
	v["commit_p99_ms"] = fig.p99
	cpu, cpuSlices, err := pr.cpuPerTx(res.commitTimes())
	if err != nil {
		return nil, err
	}
	v["cpu_us_per_tx"] = cpu
	v["server_rss_mb"] = pr.peakRSS()
	v["setup_s"] = medianDur(setups, time.Second)

	commits := pr.total("prestige_commits_total")
	hits, misses := pr.total("prestige_verified_cache_hits_total"), pr.total("prestige_verified_cache_misses_total")
	v["core.tx_per_block"] = ratio(pr.total("prestige_committed_txs_total"), commits)
	v["transport.msgs_per_tx"] = ratio(pr.total("prestige_transport_sent_total"), committed)
	v["transport.bytes_per_tx"] = ratio(pr.total("prestige_transport_bytes_total"), committed)
	v["crypto.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["verifier.submitted_per_tx"] = ratio(pr.total("prestige_verifier_submitted_total"), committed)
	v["proc.alloc_bytes_per_tx"] = ratio(pr.total("go_memstats_alloc_bytes_total"), committed)
	v["core.viewchanges"] = pr.most("prestige_viewchange_total")
	v["core.elections"] = pr.total("prestige_elections_total")
	v["core.splitvotes"] = pr.most("prestige_splitvotes_total")
	v["gen.lag_p99_ms"] = fig.lagP99
	v["gen.cpu_frac"] = res.cpuFrac
	v["gen.samples"] = float64(fig.samples)
	v["gen.window_p99_ms"] = fig.windowP99
	v["gen.sign_us"] = sched.signNs / 1e3
	v["gen.send_us"] = fig.sendUs
	v["gen.notif_verify_us"] = ratio(float64(res.verifyNs)/1e3, float64(res.verifyCnt))

	out.notes = append(out.notes,
		fmt.Sprintf("%s: %d transactions attempted in a %ds window, %d failed; %d latency samples in %d slices; whole-window p99 %.3f ms",
			name, fig.attempted, seconds, fig.failed, fig.samples, res.slices, fig.windowP99),
		fmt.Sprintf("no message delay injected: latency is processing time on loopback; set-ups %v", setups),
		fmt.Sprintf("slices: p50 %.3f ms, p99 %.3f ms, cpu %.1f us/tx", fig.sliceP50, fig.sliceP99, cpuSlices),
		fmt.Sprintf("generator: lag p99 %.2f ms, cpu %.2f CPUs over the window", fig.lagP99, res.cpuFrac))
	log.Printf("%s: %.1f tx/s, p50 %.2f ms, p99 %.2f ms", name, fig.tps, fig.p50, fig.p99)
	return out, nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
