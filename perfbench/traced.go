package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prestigebft/internal/consensus"
	"prestigebft/internal/core"
	"prestigebft/internal/crypto"
	"prestigebft/internal/crypto/verifier"
	"prestigebft/internal/metrics"
	"prestigebft/internal/runtime"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// traceEpoch anchors every span; set once at start-up.
var traceEpoch = time.Now()

// replayPerKind bounds how many messages of each kind the traced run keeps
// for the replay measurements.
const replayPerKind = 256

// span is one call into a replica: a delivered message, a timer or a
// solved puzzle.
type span struct {
	server types.ServerID
	kind   string        // message kind, "timer" or "puzzle"
	start  time.Duration // since traceEpoch
	dur    time.Duration
	wait   time.Duration // transport arrival to the call; -1 when not a message
	leader bool          // the replica led its view when the call began (as prestige_is_leader reads it)
}

// tracedReplica wraps a core.Node and records a span around every call
// the runtime makes into it. Its fields are touched only on the runtime's
// event-loop goroutine.
type tracedReplica struct {
	*core.Node
	arrivals *arrivals
	spans    []span
}

func (t *tracedReplica) record(kind string, t0 time.Time, wait time.Duration, leader bool) {
	t.spans = append(t.spans, span{
		server: t.ID(), kind: kind, start: t0.Sub(traceEpoch), dur: time.Since(t0),
		wait: wait, leader: leader,
	})
}

// leads reports whether the replica leads its view, as prestige_is_leader
// reads it.
func (t *tracedReplica) leads() bool { return t.CurrentLeader() == t.ID() }

func (t *tracedReplica) OnMessage(now time.Duration, from consensus.Origin, msg types.Message) []consensus.Effect {
	t0 := time.Now()
	wait := time.Duration(-1)
	if at, ok := t.arrivals.take(msg); ok {
		wait = t0.Sub(at)
	}
	leader := t.leads()
	effs := t.Node.OnMessage(now, from, msg)
	t.record(msg.Type(), t0, wait, leader)
	return effs
}

func (t *tracedReplica) OnTimer(now time.Duration, kind consensus.TimerKind, key uint64) []consensus.Effect {
	t0, leader := time.Now(), t.leads()
	effs := t.Node.OnTimer(now, kind, key)
	t.record("timer", t0, -1, leader)
	return effs
}

func (t *tracedReplica) OnPuzzleSolved(now time.Duration, token uint64, nonce []byte, hr types.Digest) []consensus.Effect {
	t0, leader := time.Now(), t.leads()
	effs := t.Node.OnPuzzleSolved(now, token, nonce, hr)
	t.record("puzzle", t0, -1, leader)
	return effs
}

// arrivals maps a delivered message to the time its transport handler ran.
type arrivals struct {
	mu sync.Mutex
	at map[types.Message]time.Time
}

func (a *arrivals) stamp(m types.Message) {
	a.mu.Lock()
	a.at[m] = time.Now()
	a.mu.Unlock()
}

func (a *arrivals) take(m types.Message) (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	at, ok := a.at[m]
	delete(a.at, m)
	return at, ok
}

// captured holds messages and committed blocks for the replay measurements.
type captured struct {
	mu     sync.Mutex
	byKind map[string][]types.Message
	blocks []*types.TxBlock // consecutive blocks committed by the capturing replica
}

func (c *captured) message(m types.Message) {
	c.mu.Lock()
	if k := m.Type(); len(c.byKind[k]) < replayPerKind {
		c.byKind[k] = append(c.byKind[k], m)
	}
	c.mu.Unlock()
}

// blockCapturer is the replica whose committed blocks feed the ledger
// replay: a follower, so its blocks arrive in commit order from seq 1.
const blockCapturer = types.ServerID(2)

func (c *captured) block(b *types.TxBlock) {
	c.mu.Lock()
	if len(c.blocks) < replayPerKind {
		c.blocks = append(c.blocks, b)
	}
	c.mu.Unlock()
}

// inprocServer is one replica hosted in this process with prestige-server's
// wiring: its own registry and verified-fact cache, a verify pool of 2,
// the binary codec and puzzle bits 4.
type inprocServer struct {
	rep  *tracedReplica
	tr   *transport.Transport
	pool *verifier.Pool
	rt   *runtime.Runtime
}

// inprocCluster hosts four traced replicas; it implements liveCluster.
// Its counters are the spans, so it samples and ticks nothing.
type inprocCluster struct {
	servers [nServers + 1]*inprocServer
	retired []span // spans of stopped replicas
	cap     *captured
}

func (ic *inprocCluster) spawn(id types.ServerID) error {
	reg, serverKeys, _ := crypto.GenerateDeployment(keySeed, nServers, 64)
	reg.EnableVerifiedCache(0)
	node := core.New(core.Config{
		ID:              id,
		N:               nServers,
		Keys:            serverKeys[id],
		Registry:        reg,
		BatchSize:       100,
		PipelineDepth:   8,
		PuzzleBitsPerRP: 4,
		RNG:             rand.New(rand.NewSource(serverRNG<<16 + int64(id))),
	})
	rep := &tracedReplica{Node: node, arrivals: &arrivals{at: make(map[types.Message]time.Time)}}
	tr := transport.NewServerTransport(id)
	tr.SetLogf(func(string, ...any) {})
	tr.SetWireCodec(transport.CodecBinary)
	mreg := metrics.NewRegistry()
	metrics.RegisterProcessMetrics(mreg)
	pool := verifier.New(verifier.Config{Registry: reg, Workers: 2})
	runtime.RegisterVerifierMetrics(mreg, pool, reg)
	peers := make(map[types.ServerID]string, nServers)
	for i := 1; i <= nServers; i++ {
		peers[types.ServerID(i)] = serverAddr(types.ServerID(i))
	}
	var onCommit func(*types.TxBlock)
	if id == blockCapturer {
		onCommit = ic.cap.block
	}
	rt := runtime.New(runtime.Config{
		Replica:         rep,
		Peers:           peers,
		Transport:       tr,
		Verifier:        pool,
		PuzzleBitsPerRP: 4,
		Seed:            serverRNG,
		Metrics:         mreg,
		OnCommit:        onCommit,
		Logf:            func(string, ...any) {},
	})
	handler := func(env *transport.Envelope) {
		rep.arrivals.stamp(env.Msg)
		ic.cap.message(env.Msg)
		if env.FromClient != 0 {
			rt.RegisterClient(env.FromClient, clientAddr(env.FromClient))
		}
		rt.Deliver(env)
	}
	if err := tr.Listen(serverAddr(id), handler); err != nil {
		pool.Close()
		return fmt.Errorf("traced S%d listen: %w", id, err)
	}
	ic.servers[id] = &inprocServer{rep: rep, tr: tr, pool: pool, rt: rt}
	go rt.Run() // stopped by stop, which waits for it
	return nil
}

func (ic *inprocCluster) startAll() error {
	for i := 1; i <= nServers; i++ {
		if err := ic.spawn(types.ServerID(i)); err != nil {
			ic.stop()
			return err
		}
	}
	return nil
}

func (ic *inprocCluster) sample() error      { return nil }
func (ic *inprocCluster) tick(time.Duration) {}

// stop stops each replica's event loop, waits for it, then closes its pool
// and transport; its spans move to the retired list.
func (ic *inprocCluster) stop() {
	for i, s := range ic.servers {
		if s == nil {
			continue
		}
		s.rt.Stop()
		s.rt.Wait()
		s.pool.Close()
		s.tr.Close()
		ic.retired = append(ic.retired, s.rep.spans...)
		ic.servers[i] = nil
	}
}

// runTraced repeats a live workload with the four replicas hosted in this
// process and a span around every call into them, then replays captured
// messages through the codec, crypto, ledger, reputation and puzzle
// functions. It adds the per-layer metrics to out.
func runTraced(name string, spec liveSpec, seed int64, seconds int, out *outcome) error {
	if err := checkPortsFree(); err != nil {
		return err
	}
	_, _, clientKeys := crypto.GenerateDeployment(keySeed, nServers, 64)
	sched := buildSchedule(seed, spec.scheduleLen(seconds), spec.payload, spec.rate, clientKeys[genClientID])
	ic := &inprocCluster{cap: &captured{byKind: make(map[string][]types.Message)}}
	g, _, err := setUp(ic.startAll, sched, spec, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	res, err := runLoad(ic, g, seconds)
	g.close()
	ic.stop()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	fig, err := res.reduce()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	v := out.values
	v["traced.commit_p50_ms"] = fig.p50
	v["traced.committed_tps"] = fig.tps

	spans := ic.retired
	wStart, wEnd := g.epoch.Add(res.wStart).Sub(traceEpoch), g.epoch.Add(res.wEnd).Sub(traceEpoch)
	reduceSpans(spans, wStart, wEnd, v)
	g.mu.Lock()
	for _, n := range g.notifs {
		ic.cap.message(n)
	}
	g.mu.Unlock()
	if err := replay(ic.cap, v); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.csv", name, seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	out.notes = append(out.notes, fmt.Sprintf("traced run: %d spans written to %s; kinds %v",
		len(spans), path, kindCounts(spans)))
	log.Printf("traced %s: %.1f tx/s, p50 %.2f ms", name, fig.tps, fig.p50)
	return nil
}

// traceKinds are the message kinds whose handler time is reported.
var traceKinds = []string{"Prop", "Ord", "OrdReply", "Cmt", "CmtReply"}

// reduceSpans derives the traced per-layer metrics. Handler times cover the
// whole run; busy fractions and queue waits cover the window only.
func reduceSpans(spans []span, wStart, wEnd time.Duration, v map[string]float64) {
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	var busyLeader, busyFollower time.Duration
	var waits []time.Duration
	for _, s := range spans {
		sum[s.kind] += s.dur
		cnt[s.kind]++
		if s.start < wStart || s.start >= wEnd {
			continue
		}
		if s.leader {
			busyLeader += s.dur
		} else {
			busyFollower += s.dur
		}
		if s.wait >= 0 {
			waits = append(waits, s.wait)
		}
	}
	mean := func(k string) float64 { return ratio(float64(sum[k])/1e3, float64(cnt[k])) }
	for _, k := range traceKinds {
		v["core.on_message_us."+k] = mean(k)
	}
	v["core.on_timer_us"] = mean("timer")
	window := float64(wEnd - wStart)
	v["core.busy_frac.leader"] = float64(busyLeader) / window
	v["core.busy_frac.follower"] = float64(busyFollower) / window / (nServers - 1)
	us := make([]float64, len(waits))
	for i, w := range waits {
		us[i] = float64(w) / 1e3
	}
	sort.Float64s(us)
	v["runtime.queue_wait_us.p50"], _ = percentile(us, 0.5)
	v["runtime.queue_wait_us.p99"], _ = percentile(us, 0.99)
}

func kindCounts(spans []span) map[string]int {
	m := map[string]int{}
	for _, s := range spans {
		m[s.kind]++
	}
	return m
}

// writeSpans writes the spans as CSV once the run has ended.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeSpanRows(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpanRows(w io.Writer, spans []span) error {
	if _, err := fmt.Fprintln(w, "server,kind,start_us,dur_us,wait_us,leader"); err != nil {
		return err
	}
	for _, s := range spans {
		wait := -1.0
		if s.wait >= 0 {
			wait = float64(s.wait) / 1e3
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%.1f,%.1f,%.1f,%t\n", s.server, s.kind,
			float64(s.start)/1e3, float64(s.dur)/1e3, wait, s.leader); err != nil {
			return err
		}
	}
	return nil
}
