package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync"
	"time"

	"prestigebft/internal/crypto"
	"prestigebft/internal/transport"
	"prestigebft/internal/types"
)

// complaintTimeout is the client protocol's wait before it broadcasts a
// Compt for an unconfirmed proposal (internal/client's default).
const complaintTimeout = time.Second

// schedule is a workload's pre-signed transactions in send order. Open-loop
// schedules carry each transaction's due offset from the generator epoch.
type schedule struct {
	props []*types.Prop
	due   []time.Duration        // nil for a closed loop
	index map[types.Digest]int32 // transaction digest to position
	// signNs is the mean time one Prop signature took while pre-signing.
	signNs float64
}

// buildSchedule generates count transactions from seed and signs them
// before any timed window. rate > 0 gives an open loop: a Poisson process
// at rate tx/s conditioned on exactly rate arrivals in every second (each
// second's arrival times are uniform order statistics), so a window's
// offered load does not vary with the seed while arrivals stay bursty.
func buildSchedule(seed int64, count, payload int, rate float64, keys *crypto.KeyPair) *schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{props: make([]*types.Prop, count), index: make(map[types.Digest]int32, count)}
	if rate > 0 {
		per := int(rate)
		s.due = make([]time.Duration, count)
		for sec := 0; sec*per < count; sec++ {
			slot := s.due[sec*per : min((sec+1)*per, count)]
			for i := range slot {
				slot[i] = time.Duration(sec)*time.Second + time.Duration(rng.Int63n(int64(time.Second)))
			}
			slices.Sort(slot)
		}
	}
	for i := range s.props {
		data := make([]byte, payload)
		rng.Read(data)
		tx := types.Transaction{
			Timestamp: int64(genClientID)<<32 | int64(i+1),
			Client:    genClientID,
			Data:      data,
		}
		s.props[i] = &types.Prop{Tx: tx, D: tx.Digest()}
		s.index[s.props[i].D] = int32(i)
	}
	workers := goruntime.NumCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < count; i += workers {
				p := s.props[i]
				p.Sig = keys.Sign(p.SigningBytes())
			}
		}()
	}
	wg.Wait()
	s.signNs = float64(time.Since(start)) * float64(workers) / float64(count)
	return s
}

// txState is one transaction's generator-side record, guarded by gen.mu.
type txState struct {
	sent      time.Duration // since epoch; 0 = not sent
	committed time.Duration // arrival of the f+1th matching Notif; 0 = not yet
	n         types.SeqNum  // sequence number the verified Notifs name
	verified  uint32        // bitmask of servers whose Notif verified
}

// gen drives a cluster as one client identity over one client transport:
// one connection per server, all logical clients multiplexed onto it, and
// one sending goroutine.
type gen struct {
	tr     *transport.Transport
	reg    *crypto.Registry // the generator's own registry, cache off
	keys   *crypto.KeyPair
	quorum int
	sched  *schedule
	epoch  time.Time     // the generator clock's zero
	shift  time.Duration // open loop: when start ran; due times count from it

	mu       sync.Mutex
	st       []txState
	checkErr error // first error that ends the run
	done     chan int32
	notifs   []*types.Notif // captured for the codec replay (traced runs)

	// Owned by the sending goroutine until it returns.
	sends      []sendRec
	stopped    chan struct{} // closed: send no new proposals
	quit       chan struct{} // closed: return
	exited     chan struct{}
	stopOnce   sync.Once
	finishOnce sync.Once

	// verifyNs is the total time spent verifying Notifs; guarded by mu.
	verifyNs  time.Duration
	verifyCnt int
	capture   bool
}

// newGen listens for Notifs. outstanding > 0 selects a closed loop of that
// many logical clients.
func newGen(sched *schedule, outstanding int, capture bool) (*gen, error) {
	reg, _, clientKeys := crypto.GenerateDeployment(keySeed, nServers, 64)
	g := &gen{
		tr:      transport.NewClientTransport(genClientID),
		reg:     reg,
		keys:    clientKeys[genClientID],
		quorum:  types.ConfirmSize(nServers),
		sched:   sched,
		epoch:   time.Now(),
		st:      make([]txState, len(sched.props)),
		stopped: make(chan struct{}),
		quit:    make(chan struct{}),
		exited:  make(chan struct{}),
		capture: capture,
	}
	if sched.due == nil {
		g.done = make(chan int32, outstanding) // one slot per logical client
	}
	g.tr.SetWireCodec(transport.CodecBinary)
	if err := g.tr.Listen(clientAddr(genClientID), g.onEnvelope); err != nil {
		return nil, fmt.Errorf("generator listen: %w", err)
	}
	return g, nil
}

func (g *gen) close() { g.tr.Close() }

func (g *gen) now() time.Duration { return time.Since(g.epoch) }

// fail records the first error that ends the run: a failed output check
// (an errCheck) or a generator fault.
func (g *gen) fail(err error) {
	g.mu.Lock()
	if g.checkErr == nil {
		g.checkErr = err
	}
	g.mu.Unlock()
}

func (g *gen) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.checkErr
}

// onEnvelope consumes server Notifs on the transport's read goroutines. A
// Notif is verified only while its transaction still lacks f+1 matching
// ones, as internal/client does; later ones are dropped unverified unless
// they name a different sequence number, which is then a safety finding
// if the signature holds.
func (g *gen) onEnvelope(env *transport.Envelope) {
	m, ok := env.Msg.(*types.Notif)
	if !ok || env.FromServer == 0 {
		return
	}
	at := g.now()
	i, ok := g.sched.index[m.TxD]
	if !ok {
		return
	}
	bit := uint32(1) << uint(env.FromServer)
	g.mu.Lock()
	s := &g.st[i]
	if s.verified&bit != 0 || (s.committed != 0 && m.N == s.n) {
		g.mu.Unlock()
		return
	}
	if g.capture && len(g.notifs) < replayPerKind {
		g.notifs = append(g.notifs, m)
	}
	g.mu.Unlock()

	committed := false
	t0 := time.Now()
	valid := g.reg.VerifyServer(env.FromServer, m.SigningBytes(), m.Sig)
	took := time.Since(t0)

	g.mu.Lock()
	g.verifyNs += took
	g.verifyCnt++
	switch {
	case !valid:
		g.setErr(errCheck{error: fmt.Errorf("Notif from S%d for tx %d fails signature verification", env.FromServer, i)})
	case !m.Status:
		g.setErr(errCheck{error: fmt.Errorf("S%d rejected tx %d", env.FromServer, i)})
	case s.verified != 0 && m.N != s.n:
		g.setErr(errCheck{error: fmt.Errorf("tx %d: S%d's Notif names seq %d, an earlier one names %d", i, env.FromServer, m.N, s.n)})
	case s.verified&bit == 0:
		s.verified |= bit
		s.n = m.N
		if s.committed == 0 && popcount(s.verified) >= g.quorum {
			s.committed = at
			committed = true
		}
	}
	g.mu.Unlock()
	if committed && g.done != nil {
		g.done <- i // never blocks: sized to the outstanding count
	}
}

// setErr is fail with g.mu held.
func (g *gen) setErr(err error) {
	if g.checkErr == nil {
		g.checkErr = err
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// broadcast sends msg to every server; sends to a dead server fail fast
// and are expected while one is down.
func (g *gen) broadcast(msg types.Message) {
	for i := 1; i <= nServers; i++ {
		_ = g.tr.Send(serverAddr(types.ServerID(i)), msg)
	}
}

// sendRec is one proposal broadcast: when it started, how late it was
// against its reference (due time, or the commit that freed its logical
// client), and how long the four sends took.
type sendRec struct {
	at, lag, dur time.Duration
}

// sendProp broadcasts proposal i; ref is when it should have gone out.
func (g *gen) sendProp(i int32, ref time.Duration) time.Duration {
	t0 := time.Now()
	at := t0.Sub(g.epoch)
	g.mu.Lock()
	g.st[i].sent = at
	g.mu.Unlock()
	g.broadcast(g.sched.props[i])
	g.sends = append(g.sends, sendRec{at: at, lag: at - ref, dur: time.Since(t0)})
	return at
}

// complaints is the FIFO of pending complaint deadlines. Deadlines are
// pushed in time order (send time or re-arm time plus a constant), so the
// queue stays sorted.
type complaints struct {
	at  []time.Duration
	idx []int32
}

func (c *complaints) push(at time.Duration, i int32) {
	c.at = append(c.at, at)
	c.idx = append(c.idx, i)
}

// complain broadcasts a Compt for every sent, unconfirmed transaction whose
// complaint deadline has passed, and re-arms it.
func (g *gen) complain(c *complaints, now time.Duration) {
	for len(c.at) > 0 && c.at[0] <= now {
		i := c.idx[0]
		c.at, c.idx = c.at[1:], c.idx[1:]
		g.mu.Lock()
		committed := g.st[i].committed != 0
		g.mu.Unlock()
		if committed {
			continue
		}
		compt := &types.Compt{Prop: *g.sched.props[i]}
		compt.Sig = g.keys.Sign(compt.SigningBytes())
		g.broadcast(compt)
		c.push(now+complaintTimeout, i)
	}
}

// start launches the sending goroutine. Open loop (sched.due set): each
// transaction goes out at its due time after start. Closed loop:
// outstanding logical clients, each sending its next transaction when the
// previous commits.
func (g *gen) start(outstanding int) {
	if g.sched.due != nil {
		// Due times count from now; the shift is set before any send.
		g.shift = g.now()
	}
	go func() {
		defer close(g.exited)
		if g.sched.due != nil {
			g.openLoop()
		} else {
			g.closedLoop(outstanding)
		}
	}()
}

func (g *gen) openLoop() {
	var c complaints
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	next := int32(0)
	sending := true
	for {
		now := g.now()
		if sending {
			select {
			case <-g.stopped:
				sending = false
			default:
			}
		}
		if sending && int(next) < len(g.sched.props) && g.due(next) <= now {
			at := g.sendProp(next, g.due(next))
			c.push(at+complaintTimeout, next)
			next++
			continue
		}
		g.complain(&c, now)
		wake := now + 5*time.Millisecond
		if sending && int(next) < len(g.sched.props) && g.due(next) < wake {
			wake = g.due(next)
		}
		if len(c.at) > 0 && c.at[0] < wake {
			wake = c.at[0]
		}
		timer.Reset(wake - now)
		select {
		case <-g.quit:
			return
		case <-timer.C:
		}
	}
}

func (g *gen) closedLoop(outstanding int) {
	var c complaints
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	next := int32(0)
	sending := true
	send := func(ref time.Duration) {
		if !sending {
			return
		}
		if int(next) >= len(g.sched.props) {
			g.fail(fmt.Errorf("pre-signed schedule of %d transactions exhausted", len(g.sched.props)))
			sending = false
			return
		}
		at := g.sendProp(next, ref)
		c.push(at+complaintTimeout, next)
		next++
	}
	for k := 0; k < outstanding; k++ {
		send(g.now())
	}
	stopped := g.stopped
	for {
		select {
		case <-g.quit:
			return
		case <-stopped:
			sending = false
			stopped = nil
		case i := <-g.done:
			g.mu.Lock()
			freed := g.st[i].committed
			g.mu.Unlock()
			send(freed)
		case <-tick.C:
			g.complain(&c, g.now())
		}
	}
}

// stopSending ends new proposals; complaints continue until finish.
func (g *gen) stopSending() { g.stopOnce.Do(func() { close(g.stopped) }) }

// finish stops the sending goroutine and waits for it.
func (g *gen) finish() {
	g.finishOnce.Do(func() {
		close(g.quit)
		<-g.exited
	})
}

// snapshot copies the per-transaction records.
func (g *gen) snapshot() []txState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]txState(nil), g.st...)
}

// firstCommitAfter returns the earliest commit time of a transaction first
// sent after t, or 0 if none has committed yet.
func (g *gen) firstCommitAfter(t time.Duration) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	best := time.Duration(0)
	for i := range g.st {
		s := &g.st[i]
		if s.sent > t && s.committed != 0 && (best == 0 || s.committed < best) {
			best = s.committed
		}
	}
	return best
}

// due is transaction i's due time on the generator clock (open loop).
func (g *gen) due(i int32) time.Duration { return g.shift + g.sched.due[i] }

// startOf is when transaction i's latency starts: its due time in an open
// loop, its send time in a closed one.
func (g *gen) startOf(i int, s *txState) time.Duration {
	if g.sched.due != nil {
		return g.due(int32(i))
	}
	return s.sent
}

// allCommitted reports whether every transaction sent and started in
// [from, to) has committed.
func (g *gen) allCommitted(from, to time.Duration) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.st {
		s := &g.st[i]
		if st := g.startOf(i, s); s.sent != 0 && st >= from && st < to && s.committed == 0 {
			return false
		}
	}
	return true
}
