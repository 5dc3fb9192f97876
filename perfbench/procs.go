package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prestigebft/internal/metrics"
	"prestigebft/internal/types"
)

// Loopback layout. prestige-server sends client replies to 127.0.0.1:9000+ID,
// so the generator's identity fixes its listen port.
const (
	nServers     = 4
	basePort     = 17100 // server i listens on basePort+i
	baseAdmin    = 17200 // server i serves /metrics and /healthz on baseAdmin+i
	genClientID  = types.ClientID(1)
	keySeed      = 42 // deployment key seed shared by servers and generator
	serverRNG    = 7  // fixed -rng-seed: reproducible timer jitter and nonces
	healthBound  = 10 * time.Second
	firstCommitT = 10 * time.Second
)

func serverAddr(id types.ServerID) string {
	return fmt.Sprintf("127.0.0.1:%d", basePort+int(id))
}

func adminAddr(id types.ServerID) string {
	return fmt.Sprintf("127.0.0.1:%d", baseAdmin+int(id))
}

func clientAddr(id types.ClientID) string {
	return fmt.Sprintf("127.0.0.1:%d", 9000+int(id))
}

// checkPortsFree fails when any server, admin or client-return port is
// taken: a stale server from an earlier run would silently join the cluster.
func checkPortsFree() error {
	addrs := []string{clientAddr(genClientID)}
	for i := 1; i <= nServers; i++ {
		addrs = append(addrs, serverAddr(types.ServerID(i)), adminAddr(types.ServerID(i)))
	}
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			return fmt.Errorf("preflight: port %s is not free: %w", a, err)
		}
		ln.Close()
	}
	return nil
}

// buildServer compiles cmd/prestige-server from the checkout root into dir.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "prestige-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/prestige-server")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("preflight: build prestige-server: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every server process so that each exit path — normal
// return, hard deadline, signal — can kill and reap them. The Pdeathsig set
// at spawn covers the paths that run no Go code at all (SIGKILL, a crash).
type children struct {
	// killMu serializes killAll with itself, so that every caller returns
	// after the reaping, and with start, so that no child starts unseen
	// while killAll runs or after it.
	killMu  sync.Mutex
	stopped bool // killAll has run; guarded by killMu
	mu      sync.Mutex
	procs   map[*exec.Cmd]chan struct{} // closed once the child is reaped
	spawn   chan spawnReq
}

type spawnReq struct {
	cmd *exec.Cmd
	err chan error
}

func newChildren() *children {
	c := &children{procs: make(map[*exec.Cmd]chan struct{}), spawn: make(chan spawnReq)}
	// Pdeathsig fires when the OS thread that forked the child exits, not
	// the process. Forking from one locked thread that lives as long as the
	// process makes it fire exactly when the benchmark dies. The goroutine
	// is never stopped: it ends with the process.
	go func() {
		goruntime.LockOSThread()
		for r := range c.spawn {
			r.err <- r.cmd.Start()
		}
	}()
	return c
}

// start launches cmd with SIGKILL as its parent-death signal and reaps it
// in the background.
func (c *children) start(cmd *exec.Cmd) error {
	c.killMu.Lock()
	defer c.killMu.Unlock()
	if c.stopped {
		return errors.New("servers are being stopped")
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errc := make(chan error, 1)
	c.spawn <- spawnReq{cmd, errc}
	if err := <-errc; err != nil {
		return err
	}
	exited := make(chan struct{})
	c.mu.Lock()
	c.procs[cmd] = exited
	c.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		close(exited)
	}()
	return nil
}

// exited reports whether cmd has ended on its own.
func (c *children) exited(cmd *exec.Cmd) bool {
	c.mu.Lock()
	ch := c.procs[cmd]
	c.mu.Unlock()
	if ch == nil {
		return true
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// kill sends SIGKILL to cmd and waits until it has been reaped.
func (c *children) kill(cmd *exec.Cmd) {
	c.mu.Lock()
	exited := c.procs[cmd]
	delete(c.procs, cmd)
	c.mu.Unlock()
	if exited == nil {
		return
	}
	_ = cmd.Process.Kill() // fails only when the child already exited
	<-exited
}

// killAll kills and reaps every tracked child.
func (c *children) killAll() {
	c.killMu.Lock()
	defer c.killMu.Unlock()
	c.stopped = true
	c.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(c.procs))
	for cmd := range c.procs {
		cmds = append(cmds, cmd)
	}
	c.mu.Unlock()
	for _, cmd := range cmds {
		c.kill(cmd)
	}
}

// procCluster is four prestige-server processes on loopback, each with its
// own keys, crypto registry and verified-fact cache.
type procCluster struct {
	kids *children
	bin  string
	log  *os.File // servers' shared output, opened by the caller

	mu    sync.Mutex              // guards procs: the window's CPU ticker reads it
	procs [nServers + 1]*exec.Cmd // index = server ID; nil when dead
}

// proc returns server id's process, nil when it is down.
func (pc *procCluster) proc(id types.ServerID) *exec.Cmd {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.procs[id]
}

func (pc *procCluster) spawn(id types.ServerID) error {
	peers := make([]string, nServers)
	for i := range peers {
		peers[i] = serverAddr(types.ServerID(i + 1))
	}
	// Defaults everywhere else: β=100, W=8, binary codec, 2 verify
	// workers, puzzle bits 4.
	cmd := exec.Command(pc.bin,
		"-id", strconv.Itoa(int(id)),
		"-n", strconv.Itoa(nServers),
		"-listen", serverAddr(id),
		"-peers", strings.Join(peers, ","),
		"-seed", strconv.Itoa(keySeed),
		"-rng-seed", strconv.Itoa(serverRNG),
		"-admin", adminAddr(id),
	)
	cmd.Stdout = pc.log
	cmd.Stderr = pc.log
	if err := pc.kids.start(cmd); err != nil {
		return fmt.Errorf("spawn S%d: %w", id, err)
	}
	pc.mu.Lock()
	pc.procs[id] = cmd
	pc.mu.Unlock()
	return nil
}

func (pc *procCluster) startAll() error {
	for i := 1; i <= nServers; i++ {
		if err := pc.spawn(types.ServerID(i)); err != nil {
			return err
		}
	}
	return nil
}

// stop kills every server of the cluster and waits until each is reaped.
func (pc *procCluster) stop() {
	for i := 1; i <= nServers; i++ {
		pc.mu.Lock()
		cmd := pc.procs[types.ServerID(i)]
		pc.procs[types.ServerID(i)] = nil
		pc.mu.Unlock()
		if cmd != nil {
			pc.kids.kill(cmd)
		}
	}
}

var adminClient = &http.Client{Timeout: 2 * time.Second}

// waitHealthy polls every live server's /healthz until all answer 200.
func (pc *procCluster) waitHealthy() error {
	deadline := time.Now().Add(healthBound)
	for i := 1; i <= nServers; i++ {
		id := types.ServerID(i)
		for {
			if pc.kids.exited(pc.proc(id)) {
				return fmt.Errorf("preflight: S%d exited during start-up", id)
			}
			resp, err := adminClient.Get("http://" + adminAddr(id) + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("preflight: S%d /healthz not green within %v", id, healthBound)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// scrape fetches and parses one server's /metrics.
func scrape(id types.ServerID) (metrics.Snapshot, error) {
	resp, err := adminClient.Get("http://" + adminAddr(id) + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape S%d: %w", id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape S%d: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape S%d: status %d", id, resp.StatusCode)
	}
	return metrics.Parse(body)
}

// serverSample is one server's counters at one instant.
type serverSample struct {
	snap   metrics.Snapshot
	cpuSec float64
	hwmMB  float64
}

// sample scrapes /metrics and reads /proc for every live server.
func (pc *procCluster) sample() (map[types.ServerID]serverSample, error) {
	out := make(map[types.ServerID]serverSample, nServers)
	for i := 1; i <= nServers; i++ {
		id := types.ServerID(i)
		cmd := pc.proc(id)
		if cmd == nil {
			continue
		}
		snap, err := scrape(id)
		if err != nil {
			return nil, err
		}
		cpu, err := procCPUSeconds(cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		hwm, err := procPeakRSSMB(cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out[id] = serverSample{snap: snap, cpuSec: cpu, hwmMB: hwm}
	}
	return out, nil
}

// cpu reads the CPU seconds of every live server from /proc; a server
// whose read fails (it exited) is left out.
func (pc *procCluster) cpu() map[types.ServerID]float64 {
	out := make(map[types.ServerID]float64, nServers)
	for i := 1; i <= nServers; i++ {
		id := types.ServerID(i)
		if cmd := pc.proc(id); cmd != nil {
			if sec, err := procCPUSeconds(cmd.Process.Pid); err == nil {
				out[id] = sec
			}
		}
	}
	return out
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPUSeconds returns utime+stime of pid from /proc.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) / clockTicks, nil
}

// procPeakRSSMB returns VmHWM (peak resident set) of pid in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
