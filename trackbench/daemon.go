package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"disttrack/internal/remote"
)

// daemon is one trackd process under test.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait returns
	base   string        // http://host:port
	ingest string        // coord role: site-node ingest address
	log    *tail
}

// tail keeps the last few KiB of the daemon's log for error reports.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = t.buf[len(t.buf)-(8<<10):]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches trackd in the given role with default tuning and no
// data directory.
func startDaemon(bin, role string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-role", role, "-listen", addr}
	d := &daemon{base: "http://" + addr, log: &tail{}, exited: make(chan struct{})}
	if role == "coord" {
		if d.ingest, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-ingest-listen", d.ingest)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start trackd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through exited
		close(d.exited)
	}()
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("trackd exited during start-up: %s", d.log)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trackd not healthy after %v: %v", timeout, err)
		}
		// nanosleep, not time.Sleep: Go's timers overshoot by up to a
		// millisecond, a seventh of a whole set-up.
		_ = syscall.Nanosleep(&syscall.Timespec{Nsec: 200_000}, nil) // EINTR only shortens the wait
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// postJSON POSTs body and returns the status and response body.
func postJSON(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// newClient returns an HTTP client that holds at most one connection, so
// each generator goroutine is exactly one keep-alive socket.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// setUp launches trackd for workload w and readies it: healthy, every
// tenant created and, for quantile-tcp, both site-node connections
// handshaken. The returned duration is the set-up time users wait for.
func setUp(bin, w string, conns int) (*daemon, []*remote.NodeClient, time.Duration, error) {
	role := "standalone"
	if w == wQuant {
		role = "coord"
	}
	c := newClient()
	defer c.CloseIdleConnections()
	t0 := time.Now()
	d, err := startDaemon(bin, role)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*daemon, []*remote.NodeClient, time.Duration, error) {
		d.stop()
		return nil, nil, 0, err
	}
	if err := d.waitHealthy(c, 30*time.Second); err != nil {
		return fail(err)
	}
	for _, t := range tenantsOf(w) {
		body, err := json.Marshal(t.cfg)
		if err != nil {
			return fail(err)
		}
		status, raw, err := postJSON(c, d.base+"/v1/tenants", body)
		if err != nil {
			return fail(err)
		}
		if status != http.StatusCreated {
			return fail(fmt.Errorf("create tenant %s: status %d: %s", t.cfg.Name, status, raw))
		}
	}
	var nodes []*remote.NodeClient
	if w == wQuant {
		for i := 0; i < conns; i++ {
			cl, err := remote.DialNode(d.ingest, remote.NodeConfig{Node: "bench-" + strconv.Itoa(i)})
			if err != nil {
				closeNodes(nodes)
				return fail(fmt.Errorf("dial %s: %w", d.ingest, err))
			}
			nodes = append(nodes, cl)
		}
	}
	return d, nodes, time.Since(t0), nil
}

func closeNodes(nodes []*remote.NodeClient) {
	for _, n := range nodes {
		_ = n.Close() // always nil; unacked frames are already counted as failures
	}
}

// procCPU returns a process's utime+stime from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the full line, 12 and 13 after ") ".
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns a process's VmHWM in MiB.
func peakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// generatorNice is the generator's scheduling priority during a run.
const generatorNice = -10

// prioritize sets every thread of this process to generatorNice. Linux
// applies priorities per thread, and a new thread inherits its creator's,
// so a second pass catches threads created during the first.
func prioritize() error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			err = syscall.Setpriority(syscall.PRIO_PROCESS, tid, generatorNice)
			if err != nil && !errors.Is(err, syscall.ESRCH) { // ESRCH: the thread exited
				return err
			}
		}
	}
	return nil
}
