package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat.
// Linux fixes it at 100 for user space regardless of the kernel's tick.
const userHZ = 100

// proc is one smalld process the benchmark launched.
type proc struct {
	cmd      *exec.Cmd
	httpAddr string
	rpcAddr  string        // worker role only
	drained  chan struct{} // closed once stdout hits EOF
}

// localCluster is one gateway plus its workers, all on loopback.
type localCluster struct {
	workers []*proc
	gateway *proc
	peers   []string // worker RPC addresses, as passed to the gateway
}

// gatewayURL is the base URL clients send requests to.
func (c *localCluster) gatewayURL() string { return "http://" + c.gateway.httpAddr }

// procs lists every server process, gateway first.
func (c *localCluster) procs() []*proc {
	out := []*proc{}
	if c.gateway != nil {
		out = append(out, c.gateway)
	}
	return append(out, c.workers...)
}

// startCluster launches nWorkers workers and one gateway over them and
// waits until the gateway reports every worker healthy.
func startCluster(ctx context.Context, smalld string, nWorkers int) (*localCluster, error) {
	c := &localCluster{}
	for i := 0; i < nWorkers; i++ {
		p, err := launch(ctx, smalld, true, "-role", "worker", "-addr", "127.0.0.1:0", "-rpc-addr", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("starting worker %d: %w", i, err)
		}
		c.workers = append(c.workers, p)
		c.peers = append(c.peers, p.rpcAddr)
	}
	gw, err := launch(ctx, smalld, false, "-role", "gateway", "-addr", "127.0.0.1:0",
		"-peers", strings.Join(c.peers, ","))
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	c.gateway = gw
	if err := c.waitHealthy(ctx, nWorkers); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// launch starts one smalld and reads the listen addresses it prints.
func launch(ctx context.Context, smalld string, worker bool, args ...string) (*proc, error) {
	cmd := exec.Command(smalld, args...)
	cmd.Stderr = os.Stderr
	// The kernel kills the server if the benchmark dies without
	// stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, drained: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		var httpAddr, rpcAddr string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "smalld: rpc listening on "); ok {
				rpcAddr = a
			} else if a, ok := strings.CutPrefix(line, "smalld: listening on "); ok {
				httpAddr = a
			}
			if !sent && httpAddr != "" && (rpcAddr != "" || !worker) {
				addrs <- [2]string{httpAddr, rpcAddr}
				sent = true
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addrs:
		p.httpAddr, p.rpcAddr = a[0], a[1]
		return p, nil
	case <-p.drained:
		p.stop()
		return nil, errors.New("smalld exited before printing its addresses")
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, errors.New("smalld did not print its addresses within 10s")
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

// stop asks the process to drain, kills it if it has not exited within
// five seconds, and waits for it.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	p.cmd.Wait()
}

// stop stops the gateway first, then the workers.
func (c *localCluster) stop() {
	for _, p := range c.procs() {
		p.stop()
	}
}

// waitHealthy polls the gateway's /healthz until all n workers are up.
func (c *localCluster) waitHealthy(ctx context.Context, n int) error {
	want := fmt.Sprintf("ok %d/%d workers healthy", n, n)
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(c.gatewayURL() + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.TrimSpace(string(body)) == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway did not report %q within 10s", want)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// cpuTicks sums user+system CPU of the cluster's processes, in clock
// ticks.
func (c *localCluster) cpuTicks() (int64, error) {
	var total int64
	for _, p := range c.procs() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		t, err := parseStatCPU(string(b))
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSSKiB sums the cluster's per-process peak resident set sizes.
func (c *localCluster) peakRSSKiB() (int64, error) {
	var total int64
	for _, p := range c.procs() {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseVmHWM(string(b))
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total, nil
}

// parseStatCPU returns utime+stime from the text of /proc/<pid>/stat.
// The command name in field 2 may hold spaces and parentheses, so the
// fields are counted from its closing parenthesis.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// parseVmHWM returns the VmHWM line of /proc/<pid>/status in KiB.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}
