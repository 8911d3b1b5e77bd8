package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one esharing-server child process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  string // path of its combined stdout/stderr
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer launches bin with args plus a loopback -addr and returns
// once /healthz answers 200, with the time from launch to that answer.
func startServer(bin string, args []string, logPath string) (*proc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(150 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("server exited during startup (%v): %s", p.err, p.tail())
		default:
		}
		resp, err := probe.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.stop()
	return nil, 0, fmt.Errorf("server not healthy after 150s: %s", p.tail())
}

// tail returns the last lines of the server's log for error messages.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// vmHWM returns the process's peak resident set in MiB.
func (p *proc) vmHWM() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// stop shuts the server down gracefully (SIGTERM closes its log) and
// waits for it, killing it if it does not exit in time. It returns an
// error if the server had to be killed or exited with a failure.
func (p *proc) stop() error {
	select {
	case <-p.done:
		return p.err
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return p.err
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return errors.New("server did not stop on SIGTERM; killed")
	}
}

// terminatedBySIGTERM reports whether a stop error only says that the
// server died of the SIGTERM itself. That happens when the signal
// lands in the instant between the server answering /healthz and
// installing its handler, which matters only for a server that is
// stopped right after start-up.
func terminatedBySIGTERM(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}
