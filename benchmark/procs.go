package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the module root, so the
// harness runs from the checkout root (`go run ./benchmark`) and from its
// own directory (`go test`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "oasis-serve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no module root with cmd/oasis-serve above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles the unmodified server and index builder into
// binDir.  Compile time is never part of a measurement.
func buildBinaries(ctx context.Context, root, binDir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/oasis-build", "./cmd/oasis-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// runTool runs a child to completion (oasis-build) and returns its output on
// failure.
func runTool(ctx context.Context, bin string, args ...string) error {
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return nil
}

// proc is one running oasis-serve child.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	// execAt is when the child was launched (serve.ready_ms starts here).
	execAt time.Time
	// done is closed once the child has been reaped; waitErr is its exit.
	done    chan struct{}
	waitErr error
}

// freeAddr picks an ephemeral loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServe launches oasis-serve on a fresh ephemeral port with its output
// going to logPath.  The child is terminated when ctx is cancelled.
func startServe(ctx context.Context, bin, name, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	p := &proc{name: name, addr: addr, cmd: cmd, log: logFile, execAt: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /healthz/ready until it answers 200, the child exits, or
// ctx ends.
func (p *proc) waitReady(ctx context.Context, client *http.Client) error {
	url := "http://" + p.addr + "/healthz/ready"
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.exited() || time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready; log:\n%s", p.name, p.tailLog())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// exited reports whether the child has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *proc) tailLog() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM) from
// /proc; 0 where /proc is unavailable.
func (p *proc) peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(string(rest)), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stop sends SIGTERM, waits for the graceful drain to finish and returns the
// child's peak RSS sampled just before the signal.  A child that does not
// exit within the deadline is killed and reported.
func (p *proc) stop() (rssMB float64, err error) {
	rssMB = p.peakRSSMB()
	defer p.log.Close()
	// A child that already ended makes Signal fail; the wait below reports
	// how it ended.
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.waitErr != nil {
			return rssMB, fmt.Errorf("%s exited: %w; log:\n%s", p.name, p.waitErr, p.tailLog())
		}
		return rssMB, nil
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return rssMB, fmt.Errorf("%s ignored SIGTERM for 20s and was killed", p.name)
	}
}
