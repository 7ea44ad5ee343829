package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"aggview/internal/server"
)

// tcpResult is the workload's ops replayed against a child aggserve
// over loopback TCP on one connection. It is reported, never gated: it
// measures the VM's scheduler more than the program.
type tcpResult struct {
	startup           time.Duration // exec to first healthy reply
	hotMs             []float64
	opsPerSec         float64
	attempted, failed int
	failures          []string
}

// runTCP starts the aggserve binary on the same script, replays ops as
// a closed loop of one client, then interrupts the child and waits for
// it. Without a binary, or where the sandbox refuses a loopback
// listener, the comparison is skipped with a note on stderr and its
// metrics read 0; the in-process numbers do not depend on it.
func runTCP(ctx context.Context, script string, ops []Op, o options) (*tcpResult, error) {
	res := &tcpResult{}
	skip := func(why string) (*tcpResult, error) {
		fmt.Fprintf(os.Stderr, "bench: aggserve TCP comparison skipped: %s\n", why)
		return res, nil
	}
	if o.Aggserve == "" {
		return skip("no -aggserve binary given")
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return nil, fmt.Errorf("bench: creating %s: %w", o.Out, err)
	}
	scriptPath := filepath.Join(o.Out, "warehouse.sql")
	addrPath := filepath.Join(o.Out, "aggserve.addr")
	defer os.Remove(scriptPath)
	defer os.Remove(addrPath)
	_ = os.Remove(addrPath) // a stale address must not be mistaken for the child's
	if err := os.WriteFile(scriptPath, []byte(script), 0o644); err != nil {
		return nil, fmt.Errorf("bench: writing script: %w", err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(o.Aggserve, "-script", scriptPath, "-addr", "127.0.0.1:0", "-addr-file", addrPath,
		"-cache", fmt.Sprint(cacheCapacity), "-flightrec", "-1", "-slowlog", "-1")
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return skip(err.Error())
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		_ = cmd.Process.Signal(os.Interrupt)
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
		}
	}
	defer stop()

	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &server.Client{HTTP: &http.Client{Transport: transport}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-exited:
			stopped = true
			return skip(fmt.Sprintf("child exited before listening: %v: %s", err, strings.TrimSpace(stderr.String())))
		default:
		}
		if addr, err := os.ReadFile(addrPath); err == nil && len(addr) > 0 {
			client.Base = "http://" + strings.TrimSpace(string(addr))
			if client.Healthz(ctx) == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			return skip("child did not listen within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.startup = time.Since(start)

	t0 := time.Now()
	done := 0
	for i, op := range ops {
		res.attempted++
		s := time.Now()
		err := do(ctx, client, op, false)
		lat := ms(time.Since(s))
		if err != nil {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("tcp op %d (%s): %v", i, op.Name, err))
			}
			continue
		}
		done++
		if op.Hot {
			res.hotMs = append(res.hotMs, lat)
		}
	}
	res.opsPerSec = float64(done) / time.Since(t0).Seconds()
	return res, nil
}
