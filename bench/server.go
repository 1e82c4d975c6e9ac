package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"profirt/internal/obs"
	"profirt/internal/serve"
)

// buildBinaries compiles the two commands the benchmark drives, and
// the benchmark's own peakrss, into dir. Building is set-up, never timed.
func buildBinaries(root, dir string) error {
	for _, b := range []struct{ dir, pkg string }{
		{root, "./cmd/profiserve"},
		{root, "./cmd/experiments"},
		{filepath.Join(root, "bench"), "./peakrss"},
	} {
		c := exec.Command("go", "build", "-o", filepath.Join(dir, filepath.Base(b.pkg)), b.pkg)
		c.Dir = b.dir
		c.Stdout, c.Stderr = os.Stderr, os.Stderr
		if err := c.Run(); err != nil {
			return fmt.Errorf("building %s: %w", b.pkg, err)
		}
	}
	return nil
}

// server is one running profiserve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error // receives cmd.Wait's result once
	// ready is the time from exec to the first 200 from /healthz.
	ready time.Duration
}

const startTimeout = 30 * time.Second

// startServer execs profiserve on an ephemeral loopback port with
// every other flag at its default, and returns once /healthz answers.
func startServer(bin string, hc *http.Client) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := obs.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting profiserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Read stderr to the end so the process never blocks on a full
		// pipe; the first banner line carries the listen address.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		s.done <- cmd.Wait()
	}()
	select {
	case s.url = <-addr:
	case err := <-s.done:
		return nil, fmt.Errorf("profiserve exited before listening: %v", err)
	case <-time.After(startTimeout):
		s.kill()
		return nil, errors.New("profiserve did not print its listen address")
	}
	for {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = obs.Now().Sub(t0)
				return s, nil
			}
		}
		if obs.Now().Sub(t0) > startTimeout {
			s.kill()
			return nil, fmt.Errorf("profiserve not healthy after %v: %v", startTimeout, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit; a
// drain that does not end cleanly is an error.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("profiserve drain: %w", err)
		}
		return nil
	case <-time.After(startTimeout):
		s.kill()
		return errors.New("profiserve did not drain")
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics scrapes /metrics?format=json.
func (s *server) metrics(hc *http.Client) (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := hc.Get(s.url + "/metrics?format=json")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// post sends one request body and reads the response body into buf,
// which the caller reuses across requests to keep the load
// generator's own allocation low; any status but 200 is an error.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}
