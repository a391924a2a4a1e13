package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// served is one running `gmine serve` process plus the HTTP client the
// benchmark's closed-loop clients share.
type served struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	stderr *bytes.Buffer
	// done closes once the process has been waited for; exitErr is its
	// status (written before done closes).
	done    chan struct{}
	exitErr error
}

// sessionURL is where every workload request goes: servers preload one
// session under the default name, so bodies are comparable across backends.
func (s *served) sessionURL() string { return s.base + "/sessions/default" }

// freePort asks the kernel for an unused loopback port. `gmine serve`
// prints the address it was given, not the one it bound, so the driver
// has to choose the port itself.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// launch starts `gmine serve` with args and waits until /healthz lists the
// preloaded session. The returned duration is that wait: what a user pays
// between starting the server and the first answerable request.
func launch(gmine string, args []string) (*served, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &served{
		base:   "http://" + addr,
		stderr: &bytes.Buffer{},
		client: &http.Client{
			Timeout:   120 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute},
		},
	}
	begin := time.Now()
	s.cmd = exec.Command(gmine, append([]string{"serve", "-addr", addr, "-log", "off"}, args...)...)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	s.done = make(chan struct{})
	go func() { s.exitErr = s.cmd.Wait(); close(s.done) }()
	running.Store(s)
	deadline := time.Now().Add(90 * time.Second)
	for {
		select {
		case <-s.done:
			running.CompareAndSwap(s, nil)
			return nil, 0, fmt.Errorf("gmine serve exited during start-up: %v\n%s", s.exitErr, s.stderr)
		default:
		}
		if h, err := s.healthz(); err == nil && len(h.Sessions) > 0 {
			return s, time.Since(begin), nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("gmine serve not healthy after 90s\n%s", s.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// healthInfo mirrors the parts of GET /healthz the benchmark reads.
type healthInfo struct {
	Sessions []string `json:"sessions"`
	Cache    struct {
		Capacity  int    `json:"capacity"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"cache"`
	Pools map[string]struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Capacity  int    `json:"capacity"`
		FilePages int    `json:"filePages"`
		Retry     struct {
			Retries uint64 `json:"Retries"`
			Failed  uint64 `json:"Failed"`
		} `json:"retry"`
		Tier *struct {
			Budget     int64  `json:"budget"`
			Bytes      int64  `json:"bytes"`
			Fragments  int    `json:"fragments"`
			Promotions uint64 `json:"promotions"`
			Demotions  uint64 `json:"demotions"`
			Hits       uint64 `json:"hits"`
			Misses     uint64 `json:"misses"`
		} `json:"tier"`
	} `json:"pools"`
}

func (s *served) healthz() (*healthInfo, error) {
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	var h healthInfo
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}
	return &h, nil
}

// get fetches a session-relative path and returns the body of a 200.
func (s *served) get(rel string) ([]byte, error) {
	resp, err := s.client.Get(s.sessionURL() + rel)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", rel, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// peakRSSMB reads the server's high-water resident set (VmHWM) while it is
// still running; 0 when /proc does not say.
func (s *served) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stop asks the server to shut down gracefully and waits until the process
// has ended, killing it if the grace period runs out.
func (s *served) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		running.CompareAndSwap(s, nil)
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

func (s *served) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
	running.CompareAndSwap(s, nil)
}

// running is the server process now alive, if any: the driver runs one at
// a time, and takes it down with it when told to stop.
var running atomic.Pointer[served]

// stopOnSignal makes SIGINT and SIGTERM a way out of the driver that, like
// every other, leaves no server behind.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		if s := running.Load(); s != nil {
			s.kill()
		}
		os.Exit(1)
	}()
}
