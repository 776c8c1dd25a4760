package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one batserve process on loopback, started with default flags
// plus a result-store file.
type server struct {
	cmd  *exec.Cmd
	base string
	// ready is the time from exec to the first 200 from /readyz.
	ready time.Duration

	mu     sync.Mutex
	stderr bytes.Buffer
	waited chan struct{}
	err    error
}

// startServer launches bin on a free loopback port with the given store
// file. With gcTrace the Go runtime prints one line per collection on
// stderr, which gcStats parses; nothing else about the server changes.
func startServer(ctx context.Context, bin, storePath string, gcTrace bool) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s, err := launch(ctx, bin, storePath, port, gcTrace)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func launch(ctx context.Context, bin, storePath string, port int, gcTrace bool) (*server, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, waited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-store", storePath)
	s.cmd.Env = os.Environ()
	if gcTrace {
		s.cmd.Env = append(s.cmd.Env, "GODEBUG=gctrace=1")
	}
	// The kernel kills the server should the benchmark itself die first.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = lockedWriter{&s.mu, &s.stderr}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.waited)
	}()
	// Readiness is polled on a fresh connection each time, so a keep-alive
	// socket to a not-yet-listening port can never stall the probe.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for {
		select {
		case <-s.waited:
			return nil, fmt.Errorf("batserve exited before ready: %v: %s", s.err, s.stderrText())
		default:
		}
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.kill()
			return nil, fmt.Errorf("batserve not ready within 30s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (s *server) stderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 20 s.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.waited:
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("batserve did not drain within 20s")
	}
	// batserve installs its signal handler only after it starts serving,
	// so a SIGTERM right after the first ready answer can end it by the
	// default action instead of the graceful drain.
	var exit *exec.ExitError
	if errors.As(s.err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return s.err
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.waited
}

// gcTraceLine matches the runtime's gctrace summary: the wall-clock phase
// times (the first and third are stop-the-world pauses) and the heap sizes
// at start, end and live.
var gcTraceLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: ([\d.]+)\+([\d.]+)\+([\d.]+) ms clock.*?(\d+)->(\d+)->(\d+) MB`)

// gcSummary totals the collections a gctrace log reports. A line in an
// unfamiliar layout still counts as a cycle.
type gcSummary struct {
	cycles     int
	pauseMS    float64
	peakHeapMB float64
}

func gcStats(log string) gcSummary {
	var g gcSummary
	sc := bufio.NewScanner(strings.NewReader(log))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		g.cycles++
		m := gcTraceLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		stw1, _ := strconv.ParseFloat(m[1], 64)
		stw2, _ := strconv.ParseFloat(m[3], 64)
		g.pauseMS += stw1 + stw2
		for _, h := range m[4:6] {
			mb, _ := strconv.ParseFloat(h, 64)
			g.peakHeapMB = max(g.peakHeapMB, mb)
		}
	}
	return g
}

// cpuSeconds is the process's user plus system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) / 100, nil
}
