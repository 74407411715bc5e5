package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one pnserve child process with a fresh journal directory.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dir     string // the -journal-dir
	procs   int    // the server's GOMAXPROCS, which caps a sweep job's pool
	exited  chan struct{}
	started time.Time
	ready   time.Duration // exec until /readyz answered 200
}

// startServer execs pnserve on an ephemeral port with a fresh journal
// directory and the flags every workload uses, and waits until /readyz
// answers 200. The child dies with the benchmark (Pdeathsig) even if the
// benchmark is killed.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-journal-dir", dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, dir: dir, exited: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting pnserve: %w", err)
	}
	listening := make(chan string, 1)
	go func() {
		// Copies the server's stderr to its log; the first line names the
		// resolved address. Ends when the process closes stderr at exit.
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if strings.Contains(line, "listening on ") {
				select {
				case listening <- line:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case line := <-listening:
		addr, rest, _ := strings.Cut(strings.SplitN(line, "listening on ", 2)[1], " ")
		s.base = "http://" + addr
		if i := strings.Index(rest, "GOMAXPROCS "); i >= 0 {
			s.procs, _ = strconv.Atoi(strings.TrimRight(rest[i+len("GOMAXPROCS "):], ")"))
		}
	case <-s.exited:
		return nil, fmt.Errorf("pnserve exited before listening (see %s.log)", dir)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("pnserve did not report its address within 30s")
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	if s.procs < 1 {
		s.procs = 1
	}
	if err := s.waitReady(ctx); err != nil {
		s.kill()
		return nil, err
	}
	s.ready = time.Since(s.started)
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return errors.New("pnserve exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("pnserve not ready within 30s")
}

// peakRSSMB reads the server's VmHWM from /proc.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
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

// cpuSeconds reads the server's CPU time so far, user plus system, from
// /proc/<pid>/stat, whose times are in USER_HZ ticks (100 per second).
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces
	// and parentheses: state is the first, utime the 12th and stime the 13th.
	i := strings.LastIndex(string(data), ") ")
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat %q", s.cmd.Process.Pid, data)
	}
	var ticks float64
	for _, v := range f[11:13] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", s.cmd.Process.Pid, err)
		}
		ticks += n
	}
	return ticks / 100, nil
}

// stop drains the server with SIGTERM and waits for it to exit; after 30 s
// it is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("pnserve did not drain within 30s")
	}
	if code := s.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("pnserve exited with code %d", code)
	}
	return nil
}

// kill ends the process and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// dirUsage sums the bytes under the journal directory (journals, spill files
// and traces) and collects the job IDs that still own a file there.
func dirUsage(dir string) (int64, map[string]bool, error) {
	var total int64
	ids := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		ids[strings.SplitN(d.Name(), ".", 2)[0]] = true
		return nil
	})
	return total, ids, err
}

// scrape fetches /metrics as a map from series ("name" or
// `name{label="v"}`) to value.
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the Prometheus text format.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumFamily adds every series of one metric family.
func sumFamily(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
