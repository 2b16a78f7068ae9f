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
	"sync"
	"syscall"
	"time"

	"repro/rapids"
)

// buildRapidsd compiles cmd/rapidsd from the repository at root into
// dir and returns the binary's path. It runs before any timing.
func buildRapidsd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "rapidsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rapidsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rapidsd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running rapidsd process with its HTTP client.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error // receives cmd.Wait's result once stderr is drained
	tail   *bytes.Buffer

	stopOnce sync.Once
	stopErr  error
}

// setUpDaemon is the set-up of the rapidsd workloads, run setupReps
// times: start a fresh rapidsd with its journal in a new temporary
// directory, then run warm on it. It returns the last daemon and every
// set-up's duration in seconds; the earlier daemons are stopped.
func setUpDaemon(e *env, warm func(*daemon) error) (*daemon, []float64, error) {
	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		dir, err := os.MkdirTemp(e.tmp, "rapidsd-")
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if d, err = startDaemon(e.rapidsd, dir); err != nil {
			return nil, nil, err
		}
		if err := warm(d); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return d, setups, nil
}

// startDaemon runs bin on a free loopback port with its journal in dir
// and waits until /readyz answers 200. The client allows two
// connections, one per benchmark client.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-journal", filepath.Join(dir, "jobs.journal"))
	killWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rapidsd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan error, 1),
		tail:   new(bytes.Buffer),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				addr <- a
			}
			if d.tail.Len() < 64<<10 {
				d.tail.WriteString(line + "\n")
			}
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		return nil, fmt.Errorf("rapidsd exited before listening: %v\n%s", err, d.tail)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("rapidsd did not report its address within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		code, _, err := d.get("/readyz")
		if err == nil && code == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("rapidsd not ready after 30s (last: %d %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains rapidsd with SIGTERM, kills it if it has not exited after
// 30 s, and waits for the process to end. Later calls return the first
// call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.client.CloseIdleConnections()
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			d.cmd.Process.Kill()
		}
		select {
		case d.stopErr = <-d.exited:
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			d.stopErr = fmt.Errorf("rapidsd ignored SIGTERM: %v", <-d.exited)
		}
	})
	return d.stopErr
}

// serverSample is what the benchmark reads from rapidsd before and
// after the measured ops.
type serverSample struct {
	cpu     time.Duration
	metrics map[string]float64
}

func (d *daemon) sample() (serverSample, error) {
	cpu, err := pidCPU(d.cmd.Process.Pid)
	if err != nil {
		return serverSample{}, err
	}
	m, err := d.scrape()
	return serverSample{cpu: cpu, metrics: m}, err
}

// delta is how much counter name grew from s0 to s1.
func delta(s0, s1 serverSample, name string) float64 { return s1.metrics[name] - s0.metrics[name] }

// close reads rapidsd's resident-set high-water mark in MiB, then
// stops it.
func (d *daemon) close() (float64, error) {
	rss, err := peakRSSMB(fmt.Sprint(d.cmd.Process.Pid))
	if err != nil {
		d.stop()
		return 0, err
	}
	if err := d.stop(); err != nil {
		return 0, fmt.Errorf("rapidsd: %w", err)
	}
	return rss, nil
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) post(path string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) del(path string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, d.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// followJob reads the job's SSE stream to its end frame and returns the
// run's events and the end frame's JobStatus bytes.
func (d *daemon) followJob(id string) ([]rapids.Event, []byte, error) {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var evs []rapids.Event
	var kind string
	var data []byte
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return nil, nil, fmt.Errorf("events: stream ended before the end frame: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0 && kind == "end":
			return evs, data, nil
		case len(line) == 0 && data != nil:
			var ev rapids.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return nil, nil, fmt.Errorf("events: %w", err)
			}
			evs = append(evs, ev)
			kind, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		}
	}
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (d *daemon) scrape() (map[string]float64, error) {
	code, b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}
