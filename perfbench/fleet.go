package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// healthTimeout bounds how long a daemon may take to answer
// /v1/healthz with 200 after launch.
const healthTimeout = 60 * time.Second

// daemon is one assayd process the benchmark owns.
type daemon struct {
	name string
	args []string // flags after -addr
	addr string   // host:port
	logf string   // stderr/stdout capture

	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait returns
}

// running tracks every started process so that any exit path, including
// a failed run, a signal or the watchdog, can kill them.
var running = struct {
	sync.Mutex
	procs map[*exec.Cmd]chan struct{}
}{procs: map[*exec.Cmd]chan struct{}{}}

func (d *daemon) url() string { return "http://" + d.addr }

// start launches the daemon. It dies with the benchmark process even if
// that process is killed outright (Pdeathsig).
func (d *daemon) start(bin string) error {
	out, err := os.OpenFile(d.logf, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer out.Close()
	cmd := exec.Command(bin, append([]string{"-addr", d.addr}, d.args...)...)
	cmd.Stdout, cmd.Stderr = out, out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	running.Lock()
	defer running.Unlock()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	d.cmd, d.done = cmd, make(chan struct{})
	running.procs[cmd] = d.done
	go func(done chan struct{}) {
		_ = cmd.Wait()
		close(done)
	}(d.done)
	return nil
}

// stop ends the daemon and waits for it: SIGTERM drains it the way an
// operator restart does, SIGKILL is the teardown of a finished or
// failed run.
func (d *daemon) stop(sig syscall.Signal) error {
	if d.cmd == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(sig)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s did not stop on %v", d.name, sig)
	}
	running.Lock()
	delete(running.procs, d.cmd)
	running.Unlock()
	d.cmd = nil
	return nil
}

// killAll kills and reaps every process still running.
func killAll() {
	running.Lock()
	defer running.Unlock()
	for cmd, done := range running.procs {
		_ = cmd.Process.Kill()
		<-done
		delete(running.procs, cmd)
	}
}

// waitHealthy polls /v1/healthz until it answers 200 with status "ok".
func (d *daemon) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(healthTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up (see %s)", d.name, d.logf)
		default:
		}
		if healthOK(client, d.url()) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v", d.name, healthTimeout)
}

func healthOK(client *http.Client, base string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "ok"
}

// hwmMB is the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) hwmMB() (float64, error) {
	if d.cmd == nil {
		return 0, fmt.Errorf("%s not running", d.name)
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", d.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

// freeAddr reserves an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// fleet is one run's set of daemons: the worker clients talk to and,
// once the traced run adds it, a federation gateway in front of it.
type fleet struct {
	w       workload
	bin     string
	dir     string
	worker  *daemon
	gateway *daemon
}

// newFleet lays out a worker with nproc shards of the workload's die on
// a fresh port under dir; nothing is started yet.
func newFleet(w workload, bin, dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-shards", strconv.Itoa(runtime.NumCPU()),
		"-cols", strconv.Itoa(w.cols), "-rows", strconv.Itoa(w.rows)}
	return &fleet{w: w, bin: bin, dir: dir,
		worker: &daemon{name: "w0", args: args, addr: addr, logf: filepath.Join(dir, "w0.log")}}, nil
}

// addGateway lays out a gateway over the fleet's worker; it is not
// started.
func (f *fleet) addGateway() error {
	spec, err := json.Marshal(map[string]any{"members": []any{map[string]any{
		"name": f.worker.name, "addr": f.worker.url(),
		"profiles": []any{map[string]any{"name": "default", "shards": runtime.NumCPU(),
			"cols": f.w.cols, "rows": f.w.rows}}}}})
	if err != nil {
		return err
	}
	specPath := filepath.Join(f.dir, "members.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	f.gateway = &daemon{name: "gw", args: []string{"-gateway", "-members", specPath},
		addr: addr, logf: filepath.Join(f.dir, "gw.log")}
	return nil
}

// up starts the worker, waits for it, then starts the gateway if there
// is one and waits for it, returning the elapsed time. A restarted
// gateway re-resolves its routed jobs against its members, so the
// worker comes first.
func (f *fleet) up(client *http.Client) (time.Duration, error) {
	t0 := time.Now()
	if err := startAll(f.bin, []*daemon{f.worker}, client); err != nil {
		return 0, err
	}
	if f.gateway != nil {
		if err := startAll(f.bin, []*daemon{f.gateway}, client); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func startAll(bin string, ds []*daemon, client *http.Client) error {
	for _, d := range ds {
		if err := d.start(bin); err != nil {
			return err
		}
	}
	errs := make([]error, len(ds))
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.waitHealthy(client)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// down stops every daemon of the fleet, gateway first.
func (f *fleet) down(sig syscall.Signal) error {
	var errs []error
	if f.gateway != nil {
		errs = append(errs, f.gateway.stop(sig))
	}
	return errors.Join(append(errs, f.worker.stop(sig))...)
}

// restart drain-stops every daemon and starts it again on the same
// port, returning the time until all are healthy again.
func (f *fleet) restart(client *http.Client) (time.Duration, error) {
	t0 := time.Now()
	if err := f.down(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if _, err := f.up(client); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// restartGateway restarts the gateway alone.
func (f *fleet) restartGateway(client *http.Client) (time.Duration, error) {
	t0 := time.Now()
	if err := f.gateway.stop(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if err := startAll(f.bin, []*daemon{f.gateway}, client); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
