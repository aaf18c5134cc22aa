package main

// End-to-end tests: the real assayctl binary against an in-process
// worker and a gateway fronting it, each served over httptest. What
// assayctl prints is compared with what the server itself answers, so
// the client's rendering and decoding are pinned to the wire.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biochip/internal/federation"
	"biochip/internal/obs"
	"biochip/internal/service"
)

// binDir holds the assayctl binary built once per test process.
var (
	binDir  string
	binOnce sync.Once
	binPath string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// assayctlBin builds this command once and returns the binary's path.
func assayctlBin(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		goTool, err := exec.LookPath("go")
		if err != nil {
			goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
		}
		if binDir, binErr = os.MkdirTemp("", "assayctl-e2e"); binErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "assayctl")
		out, err := exec.Command(goTool, "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("building assayctl: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// ctlResult is one assayctl invocation's outcome.
type ctlResult struct {
	stdout, stderr string
	code           int
}

// assayctl runs the binary against addr with a generous deadline, so a
// hang fails the test instead of stalling the suite.
func assayctl(t *testing.T, addr string, args ...string) ctlResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, assayctlBin(t), append([]string{"-addr", addr}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	res := ctlResult{stdout: out.String(), stderr: errb.String()}
	if ee, ok := err.(*exec.ExitError); ok {
		res.code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("assayctl %v: %v", args, err)
	}
	if ctx.Err() != nil {
		t.Fatalf("assayctl %v: still running after the test deadline", args)
	}
	return res
}

// mustRun runs assayctl and requires a zero exit.
func mustRun(t *testing.T, addr string, args ...string) ctlResult {
	t.Helper()
	res := assayctl(t, addr, args...)
	if res.code != 0 {
		t.Fatalf("assayctl %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, res.code, res.stdout, res.stderr)
	}
	return res
}

// e2eProfiles is one single-shard die, so placement and shard numbers
// are deterministic.
func e2eProfiles() []service.FleetProfileSpec {
	return []service.FleetProfileSpec{{Name: "die40", Shards: 1, Cols: 40, Rows: 40}}
}

// startWorker serves one observable worker over HTTP.
func startWorker(t *testing.T) string {
	t.Helper()
	cfg := service.FleetSpec{Profiles: e2eProfiles()}.ServiceConfig()
	cfg.Obs = obs.NewRegistry()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts.URL
}

// startGateway serves an observable gateway over the given members.
func startGateway(t *testing.T, members ...federation.MemberSpec) string {
	t.Helper()
	g, err := federation.New(federation.Config{
		Members: members, PollInterval: 50 * time.Millisecond, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() { ts.Close(); g.Close() })
	return ts.URL
}

// serverBody fetches one endpoint directly, bypassing assayctl.
func serverBody(t *testing.T, u string) []byte {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// indented is the server body as assayctl pretty-prints it.
func indented(t *testing.T, raw []byte) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Indent(&b, bytes.TrimSpace(raw), "", "  "); err != nil {
		t.Fatalf("indenting %q: %v", raw, err)
	}
	return b.String() + "\n"
}

// wallFields matches the JSON values that are wall-clock telemetry and
// so differ between two fetches of the same document.
var wallFields = regexp.MustCompile(`("(?:uptime_seconds|jobs_per_second|plan_seconds)": )[-+.eE0-9]+`)

func stripWall(s string) string { return wallFields.ReplaceAllString(s, "${1}N") }

// wallText matches the wall-clock figures in rendered text.
var wallText = regexp.MustCompile(`(uptime |up )[0-9]+s`)

func stripWallText(s string) string { return wallText.ReplaceAllString(s, "${1}Ns") }

// dataLines extracts the data: payloads of a job's complete SSE stream,
// one per line, exactly as the server framed them.
func dataLines(t *testing.T, base, id string) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(serverBody(t, base+"/v1/assays/"+id+"/events")))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if payload, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			b.WriteString(payload + "\n")
		}
	}
	if b.Len() == 0 {
		t.Fatalf("no events for %s", id)
	}
	return b.String()
}

// dropProxy fronts upstream and cuts the first event stream it relays
// after n frames, mid-connection; everything else passes through.
func dropProxy(t *testing.T, upstream string, n int) string {
	t.Helper()
	target, err := url.Parse(upstream)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	var dropped atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/events") || dropped.Swap(true) {
			rp.ServeHTTP(w, r)
			return
		}
		resp, err := http.Get(upstream + r.URL.RequestURI())
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(resp.StatusCode)
		br := bufio.NewReader(resp.Body)
		for frames := 0; frames < n; {
			line, err := br.ReadString('\n')
			if err != nil {
				break
			}
			io.WriteString(w, line)
			if line == "\n" {
				frames++
			}
		}
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestAssayctlEndToEnd pins every read-side subcommand against both
// daemon roles: JSON output is the server's own document, indented;
// text output renders the same fields; watch -o json reproduces the
// server's data: lines byte for byte, across a dropped connection too.
func TestAssayctlEndToEnd(t *testing.T) {
	worker := startWorker(t)
	gateway := startGateway(t, federation.MemberSpec{Name: "w0", Addr: worker, Profiles: e2eProfiles()})
	prog := filepath.Join("..", "..", "docs", "examples", "isolate.json")

	// Distinct seeds, so the forwarded job misses the worker's cache.
	if got := mustRun(t, worker, "submit", "-seed", "7", prog).stdout; got != "a-000001\n" {
		t.Fatalf("worker submit printed %q, want a-000001", got)
	}
	mustRun(t, worker, "wait", "a-000001")
	if got := mustRun(t, gateway, "submit", "-seed", "8", prog).stdout; got != "a-000001\n" {
		t.Fatalf("gateway submit printed %q, want a-000001", got)
	}
	mustRun(t, gateway, "wait", "a-000001")

	roles := []struct {
		name, addr string
		list       string
	}{
		{"worker", worker,
			"a-000001  done     seed 7       isolate  [die40]\n" +
				"a-000002  done     seed 8       isolate  [die40]\n"},
		{"gateway", gateway,
			"a-000001  done     seed 8       isolate  [die40]\n"},
	}
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			addr := role.addr
			job := indented(t, serverBody(t, addr+"/v1/assays/a-000001"))

			if got := mustRun(t, addr, "get", "a-000001").stdout; got != job {
				t.Errorf("get:\n%s\nwant the server's record:\n%s", got, job)
			}
			res := mustRun(t, addr, "wait", "a-000001")
			if res.stdout != job {
				t.Errorf("wait:\n%s\nwant the server's record:\n%s", res.stdout, job)
			}
			if want := "assayctl: a-000001 ran on profile die40 (shard 0, stolen false; eligible: die40)\n"; res.stderr != want {
				t.Errorf("wait stderr %q, want %q", res.stderr, want)
			}

			if got := mustRun(t, addr, "list").stdout; got != role.list {
				t.Errorf("list:\n%s\nwant:\n%s", got, role.list)
			}
			res = mustRun(t, addr, "list", "-newest", "-limit", "1", "-status", "done")
			last := strings.Split(strings.TrimSpace(role.list), "\n")
			newest := last[len(last)-1] + "\n"
			if res.stdout != newest {
				t.Errorf("list -newest -limit 1: %q, want %q", res.stdout, newest)
			}
			if len(last) > 1 {
				if want := "assayctl: more jobs; continue with -after a-000002\n"; res.stderr != want {
					t.Errorf("list -newest -limit 1 stderr %q, want %q", res.stderr, want)
				}
			}

			stats := serverBody(t, addr+"/v1/stats")
			if got, want := stripWall(mustRun(t, addr, "stats", "-o", "json").stdout), stripWall(indented(t, stats)); got != want {
				t.Errorf("stats -o json:\n%s\nwant:\n%s", got, want)
			}
			if got, want := stripWallText(mustRun(t, addr, "stats").stdout), statsText(t, stats); got != want {
				t.Errorf("stats:\n%s\nwant:\n%s", got, want)
			}

			health := serverBody(t, addr+"/v1/healthz")
			if got, want := stripWall(mustRun(t, addr, "health", "-o", "json").stdout), stripWall(indented(t, health)); got != want {
				t.Errorf("health -o json:\n%s\nwant:\n%s", got, want)
			}
			if got, want := stripWallText(mustRun(t, addr, "health").stdout), healthText(t, health); got != want {
				t.Errorf("health:\n%s\nwant:\n%s", got, want)
			}

			trace := serverBody(t, addr+"/v1/assays/a-000001/trace")
			if got, want := mustRun(t, addr, "trace", "-o", "json", "a-000001").stdout, indented(t, trace); got != want {
				t.Errorf("trace -o json:\n%s\nwant:\n%s", got, want)
			}
			var doc obs.TraceDoc
			if err := json.Unmarshal(trace, &doc); err != nil {
				t.Fatal(err)
			}
			if got, want := mustRun(t, addr, "trace", "a-000001").stdout, strings.Join(renderTrace(doc), "\n")+"\n"; got != want {
				t.Errorf("trace:\n%s\nwant:\n%s", got, want)
			}

			events := dataLines(t, addr, "a-000001")
			if got := mustRun(t, addr, "watch", "-o", "json", "a-000001").stdout; got != events {
				t.Errorf("watch -o json:\n%s\nwant the server's data lines:\n%s", got, events)
			}
			if got := mustRun(t, addr, "watch", "-o", "json", "latest").stdout; got != dataLines(t, addr, strings.Fields(newest)[0]) {
				t.Errorf("watch -o json latest:\n%s\nwant the newest job's data lines", got)
			}
			res = mustRun(t, dropProxy(t, addr, 3), "watch", "-o", "json", "a-000001")
			if res.stdout != events {
				t.Errorf("watch -o json across a drop:\n%s\nwant the server's data lines:\n%s", res.stdout, events)
			}
			if !strings.Contains(res.stderr, "resuming after #3") {
				t.Errorf("watch across a drop: stderr %q, want a resume after #3", res.stderr)
			}
		})
	}
}

// statsText is the text rendering `assayctl stats` must print for a
// /v1/stats body, with wall-clock figures stripped.
func statsText(t *testing.T, raw []byte) string {
	t.Helper()
	var fed federation.Stats
	if err := json.Unmarshal(raw, &fed); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	st := fed.Fleet
	if len(fed.Members) == 0 {
		st = service.Stats{}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
	} else {
		gw := fed.Gateway
		fmt.Fprintf(&b, "gateway  %d members, %d jobs routed (forwarded %d, done %d, failed %d, recovered %d)\n",
			gw.Members, gw.Jobs, gw.Forwarded, gw.Done, gw.Failed, gw.Recovered)
		c := gw.Cache
		fmt.Fprintf(&b, "gateway  cache %d/%d entries, hits %d, misses %d, coalesced %d\n",
			c.Entries, c.Capacity, c.Hits, c.Misses, c.Coalesced)
		for _, m := range fed.Members {
			fmt.Fprintf(&b, "member   %s @ %s: reachable\n", m.Member, m.Addr)
		}
	}
	fmt.Fprintf(&b, "fleet    %d shards, queue %d/%d, running %d, done %d, failed %d, uptime Ns\n",
		st.Shards, st.Queued, st.QueueDepth, st.Running, st.Done, st.Failed)
	for _, p := range st.Profiles {
		fmt.Fprintf(&b, "profile  %s: %d × %d×%d, executed %d (stolen %d), queued %d\n",
			p.Profile, p.Shards, p.Cols, p.Rows, p.Executed, p.Stolen, p.Queued)
	}
	c := st.Cache
	fmt.Fprintf(&b, "cache    %d/%d entries (%d bytes), hits %d (%d from disk), misses %d, coalesced %d, hit rate %.1f%%\n",
		c.Entries, c.Capacity, c.Bytes, c.Hits+c.DiskHits, c.DiskHits, c.Misses, c.Coalesced,
		100*float64(c.Hits+c.DiskHits+c.Coalesced)/float64(c.Hits+c.DiskHits+c.Coalesced+c.Misses))
	return b.String()
}

// healthText is the text rendering `assayctl health` must print for a
// /v1/healthz body, with wall-clock figures stripped.
func healthText(t *testing.T, raw []byte) string {
	t.Helper()
	var fed federation.Health
	if err := json.Unmarshal(raw, &fed); err != nil {
		t.Fatal(err)
	}
	if fed.Members == nil {
		var h service.Health
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s  %d shards, %d queued, %d running, up Ns%s\n",
			h.Status, h.Shards, h.Queued, h.Running, renderBuild(h.Build))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %d members, up Ns%s\n", fed.Status, len(fed.Members), renderBuild(fed.Build))
	for _, m := range fed.Members {
		fmt.Fprintf(&b, "  %-12s %s  %s, %d shards, %d queued, %d running, up Ns\n",
			m.Member, m.Addr, m.Status, m.Shards, m.Queued, m.Running)
	}
	return b.String()
}

// TestAssayctlHealthNotOK pins the scripting contract of health: a
// gateway with a dead member reports "degraded", renders the member as
// unreachable, and exits non-zero in both output modes.
func TestAssayctlHealthNotOK(t *testing.T) {
	worker := startWorker(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	gateway := startGateway(t,
		federation.MemberSpec{Name: "w0", Addr: worker, Profiles: e2eProfiles()},
		federation.MemberSpec{Name: "dead", Addr: dead.URL, Profiles: e2eProfiles()})

	res := assayctl(t, gateway, "health")
	if res.code != 1 || res.stderr != "assayctl: status degraded\n" {
		t.Errorf("health: exit %d, stderr %q; want exit 1 with status degraded", res.code, res.stderr)
	}
	lines := strings.Split(stripWallText(res.stdout), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "degraded  2 members, up Ns") ||
		!strings.HasPrefix(lines[2], fmt.Sprintf("  %-12s %s  unreachable (", "dead", dead.URL)) {
		t.Errorf("health text:\n%s", res.stdout)
	}
	res = assayctl(t, gateway, "health", "-o", "json")
	var h federation.Health
	if err := json.Unmarshal([]byte(res.stdout), &h); err != nil || h.Status != "degraded" || res.code != 1 {
		t.Errorf("health -o json: exit %d, status %q (%v)", res.code, h.Status, err)
	}
}

// TestAssayctlEscapes pins that a job ID travels as one path segment
// and a list filter as one query value: "../stats" is an unknown job,
// not the stats document, and a status smuggling "&order=desc" is an
// invalid filter, not a second parameter.
func TestAssayctlEscapes(t *testing.T) {
	worker := startWorker(t)
	mustRun(t, worker, "submit", "-seed", "7", filepath.Join("..", "..", "docs", "examples", "isolate.json"))
	for _, args := range [][]string{{"get", "../stats"}, {"trace", "../stats"}, {"watch", "../stats"}} {
		res := assayctl(t, worker, args...)
		if res.code != 1 || res.stdout != "" || !strings.HasSuffix(res.stderr, "(HTTP 404)\n") {
			t.Errorf("assayctl %v: exit %d, stdout %q, stderr %q; want a 404", args, res.code, res.stdout, res.stderr)
		}
	}
	res := assayctl(t, worker, "list", "-status", "done&order=desc")
	if res.code != 1 || res.stdout != "" || res.stderr != "assayctl: invalid status filter (HTTP 400)\n" {
		t.Errorf("list -status 'done&order=desc': exit %d, stdout %q, stderr %q; want a 400", res.code, res.stdout, res.stderr)
	}
}

// TestAssayctlDeadline pins that a daemon which accepts the connection
// and never answers cannot hang assayctl: a plain call gives up after
// the client's 10 s deadline.
func TestAssayctlDeadline(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var conns []net.Conn
		for {
			c, err := ln.Accept()
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				return
			}
			conns = append(conns, c)
		}
	}()
	defer func() { ln.Close(); <-done }()

	start := time.Now()
	res := assayctl(t, "http://"+ln.Addr().String(), "stats")
	if took := time.Since(start); res.code != 1 || !strings.Contains(res.stderr, "service: unreachable") || took > 30*time.Second {
		t.Errorf("stats against a silent daemon: exit %d after %v, stderr %q", res.code, took, res.stderr)
	}
}
