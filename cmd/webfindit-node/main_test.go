package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codb"
	"repro/internal/gateway"
	"repro/internal/naming"
	"repro/internal/orb"
)

// TestNodeProcessEndToEnd builds the webfindit-node binary and runs it as a
// real OS process: IIOP endpoint, naming service, HTTP browser UI, and a
// WebTassili data query through the whole stack.
func TestNodeProcessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "webfindit-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	iiopPort := freePort(t)
	httpPort := freePort(t)
	cfg := map[string]any{
		"name":             "Royal Brisbane Hospital",
		"engine":           "Oracle",
		"orb":              "VisiBroker",
		"listen":           fmt.Sprintf("127.0.0.1:%d", iiopPort),
		"http":             fmt.Sprintf("127.0.0.1:%d", httpPort),
		"information_type": "Research and Medical",
		"schema": "CREATE TABLE research_projects (title VARCHAR(128), funding FLOAT);" +
			" INSERT INTO research_projects VALUES ('AIDS and drugs', 1250000);",
		"interface_wtl": "Type ResearchProjects { attribute string ResearchProjects.Title;" +
			" function real Funding(string ResearchProjects.Title x, Predicate(x)); }",
	}
	cfgData, _ := json.Marshal(cfg)
	cfgPath := filepath.Join(dir, "node.json")
	if err := os.WriteFile(cfgPath, cfgData, 0o644); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, "node.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(bin, "-config", cfgPath, "-serve-naming")
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	readLog := func() string {
		data, _ := os.ReadFile(logPath)
		return string(data)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	// Wait for the HTTP UI to come up.
	base := fmt.Sprintf("http://127.0.0.1:%d", httpPort)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/api/coalitions")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node did not come up:\n%s", readLog())
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The paper's Funding query through the process boundary.
	body, _ := json.Marshal(map[string]string{
		"statement": `Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs")) On Royal Brisbane Hospital;`,
	})
	resp, err := http.Post(base+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v\nlog:\n%s", resp.StatusCode, out, readLog())
	}
	translated, _ := out["translated"].(string)
	if !strings.Contains(translated, "SELECT a.Funding FROM research_projects a WHERE a.Title = 'AIDS and drugs'") {
		t.Errorf("translated = %q", translated)
	}
	result, _ := out["result"].(map[string]any)
	rows, _ := result["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}

	// The process printed its IORs on stdout.
	if !strings.Contains(readLog(), "ISI IOR:        IOR:") {
		t.Errorf("missing IOR banner:\n%s", readLog())
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// TestTwoProcessFederation runs two node processes: the first hosts the
// naming service, the second registers with it. A third-party client ORB
// (this test) resolves both through naming and queries their co-databases
// and data over IIOP — a real multi-process WebFINDIT deployment.
func TestTwoProcessFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "webfindit-node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	start := func(name string, cfg map[string]any, extra ...string) (*exec.Cmd, func() string) {
		t.Helper()
		data, _ := json.Marshal(cfg)
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, name+".log")
		logFile, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-config", path}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stdout = logFile
		cmd.Stderr = logFile
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			logFile.Close()
		})
		return cmd, func() string {
			data, _ := os.ReadFile(logPath)
			return string(data)
		}
	}

	aPort := freePort(t)
	aAddr := fmt.Sprintf("127.0.0.1:%d", aPort)
	_, aLog := start("rbh", map[string]any{
		"name": "Royal Brisbane Hospital", "engine": "Oracle", "orb": "VisiBroker",
		"listen":           aAddr,
		"naming":           aAddr, // registers with its own naming service
		"information_type": "Research and Medical",
		"schema":           "CREATE TABLE t (a INT); INSERT INTO t VALUES (7);",
	}, "-serve-naming")

	bPort := freePort(t)
	_, bLog := start("qut", map[string]any{
		"name": "QUT Research", "engine": "mSQL", "orb": "OrbixWeb",
		"listen":           fmt.Sprintf("127.0.0.1:%d", bPort),
		"naming":           aAddr,
		"information_type": "university medical research",
		"schema":           "CREATE TABLE p (x INT);",
	})

	// A third-party client ORB in this test process.
	client := orb.New(orb.Options{Product: orb.Orbix})
	if err := client.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer client.Shutdown()
	nc, err := naming.ClientFor(client, aAddr)
	if err != nil {
		t.Fatal(err)
	}

	// Both processes register within a few seconds.
	deadline := time.Now().Add(10 * time.Second)
	var names []string
	for {
		names, err = nc.List("WebFINDIT/CoDatabases/")
		if err == nil && len(names) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registrations = %v, %v\nA:\n%s\nB:\n%s", names, err, aLog(), bLog())
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Query each process's co-database over IIOP.
	for _, name := range []string{"Royal Brisbane Hospital", "QUT Research"} {
		ref, err := nc.ResolveRef(client, "WebFINDIT/CoDatabases/"+name)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := codb.NewClient(ref).Owner(context.Background())
		if err != nil || owner != name {
			t.Errorf("owner of %s = %q, %v", name, owner, err)
		}
	}

	// And data through RBH's ISI, in another process, on another ORB.
	isiIOR, err := nc.Resolve("WebFINDIT/ISIs/Royal Brisbane Hospital")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := client.ResolveString(isiIOR)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gateway.NewRemoteConn(ref).Query(context.Background(), "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 7 {
		t.Errorf("cross-process rows = %+v", res.Rows)
	}
	// mSQL's dialect surfaces across the process boundary too.
	isiB, err := nc.Resolve("WebFINDIT/ISIs/QUT Research")
	if err != nil {
		t.Fatal(err)
	}
	refB, _ := client.ResolveString(isiB)
	_, err = gateway.NewRemoteConn(refB).Query(context.Background(), "SELECT COUNT(*) FROM p")
	if err == nil || !strings.Contains(err.Error(), "mSQL") {
		t.Errorf("cross-process dialect error = %v", err)
	}
}

// TestParseConfigRejectsWhatItDoesNotRead: a key the node no longer reads, a
// typo, and the retired "-1 = cache off" value are refused by name instead
// of being silently dropped.
func TestParseConfigRejectsWhatItDoesNotRead(t *testing.T) {
	if _, err := parseConfig([]byte(`{"name": "N", "engine": "Oracle", "gossip_fanout": 3, "mdcache_ttl_ms": 0}`)); err != nil {
		t.Fatalf("valid config refused: %v", err)
	}
	for _, tc := range []struct {
		name, config string
		want         []string // substrings of the error
	}{
		{"retired key", `{"name": "N", "disable_pushdown": true}`, []string{`"disable_pushdown"`, "retired in this release"}},
		{"retired tunable", `{"name": "N", "subcoalition_size": -1}`, []string{`"subcoalition_size"`, "retired in this release"}},
		{"retired limit", `{"name": "N", "cursor_max_open": 8}`, []string{`"cursor_max_open"`, "retired in this release"}},
		{"typo", `{"name": "N", "gosip_fanout": 3}`, []string{`unknown config key "gosip_fanout"`}},
		{"cache off", `{"name": "N", "mdcache_ttl_ms": -1}`, []string{"mdcache_ttl_ms", "always on"}},
		{"trailing data", `{"name": "N"} {"name": "M"}`, []string{"after the config object"}},
	} {
		_, err := parseConfig([]byte(tc.config))
		if err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.config)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
	for key := range retiredKeys {
		if _, err := parseConfig([]byte(`{"` + key + `": 0}`)); err == nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("retired key %s: err = %v", key, err)
		}
	}
}
