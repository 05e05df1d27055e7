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
	"reflect"
	"sort"
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

// nodeLauncher builds the node binary and returns start, which runs a node
// from a config and waits until its log shows want (say, the response to
// the last statement of its space script), and dump, which returns every
// started node's log.
func nodeLauncher(t *testing.T) (start func(name string, cfg map[string]any, want string, extra ...string), dump func() string) {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "webfindit-node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var logs []func() string
	dump = func() string {
		var b strings.Builder
		for _, l := range logs {
			b.WriteString(l() + "\n")
		}
		return b.String()
	}
	start = func(name string, cfg map[string]any, want string, extra ...string) {
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
		logs = append(logs, func() string {
			data, _ := os.ReadFile(logPath)
			return name + ":\n" + string(data)
		})
		for deadline := time.Now().Add(15 * time.Second); !strings.Contains(logs[len(logs)-1](), want); {
			if time.Now().After(deadline) {
				t.Fatalf("%s did not log %q:\n%s", name, want, dump())
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return start, dump
}

// TestTwoProcessFederation runs node processes started from config files
// alone: the first hosts the naming service, the others register with it,
// and each writes its information space from its "space" script, entering
// coalitions and naming link targets through naming. Two coalitions joined
// by a service link result: Medical (RBH) and Research (QUT, then QCF).
// A third-party client ORB (this test) resolves the nodes through naming
// and queries their co-databases and data over IIOP, and a statement sent
// to QCF's browser API reaches Medical through the link — a real
// multi-process WebFINDIT deployment.
func TestTwoProcessFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process test")
	}
	start, dump := nodeLauncher(t)

	aPort := freePort(t)
	aAddr := fmt.Sprintf("127.0.0.1:%d", aPort)
	start("rbh", map[string]any{
		"name": "Royal Brisbane Hospital", "engine": "Oracle", "orb": "VisiBroker",
		"listen":           aAddr,
		"naming":           aAddr, // registers with its own naming service
		"information_type": "Research and Medical",
		"schema":           "CREATE TABLE t (a INT); INSERT INTO t VALUES (7);",
		"space": `Create Coalition Medical Description "hospitals and medical care";
			Join Coalition Medical At "Royal Brisbane Hospital";`,
	}, "joined coalition Medical", "-serve-naming")

	// Both Research members hold the coalition's link to Medical; its target
	// is a database name the naming service resolves.
	research := func(entry string) string {
		return `Create Coalition Research Description "university medical research";
			Join Coalition Research At "` + entry + `";
			Create Service Link Research_to_Medical From Coalition Research To Coalition Medical
				At "Royal Brisbane Hospital" Information "hospital care" Description "clinical placements";`
	}
	start("qut", map[string]any{
		"name": "QUT Research", "engine": "mSQL", "orb": "OrbixWeb",
		"listen":           fmt.Sprintf("127.0.0.1:%d", freePort(t)),
		"naming":           aAddr,
		"information_type": "university medical research",
		"schema":           "CREATE TABLE p (x INT);",
		"space":            research("QUT Research"),
	}, "Service link Research_to_Medical created.")

	cHTTP := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	start("qcf", map[string]any{
		"name": "Queensland Cancer Fund", "engine": "DB2", "orb": "Orbix",
		"listen":           fmt.Sprintf("127.0.0.1:%d", freePort(t)),
		"http":             cHTTP,
		"naming":           aAddr,
		"information_type": "cancer research grants",
		"space":            research("QUT Research"),
	}, "browser UI at")

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
	names, err := nc.List(naming.CoDatabases)
	if err != nil || len(names) != 3 {
		t.Fatalf("registrations = %v, %v\n%s", names, err, dump())
	}

	// Discovery on QCF, through its browser API: Research does not offer
	// hospital care, the link does, and the session enters Medical through
	// the co-database the link names.
	post := func(stmt string) map[string]any {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"statement": stmt})
		resp, err := http.Post("http://"+cHTTP+"/api/query?sid=probe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s: status %d %v %v\n%s", stmt, resp.StatusCode, out, err, dump())
		}
		return out
	}
	out := post("Find Coalitions With Information hospital care;")
	leads, _ := out["leads"].([]any)
	if len(leads) == 0 || leads[0].(map[string]any)["coalition"] != "Medical" ||
		leads[0].(map[string]any)["via"] != "link:Research_to_Medical" {
		t.Errorf("leads = %v", out["leads"])
	}
	post("Connect To Coalition Medical;")
	if out := post("Display Instances Of Class Medical;"); !reflect.DeepEqual(out["names"], []any{"Royal Brisbane Hospital"}) {
		t.Errorf("Medical seen from QCF = %v", out["names"])
	}
	// QCF joined through QUT, so QUT's co-database lists it too.
	qutRef, err := nc.ResolveRef(client, naming.CoDatabases+"QUT Research")
	if err != nil {
		t.Fatal(err)
	}
	members, err := codb.NewClient(qutRef).Instances(context.Background(), "Research")
	if err != nil || len(members) != 2 || members[1].Name != "Queensland Cancer Fund" {
		t.Errorf("Research at QUT = %v, %v", members, err)
	}

	// Query each process's co-database over IIOP.
	for _, name := range []string{"Royal Brisbane Hospital", "QUT Research", "Queensland Cancer Fund"} {
		ref, err := nc.ResolveRef(client, naming.CoDatabases+name)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := codb.NewClient(ref).Owner(context.Background())
		if err != nil || owner != name {
			t.Errorf("owner of %s = %q, %v", name, owner, err)
		}
	}

	// And data through RBH's ISI, in another process, on another ORB.
	isiIOR, err := nc.Resolve(naming.ISIs + "Royal Brisbane Hospital")
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
	isiB, err := nc.Resolve(naming.ISIs + "QUT Research")
	if err != nil {
		t.Fatal(err)
	}
	refB, _ := client.ResolveString(isiB)
	_, err = gateway.NewRemoteConn(refB).Query(context.Background(), "SELECT COUNT(*) FROM p")
	if err == nil || !strings.Contains(err.Error(), "mSQL") {
		t.Errorf("cross-process dialect error = %v", err)
	}
}

// TestChaosConfigKey starts a node whose "chaos" plan refuses every dial to
// one peer. A coalition statement needing that peer reports it failed with
// class comm, the other member answers, and the refused dials are counted
// under "chaos" at /debug/metrics.
func TestChaosConfigKey(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping process test")
	}
	start, dump := nodeLauncher(t)
	homeAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	peerAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	homeHTTP := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	iface := []map[string]any{{"name": "R", "functions": []map[string]any{{
		"name": "V", "returns": "int", "table": "r", "result_column": "v", "arg_column": "k",
	}}}}
	schema := func(v int) string {
		return fmt.Sprintf("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT); INSERT INTO r VALUES ('a', %d);", v)
	}
	start("home", map[string]any{
		"name": "Home", "engine": "Oracle", "listen": homeAddr, "http": homeHTTP,
		"naming": homeAddr, "schema": schema(1), "interface": iface,
		"chaos": map[string]any{"seed": 1, "rules": []map[string]any{{"addr": peerAddr, "fail_connect": 1}}},
		"space": `Create Coalition Records; Join Coalition Records At "Home";`,
	}, "browser UI at", "-serve-naming")
	// The peer dials home, which the plan leaves alone, to join.
	start("peer", map[string]any{
		"name": "Peer", "engine": "Oracle", "listen": peerAddr,
		"naming": homeAddr, "schema": schema(2), "interface": iface,
		"space": `Create Coalition Records; Join Coalition Records At "Home";`,
	}, "joined coalition Records")

	body, _ := json.Marshal(map[string]string{"statement": `V(R.K, (R.K = "a")) On Coalition Records;`})
	resp, err := http.Post("http://"+homeHTTP+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Partial bool `json:"partial"`
		Members []struct {
			Member   string `json:"member"`
			ErrClass string `json:"err_class"`
		} `json:"members"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d, %v\n%s", resp.StatusCode, err, dump())
	}
	classes := map[string]string{}
	for _, m := range out.Members {
		classes[m.Member] = m.ErrClass
	}
	if len(classes) != 2 || classes["Peer"] != "comm" || classes["Home"] != "" || !out.Partial {
		t.Errorf("partial = %v, member classes = %v; want Peer failed with comm and Home answering\n%s",
			out.Partial, classes, dump())
	}

	resp, err = http.Get("http://" + homeHTTP + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Vars struct {
			Chaos struct {
				FaultsInjected int64 `json:"faults_injected"`
			} `json:"chaos"`
		} `json:"vars"`
	}
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Vars.Chaos.FaultsInjected == 0 {
		t.Errorf("chaos.faults_injected = 0 at /debug/metrics after a refused dial")
	}
}

// TestParseConfigRejectsWhatItDoesNotRead: a key the node no longer reads and
// a typo are refused by name instead of being silently dropped.
func TestParseConfigRejectsWhatItDoesNotRead(t *testing.T) {
	if _, err := parseConfig([]byte(`{"name": "N", "engine": "Oracle", "retry_attempts": 2, "member_timeout_ms": 0}`)); err != nil {
		t.Fatalf("valid config refused: %v", err)
	}
	for _, tc := range []struct {
		name, config string
		want         []string // substrings of the error
	}{
		{"retired key", `{"name": "N", "disable_pushdown": true}`, []string{`"disable_pushdown"`, "retired in this release"}},
		{"retired tunable", `{"name": "N", "subcoalition_size": -1}`, []string{`"subcoalition_size"`, "retired in this release"}},
		{"retired limit", `{"name": "N", "cursor_max_open": 8}`, []string{`"cursor_max_open"`, "retired in this release"}},
		{"typo", `{"name": "N", "retry_atempts": 3}`, []string{`unknown config key "retry_atempts"`}},
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

// TestOperatorSurface pins the keys a node reads — derived from nodeFile's
// JSON tags, so a field added without a decision here fails — and that each
// key this release turned into a constant or removed is refused as retired.
func TestOperatorSurface(t *testing.T) {
	var got []string
	typ := reflect.TypeOf(nodeFile{})
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
	}
	sort.Strings(got)
	want := []string{
		"call_timeout_ms", "chaos", "document_html", "documentation", "engine",
		"http", "information_type", "interface", "interface_wtl", "listen",
		"location", "member_timeout_ms", "min_members", "name", "naming", "orb",
		"retry_attempts", "schema", "schema_file", "slow_call_ms", "space",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("node config keys (%d) = %v\nwant (%d) %v", len(got), got, len(want), want)
	}
	for _, key := range []string{
		"mdcache_ttl_ms", "gossip_interval_ms", "gossip_fanout",
		"fragment_threshold_bytes", "breaker_threshold", "breaker_cooldown_ms",
	} {
		_, err := parseConfig([]byte(`{"name": "N", "` + key + `": 1}`))
		if err == nil || !strings.Contains(err.Error(), `"`+key+`" was retired in this release`) {
			t.Errorf("retired key %s: err = %v", key, err)
		}
	}
}
