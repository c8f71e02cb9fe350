package main

import (
	"bufio"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"trajmatch"
)

// defaultConfig is what an empty command line parses to.
func defaultConfig() config {
	return config{
		role:        trajmatch.RoleStandalone,
		addr:        ":8080",
		metrics:     []string{"edwp"},
		nodeTimeout: 10 * time.Second,
		index:       trajmatch.IndexOptions{Theta: 0.8, Parallel: true, Seed: buildSeed},
		engine:      trajmatch.EngineOptions{Shards: 1},
	}
}

// TestParseConfigFlags maps every flag to the config field or option
// it sets; a flag no case sets fails the test.
func TestParseConfigFlags(t *testing.T) {
	never, err := trajmatch.ParseWALSyncPolicy("never")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		set  func(c *config)
	}{
		{nil, func(c *config) {}},
		{[]string{"-db", "db.csv"}, func(c *config) { c.db = "db.csv" }},
		{[]string{"-addr", "127.0.0.1:9"}, func(c *config) { c.addr = "127.0.0.1:9" }},
		{[]string{"-theta", "0.5"}, func(c *config) { c.index.Theta = 0.5 }},
		{[]string{"-cumulative"}, func(c *config) { c.index.Cumulative = true }},
		{[]string{"-cache", "-1"}, func(c *config) { c.engine.CacheSize = -1 }},
		{[]string{"-workers", "3"}, func(c *config) { c.engine.Workers = 3 }},
		{[]string{"-shards", "4"}, func(c *config) { c.engine.Shards = 4 }},
		{[]string{"-snapshot", "snap", "-mmap"}, func(c *config) { c.engine.SnapshotDir, c.engine.Mmap = "snap", true }},
		{[]string{"-wal", "log", "-wal-sync", "never"}, func(c *config) { c.engine.WALDir, c.engine.WALSync = "log", never }},
		{[]string{"-pprof"}, func(c *config) { c.pprof = true }},
		{[]string{"-query-timeout", "5s"}, func(c *config) { c.queryTimeout = 5 * time.Second }},
		{[]string{"-metrics", "dtw, edwp"}, func(c *config) { c.metrics = []string{"dtw", "edwp"} }},
		{[]string{"-seal-after", "2s"}, func(c *config) { c.engine.SealAfter = 2 * time.Second }},
		{[]string{"-prefilter"}, func(c *config) { c.engine.Prefilter = true }},
		{[]string{"-version"}, func(c *config) { c.version = true }},
		{[]string{"-fetch-snapshot", "http://peer:8081", "-snapshot", "snap", "-node-timeout", "2s"}, func(c *config) {
			c.fetchSnapshot, c.engine.SnapshotDir, c.nodeTimeout = "http://peer:8081", "snap", 2*time.Second
		}},
		{[]string{"-role", "shard", "-shard-ids", "3,0,3", "-cluster-shards", "4"}, func(c *config) {
			c.role = trajmatch.RoleShard
			c.engine.Partition = &trajmatch.EnginePartition{Total: 4, Owned: []int{0, 3}}
		}},
		// A router parses no engine flags, so metrics stay unset.
		{[]string{"-role", "router", "-nodes", "http://a:1, http://b:2", "-node-timeout", "3s", "-query-timeout", "1s", "-pprof", "-addr", ":7"}, func(c *config) {
			c.role, c.metrics, c.nodes = trajmatch.RoleRouter, nil, []string{"http://a:1", "http://b:2"}
			c.nodeTimeout, c.queryTimeout, c.pprof, c.addr = 3*time.Second, time.Second, true, ":7"
		}},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			got, err := parseConfig(tc.args)
			if err != nil {
				t.Fatal(err)
			}
			want := defaultConfig()
			tc.set(&want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("\n got %+v\nwant %+v", got, want)
			}
		})
		for _, a := range tc.args {
			if strings.HasPrefix(a, "-") {
				covered[strings.TrimPrefix(a, "-")] = true
			}
		}
	}
	newFlagSet(&config{}, &rawFlags{}).VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("flag -%s is set by no case", f.Name)
		}
	})
}

// TestParseConfigRejects covers every conflict parseConfig reports,
// including each engine flag handed to a router and -version with a
// bad shard list.
func TestParseConfigRejects(t *testing.T) {
	type reject struct {
		args []string
		want string
	}
	cases := []reject{
		{[]string{"-role", "leader"}, `unknown role "leader"`},
		{[]string{"-metrics", "edwp,lcss"}, `-metrics: unknown metric "lcss"`},
		{[]string{"-metrics", "edwp,edwp"}, `-metrics: duplicate metric "edwp"`},
		{[]string{"-metrics", " , "}, "-metrics: no metrics specified"},
		{[]string{"-wal-sync", "sometimes"}, "-wal-sync:"},
		{[]string{"-role", "shard", "-cluster-shards", "2"}, "-shard-ids: no shard indices given"},
		{[]string{"-role", "shard", "-shard-ids", "0,x", "-cluster-shards", "2"}, `-shard-ids: bad shard index "x"`},
		{[]string{"-role", "shard", "-shard-ids", "-1", "-cluster-shards", "2"}, "-shard-ids: negative shard index -1"},
		{[]string{"-role", "shard", "-shard-ids", "x", "-cluster-shards", "2", "-version"}, `-shard-ids: bad shard index "x"`},
		{[]string{"-role", "shard", "-shard-ids", "0"}, "-role shard requires -cluster-shards"},
		{[]string{"-shard-ids", "0"}, "apply to -role shard only"},
		{[]string{"-cluster-shards", "2"}, "apply to -role shard only"},
		{[]string{"-nodes", "http://a:1"}, "-nodes applies to -role router only"},
		{[]string{"-role", "shard", "-shard-ids", "0", "-cluster-shards", "2", "-nodes", "http://a:1"}, "-nodes applies to -role router only"},
		{[]string{"-fetch-snapshot", "http://peer:8081"}, "-fetch-snapshot requires -snapshot"},
		{[]string{"-role", "router"}, "-role router requires -nodes"},
		{[]string{"-role", "router", "-nodes", " , ", "-version"}, "-role router requires -nodes"},
		{[]string{"-role", "router", "-nodes", "http://a:1", "-db", "db.csv", "-wal", "log"}, "it does not take -db, -wal"},
		{[]string{"-shards", "two"}, "invalid value"},
	}
	// The flags that only tuned a default are gone.
	for _, name := range []string{"sketch-cell", "sketch-shingle", "sketch-hashes", "sketch-bands",
		"sketch-min-cands", "wal-sync-interval", "seal-interval", "events-buffer", "seed"} {
		cases = append(cases, reject{[]string{"-" + name, "1"}, "flag provided but not defined: -" + name})
	}
	// A router takes no flag that configures an engine, even at its default.
	newFlagSet(&config{}, &rawFlags{}).VisitAll(func(f *flag.Flag) {
		if !routerFlags[f.Name] {
			args := []string{"-role", "router", "-nodes", "http://a:1", "-" + f.Name + "=" + f.DefValue}
			cases = append(cases, reject{args, "it does not take -" + f.Name})
		}
	})
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			if _, err := parseConfig(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestReadmeFlagTable keeps README's flag table in step with the
// binary: the same flag names, and each default as the flag prints it.
func TestReadmeFlagTable(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table := map[string]string{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = line == "### trajserve flags"
			continue
		}
		if !in || !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			t.Fatalf("malformed flag row %q", line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`-")
		def := strings.Trim(strings.TrimSpace(cells[2]), "`")
		if def == "—" {
			def = ""
		}
		if _, dup := table[name]; dup {
			t.Errorf("README lists -%s twice", name)
		}
		table[name] = def
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	fs := newFlagSet(&config{}, &rawFlags{})
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := table[f.Name]
		if !ok {
			t.Errorf("README's flag table has no row for -%s", f.Name)
		} else if def != f.DefValue {
			t.Errorf("README says -%s defaults to %q; the flag's default is %q", f.Name, def, f.DefValue)
		}
	})
	for name := range table {
		if fs.Lookup(name) == nil {
			t.Errorf("README lists -%s, which trajserve does not define", name)
		}
	}
}

// TestRootHandlerPprof: every role serves through rootHandler, which
// mounts the profiles beside the API only under -pprof.
func TestRootHandlerPprof(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	get := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	on, off := rootHandler(api, true), rootHandler(api, false)
	if code := get(on, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("-pprof: /debug/pprof/cmdline answered %d, want 200", code)
	}
	if code := get(on, "/v1/search"); code != http.StatusTeapot {
		t.Errorf("-pprof: /v1/search answered %d, want the API's %d", code, http.StatusTeapot)
	}
	if code := get(off, "/debug/pprof/cmdline"); code != http.StatusTeapot {
		t.Errorf("no -pprof: /debug/pprof/cmdline answered %d, want the API's %d", code, http.StatusTeapot)
	}
}
