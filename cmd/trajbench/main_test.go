package main

import (
	"bytes"
	"strings"
	"testing"

	"trajmatch/internal/eval"
)

// tinyScale runs every experiment end to end in a few seconds.
var tinyScale = eval.Scale{TaxiN: 40, ASLInstances: 2, Queries: 2, Folds: 2, Seed: 1}

// TestRunAll runs `trajbench -exp all` at a tiny scale: every table and
// figure prints once, in order, and none comes out empty.
func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, tinyScale, "all"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	last := -1
	for _, e := range experiments() {
		header := "Fig. " + e.id + " — "
		if e.id == "table1" {
			header = "Table I/II — "
		}
		at := strings.Index(out, header)
		if at < 0 {
			t.Fatalf("experiment %s printed no %q table:\n%s", e.id, header, out)
		}
		if at < last {
			t.Errorf("experiment %s printed out of order", e.id)
		}
		last = at
		if strings.Count(out, header) != 1 {
			t.Errorf("experiment %s printed %d times", e.id, strings.Count(out, header))
		}
	}
	if strings.Contains(out, "(no data)") {
		t.Errorf("a figure came out empty:\n%s", out)
	}
}

// TestRunSelects prints only the named experiments, and an unknown id
// fails before anything runs.
func TestRunSelects(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, tinyScale, "table1, 6c"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table I/II") || !strings.Contains(out, "Fig. 6c") || strings.Count(out, "Fig. ") != 1 {
		t.Errorf("selection printed the wrong tables:\n%s", out)
	}
	buf.Reset()
	err := run(&buf, tinyScale, "table1,5z")
	if err == nil || !strings.Contains(err.Error(), `"5z"`) {
		t.Fatalf("unknown id: err = %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("printed before rejecting an unknown id:\n%s", buf.String())
	}
}
