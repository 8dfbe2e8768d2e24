package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func committedGates(t *testing.T) []gate {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", gatesPath))
	if err != nil {
		t.Fatal(err)
	}
	gates, err := parseGates(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return gates
}

// TestGatesFileNamesRunsAndMetrics: every line of the committed
// scripts/gates.txt names a registered run and a metric that run's
// experiment declares, so no bound can sit in the file unchecked.
func TestGatesFileNamesRunsAndMetrics(t *testing.T) {
	gates := committedGates(t)
	if len(gates) == 0 {
		t.Fatal("no gates parsed")
	}
	for _, g := range gates {
		r, ok := lookupRun(g.run)
		if !ok || r.exp == nil {
			t.Errorf("%v: %q is not a registered run with rows", g, g.run)
			continue
		}
		if unit, ok := r.exp.unit(g.metric); !ok || unit == "sha256" {
			t.Errorf("%v: run %s declares no numeric metric %q", g, g.run, g.metric)
		}
	}
}

// TestGateParity checks every committed gate with the strictness of the
// flags it replaced: floors fail on <, ceilings on >. A row exactly at
// the bound passes and one a ulp past it fails.
func TestGateParity(t *testing.T) {
	for _, g := range committedGates(t) {
		exp, _ := lookupRun(g.run)
		at := rowSet{exp: exp.exp}
		at.add(g.cell, g.metric, g.bound)
		if fails := checkGates([]gate{g}, g.run, at.rows); len(fails) != 0 {
			t.Errorf("%v: row at the bound failed: %v", g, fails)
		}
		past := math.Nextafter(g.bound, math.Inf(-1))
		if g.op == "<=" {
			past = math.Nextafter(g.bound, math.Inf(1))
		}
		beyond := rowSet{exp: exp.exp}
		beyond.add(g.cell, g.metric, past)
		if fails := checkGates([]gate{g}, g.run, beyond.rows); len(fails) != 1 {
			t.Errorf("%v: row at %v passed", g, past)
		}
	}
}

// TestCheckGatesFailsWithoutANumber: a gate fails when its run has no
// row for its cell and metric, or the row holds no number.
func TestCheckGatesFailsWithoutANumber(t *testing.T) {
	gates, err := parseGates("# comment\n\nscale-perf s16/w8 speedup >= 3\nreplay memo-on/w8 speedup >= 3\n")
	if err != nil {
		t.Fatal(err)
	}
	rs := rowSet{exp: scaleExp}
	rs.add("s16/w4", "speedup", 9)
	rs.add("s16/w8", "steps_per_s", 9)
	if fails := checkGates(gates, "scale-perf", rs.rows); len(fails) != 1 || !strings.Contains(fails[0], "no row") {
		t.Errorf("missing row: %v", fails)
	}
	for _, v := range []any{nil, strings.Repeat("ab", 32)} {
		rows := []Row{{Cell: "s16/w8", Metric: "speedup", Value: v}}
		if fails := checkGates(gates, "scale-perf", rows); len(fails) != 1 || !strings.Contains(fails[0], "not a number") {
			t.Errorf("value %v: %v", v, fails)
		}
	}
	nan := rowSet{exp: scaleExp}
	nan.add("s16/w8", "speedup", math.NaN())
	if fails := checkGates(gates, "scale-perf", nan.rows); len(fails) != 1 {
		t.Errorf("NaN passed: %v", fails)
	}
}

func TestParseGatesRejects(t *testing.T) {
	for _, line := range []string{
		"scale s1/w1 speedup >= ",
		"scale s1/w1 speedup > 3",
		"scale s1/w1 speedup >= three",
		"scale s1/w1 speedup >= 3 1.25",
		"scale s1/w1 speedup >= 3 *x",
		"scale s1/w1 speedup >= 3 *1+y",
		"scale s1/w1 speedup >= 3 *1 extra",
	} {
		if _, err := parseGates("# ok\n" + line); err == nil || !strings.Contains(err.Error(), "gates.txt:2") {
			t.Errorf("%q: err = %v", line, err)
		}
	}
}

// TestRecordGates: -record moves a ratchet line to measured*mul+add,
// rounded in the loose direction to the old bound's decimals, only when
// that is tighter; other lines and runs stay byte-identical.
func TestRecordGates(t *testing.T) {
	src := "# keep\nscale-perf s16/w8 allocs_per_step <= 1500 *1.25+1\nscale-perf s16/w8 speedup >= 3.0\n" +
		"reclaim swept ratio <= 0.3087 *1.15\ncoverage total coverage_pct >= 83.4 *1\n"
	gates, err := parseGates(src)
	if err != nil {
		t.Fatal(err)
	}
	record := func(run string, exp *experiment, cell, metric string, v float64) (string, []string) {
		rs := rowSet{exp: exp}
		rs.add(cell, metric, v)
		return recordGates(src, gates, run, rs.rows)
	}
	got, notes := record("scale-perf", scaleExp, "s16/w8", "allocs_per_step", 1121.3)
	if want := strings.Replace(src, "<= 1500 ", "<= 1403 ", 1); got != want || len(notes) != 1 {
		t.Errorf("allocs: got\n%s\nnotes %v", got, notes)
	}
	if got, _ := record("scale-perf", scaleExp, "s16/w8", "allocs_per_step", 1300); got != src {
		t.Errorf("allocs ceiling loosened:\n%s", got)
	}
	if got, _ := record("reclaim", reclaimExp, "swept", "ratio", 0.2684); got != src {
		t.Errorf("ratio 0.2684*1.15 rounds up to the old ceiling, want no change:\n%s", got)
	}
	got, _ = record("coverage", coverageExp, "total", "coverage_pct", 83.6)
	if want := strings.Replace(src, ">= 83.4 ", ">= 83.6 ", 1); got != want {
		t.Errorf("coverage: got\n%s", got)
	}
	if got, _ := record("coverage", coverageExp, "total", "coverage_pct", 83.0); got != src {
		t.Errorf("coverage floor lowered:\n%s", got)
	}
}

// TestReport: the one writer emits BENCH_<run>.json with its header and
// every row, and appends the table to $GITHUB_STEP_SUMMARY.
func TestReport(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	summary := filepath.Join(dir, "summary.md")
	t.Setenv("GITHUB_STEP_SUMMARY", summary)

	rs := rowSet{exp: reclaimExp}
	rs.add("swept", "ratio", 0.25)
	rs.add("swept", "steps", 7)
	rs.digest("swept", "version_sha256", strings.Repeat("0f", 32))
	rs.add("unswept", "ratio", math.Inf(1))
	if err := report(run{name: "reclaim", exp: reclaimExp}, rs.rows); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCH_reclaim.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Run != "reclaim" || f.Host == "" || !strings.HasPrefix(f.GoVersion, "go") || f.Commit == "" || len(f.Rows) != 4 {
		t.Errorf("header or rows wrong: %+v", f)
	}
	if r := f.Rows[0]; r.Cell != "swept" || r.Metric != "ratio" || r.Value != 0.25 || r.Unit != "1" {
		t.Errorf("first row = %+v", r)
	}
	if f.Rows[3].Value != nil {
		t.Errorf("infinite ratio stored as %v, want null", f.Rows[3].Value)
	}
	md, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"### reclaim: E17 reclaim",
		"| cell | steps | ratio | version_sha256 |",
		"| swept | 7 | 0.2500 | 0f0f0f0f0f0f |",
		"| unswept | - | - | - |",
	} {
		if !strings.Contains(string(md), want) {
			t.Errorf("summary lacks %q:\n%s", want, md)
		}
	}
}
