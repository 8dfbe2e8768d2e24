package main

// bench.go is the harness every run goes through: rows in one schema,
// one writer for BENCH_<run>.json, one table for stdout and the GitHub
// step summary, and the evaluator for scripts/gates.txt.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// A Row is one measurement: one metric of one cell of a run. Value is a
// float64, or the hex digest when the metric is a fingerprint.
type Row struct {
	Cell   string `json:"cell"`
	Metric string `json:"metric"`
	Value  any    `json:"value"`
	Unit   string `json:"unit"`
}

// A metric is one column an experiment declares; fingerprints have the
// unit "sha256".
type metric struct{ name, unit string }

// An experiment declares the metrics its rows carry, in table order.
type experiment struct {
	title   string
	metrics []metric
}

func (e *experiment) unit(name string) (string, bool) {
	for _, m := range e.metrics {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}

// A run fixes an experiment and its cells. The qualitative tables
// (E1–E10) have no experiment: they print and emit no rows.
type run struct {
	name  string
	exp   *experiment
	drive func() []Row
}

// rowSet collects one run's rows; a metric the experiment does not
// declare is a programming error.
type rowSet struct {
	exp  *experiment
	rows []Row
}

func (s *rowSet) put(cell, name string, v any) {
	unit, ok := s.exp.unit(name)
	if !ok {
		panic(fmt.Sprintf("benchtool: %s declares no metric %q", s.exp.title, name))
	}
	s.rows = append(s.rows, Row{Cell: cell, Metric: name, Value: v, Unit: unit})
}

// add records a number; NaN and infinities, which JSON cannot carry,
// become null, which fails any gate on the metric.
func (s *rowSet) add(cell, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.put(cell, name, nil)
		return
	}
	s.put(cell, name, v)
}

func (s *rowSet) digest(cell, name, hex string) { s.put(cell, name, hex) }

// drive is what measure records around one timed drive.
type drive struct {
	wall           time.Duration
	mallocs, bytes uint64
}

// measure times f and counts the heap objects and bytes it allocates.
// The GC that settles the heap first runs before the clock starts.
func measure(f func() error) (drive, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return drive{wall: wall, mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, err
}

// addDrive records the throughput and allocation metrics of one drive
// that completed steps engine steps.
func (s *rowSet) addDrive(cell string, d drive, steps int64) {
	s.add(cell, "steps", float64(steps))
	s.add(cell, "wall_ms", float64(d.wall.Microseconds())/1000)
	s.add(cell, "steps_per_s", float64(steps)/d.wall.Seconds())
	if steps > 0 {
		s.add(cell, "allocs_per_step", float64(d.mallocs)/float64(steps))
		s.add(cell, "bytes_per_step", float64(d.bytes)/float64(steps))
	}
}

// driveMetrics are the columns addDrive fills.
var driveMetrics = []metric{
	{"steps", "1"}, {"wall_ms", "ms"}, {"steps_per_s", "1/s"},
	{"allocs_per_step", "1"}, {"bytes_per_step", "B"},
}

// value returns the row's numeric value; fingerprints have none.
func (r Row) value() (float64, bool) {
	v, ok := r.Value.(float64)
	return v, ok
}

// find returns the row of the given cell and metric.
func find(rows []Row, cell, name string) (Row, bool) {
	for _, r := range rows {
		if r.Cell == cell && r.Metric == name {
			return r, true
		}
	}
	return Row{}, false
}

// benchFile is the schema of every BENCH_<run>.json.
type benchFile struct {
	Run       string `json:"run"`
	Host      string `json:"host"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Rows      []Row  `json:"rows"`
}

// commit is the VCS revision stamped into the binary, "+dirty" when the
// tree had local changes. `go run` stamps none; scripts/gates.sh builds
// with `go build` so the BENCH header names its commit.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// report writes BENCH_<run>.json, prints the run's table and appends it
// to $GITHUB_STEP_SUMMARY when that is set.
func report(r run, rows []Row) error {
	host, _ := os.Hostname()
	out, err := json.MarshalIndent(benchFile{
		Run:       r.name,
		Host:      fmt.Sprintf("%s %s/%s %d CPUs", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		GoVersion: runtime.Version(),
		Commit:    commit(),
		Rows:      rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := "BENCH_" + r.name + ".json"
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	header, lines := pivot(r.exp, rows)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 1, ' ', tabwriter.AlignRight|tabwriter.Debug)
	for _, l := range append([][]string{header}, lines...) {
		fmt.Fprintln(tw, strings.Join(l, "\t")+"\t")
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s\n", len(rows), path)

	summary := os.Getenv("GITHUB_STEP_SUMMARY")
	if summary == "" {
		return nil
	}
	var md strings.Builder
	fmt.Fprintf(&md, "### %s: %s\n\n| %s |\n|:---|%s\n", r.name, r.exp.title,
		strings.Join(header, " | "), strings.Repeat("---:|", len(header)-1))
	for _, l := range lines {
		fmt.Fprintf(&md, "| %s |\n", strings.Join(l, " | "))
	}
	md.WriteString("\n")
	f, err := os.OpenFile(summary, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(md.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pivot lays rows out as a table: one line per cell in order of first
// appearance, one column per declared metric that any row carries.
// Fingerprints are cut to 12 hex digits; "-" marks a metric a cell lacks.
func pivot(exp *experiment, rows []Row) (header []string, lines [][]string) {
	var cells []string
	byCell := map[string]map[string]any{}
	used := map[string]bool{}
	for _, r := range rows {
		if byCell[r.Cell] == nil {
			byCell[r.Cell] = map[string]any{}
			cells = append(cells, r.Cell)
		}
		byCell[r.Cell][r.Metric] = r.Value
		used[r.Metric] = true
	}
	header = []string{"cell"}
	for _, m := range exp.metrics {
		if used[m.name] {
			header = append(header, m.name)
		}
	}
	for _, c := range cells {
		line := []string{c}
		for _, name := range header[1:] {
			switch v := byCell[c][name].(type) {
			case float64:
				line = append(line, formatValue(v))
			case string:
				line = append(line, v[:min(12, len(v))])
			default:
				line = append(line, "-")
			}
		}
		lines = append(lines, line)
	}
	return header, lines
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// A gate is one line of scripts/gates.txt:
//
//	run cell metric op bound [record-headroom]
//
// op is ">=" (a floor) or "<=" (a ceiling). A headroom *m or *m+a marks
// a ratchet: -record moves the bound to measured*m+a when that is tighter.
type gate struct {
	line                  int
	text                  string
	run, cell, metric, op string
	bound                 float64
	mul, add              float64
	record                bool
}

func (g gate) String() string { return fmt.Sprintf("gates.txt:%d: %s", g.line, g.text) }

// parseGates reads gates.txt; blank lines and lines starting with # are
// skipped.
func parseGates(src string) ([]gate, error) {
	var gates []gate
	for i, line := range strings.Split(src, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		g, err := parseGate(f)
		if err != nil {
			return nil, fmt.Errorf("gates.txt:%d: %v", i+1, err)
		}
		g.line, g.text = i+1, strings.Join(f, " ")
		gates = append(gates, g)
	}
	return gates, nil
}

func parseGate(f []string) (gate, error) {
	if len(f) != 5 && len(f) != 6 {
		return gate{}, fmt.Errorf("want run cell metric op bound [headroom], got %d fields", len(f))
	}
	g := gate{run: f[0], cell: f[1], metric: f[2], op: f[3]}
	if g.op != ">=" && g.op != "<=" {
		return gate{}, fmt.Errorf("op %q is neither >= nor <=", g.op)
	}
	var err error
	if g.bound, err = strconv.ParseFloat(f[4], 64); err != nil {
		return gate{}, fmt.Errorf("bound: %v", err)
	}
	if len(f) == 6 {
		mul, add, hasAdd := strings.Cut(f[5], "+")
		var errAdd error
		g.mul, err = strconv.ParseFloat(strings.TrimPrefix(mul, "*"), 64)
		if hasAdd {
			g.add, errAdd = strconv.ParseFloat(add, 64)
		}
		if !strings.HasPrefix(mul, "*") || err != nil || errAdd != nil {
			return gate{}, fmt.Errorf("headroom %q is not *mul or *mul+add", f[5])
		}
		g.record = true
	}
	return g, nil
}

// holds reports whether v is within the gate's bound: floors fail below
// it, ceilings above it, and NaN fails both.
func (g gate) holds(v float64) bool {
	if g.op == ">=" {
		return v >= g.bound
	}
	return v <= g.bound
}

// checkGates evaluates every gate of the named run against its rows and
// returns one message per failure. A gate whose cell and metric match no
// row fails, so a renamed cell or metric cannot retire a bound silently.
func checkGates(gates []gate, runName string, rows []Row) []string {
	var fails []string
	for _, g := range gates {
		if g.run != runName {
			continue
		}
		r, ok := find(rows, g.cell, g.metric)
		if !ok {
			fails = append(fails, fmt.Sprintf("%v: no row with cell %q and metric %q", g, g.cell, g.metric))
			continue
		}
		v, ok := r.value()
		if !ok {
			fails = append(fails, fmt.Sprintf("%v: %q is not a number", g, r.Value))
			continue
		}
		if !g.holds(v) {
			fails = append(fails, fmt.Sprintf("%v: measured %s", g, formatValue(v)))
		}
	}
	return fails
}

// recordGates returns src, from which gates was parsed, with the bound
// of every ratchet line of the named run moved to measured*mul+add,
// rounded to the old bound's decimals in the loose direction, when that
// is tighter than the old bound. It only ever tightens; loosening a
// bound is a reviewed edit. Call it only after checkGates passed.
func recordGates(src string, gates []gate, runName string, rows []Row) (string, []string) {
	lines := strings.Split(src, "\n")
	var notes []string
	for _, g := range gates {
		if g.run != runName || !g.record {
			continue
		}
		r, _ := find(rows, g.cell, g.metric)
		v, _ := r.value()
		f := strings.Fields(lines[g.line-1])
		_, frac, _ := strings.Cut(f[4], ".")
		scale := math.Pow(10, float64(len(frac)))
		next := v*g.mul + g.add
		if g.op == ">=" {
			next = math.Floor(next*scale) / scale
		} else {
			next = math.Ceil(next*scale) / scale
		}
		if next == g.bound || !g.holds(next) {
			continue
		}
		f[4] = strconv.FormatFloat(next, 'f', len(frac), 64)
		lines[g.line-1] = strings.Join(f, " ")
		notes = append(notes, fmt.Sprintf("recorded %s (was %s, measured %s)", lines[g.line-1], g.text, formatValue(v)))
	}
	return strings.Join(lines, "\n"), notes
}
