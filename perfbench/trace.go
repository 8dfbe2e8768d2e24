package main

// trace.go records wall-clock spans around the calls the benchmark makes
// into each layer — wire requests, CAD tool bodies, rounds, barrier
// sweeps and checkpoints, recovery — keeps them in memory, writes them
// as a Chrome trace at the end of a traced run, and charges each layer
// its self time. Spans come only from the benchmark's own wrappers
// around public entry points; the program is not instrumented.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"papyrus/internal/cad"
)

// Layer names a span is charged to.
const (
	layerDesigner   = "designer" // a designer's whole drive; its self time is unattributed
	layerWire       = "wire"     // one client request: HTTP, server, engine minus tool bodies
	layerEngine     = "engine"   // one in-process round minus tool bodies
	layerCAD        = "cad"      // one tool body
	layerReclaim    = "reclaim"  // one barrier sweep
	layerCheckpoint = "checkpoint"
	layerRecover    = "recover"
)

// span is one timed call. Parent 0 is a root; TID is the designer's
// index + 1, or 0 for the benchmark's own work at round barriers.
type span struct {
	ID, Parent int
	Layer      string
	Name       string
	Req        string
	TID        int
	Start, End time.Duration
}

// tracer holds every span of a traced run. A nil *tracer records
// nothing, so untraced passes pay only the nil checks.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// op is each designer's in-flight operation span: the parent of the
	// tool bodies that designer's work runs.
	op map[int]int
	// owner maps intermediate object names (which carry no designer
	// prefix) to the designer whose step wrote them.
	owner map[string]int
	// prefix is the designer namespace "/w/<profile>/d".
	prefix string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: map[int]int{}, owner: map[string]int{}}
}

// startPass resets the per-pass designer bookkeeping.
func (t *tracer) startPass(profile string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.prefix = "/w/" + profile + "/d"
	t.op = map[int]int{}
	t.owner = map[string]int{}
	t.mu.Unlock()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(layer, name, req string, tid, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Req: req, TID: tid, Start: now, End: -1,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark returns the index the next span will take.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// setOp records designer d's in-flight operation span (0 = none).
func (t *tracer) setOp(d, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op[d] = id
	t.mu.Unlock()
}

// designerOfLocked finds the designer a tool invocation works for: an
// input or output in the designer's namespace, or an intermediate an
// earlier step of that designer wrote. Unknown work returns -1.
func (t *tracer) designerOfLocked(ctx *cad.Ctx) int {
	d := -1
	names := append([]string(nil), ctx.OutputNames...)
	for _, in := range ctx.Inputs {
		names = append(names, in.Name)
	}
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, t.prefix); ok {
			if _, err := fmt.Sscanf(rest, "%d", &d); err == nil {
				break
			}
			d = -1
		}
		if o, ok := t.owner[n]; ok {
			d = o
			break
		}
	}
	if d >= 0 {
		for _, n := range ctx.OutputNames {
			if !strings.HasPrefix(n, t.prefix) {
				t.owner[n] = d
			}
		}
	}
	return d
}

// wrapTools replaces every tool body of suite with one that records a
// cad span parented to the designer's in-flight operation.
func (t *tracer) wrapTools(suite *cad.Suite) {
	if t == nil {
		return
	}
	for _, name := range suite.Names() {
		tool, _ := suite.Tool(name)
		run := tool.Run
		tool.Run = func(ctx *cad.Ctx) error {
			t.mu.Lock()
			d := t.designerOfLocked(ctx)
			parent, req := 0, ""
			if d >= 0 {
				if parent = t.op[d]; parent > 0 {
					req = t.spans[parent-1].Req
				}
			}
			t.mu.Unlock()
			id := t.begin(layerCAD, ctx.Tool, req, d+1, parent)
			err := run(ctx)
			t.end(id)
			return err
		}
	}
}

// layerTimes charges every closed span's self time — its duration minus
// the union of its children's intervals — to its layer, in
// designer-seconds. A barrier sweep stalls every designer, so it is
// charged once per designer.
func (t *tracer) layerTimes(designers int) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		if s.Layer == layerReclaim {
			self *= time.Duration(designers)
		}
		out[s.Layer] += self
	}
	return out
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, one thread per designer, thread 0 for barrier work) with the
// run's stamp as metadata.
func (t *tracer) writeChrome(path string, stamp map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.TID,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "metadata": stamp}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
