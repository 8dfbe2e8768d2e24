package main

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestLayerTimesChargeSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{ID: 1, Layer: layerDesigner, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: layerWire, Start: 10 * ms, End: 60 * ms},
		// Two overlapping tool bodies of one request: the union, 30 ms,
		// is the request's covered time.
		{ID: 3, Parent: 2, Layer: layerCAD, Start: 20 * ms, End: 40 * ms},
		{ID: 4, Parent: 2, Layer: layerCAD, Start: 30 * ms, End: 50 * ms},
		// A barrier sweep stalls both designers.
		{ID: 5, Layer: layerReclaim, Start: 70 * ms, End: 75 * ms},
		// An unclosed span is ignored.
		{ID: 6, Parent: 1, Layer: layerWire, Start: 80 * ms, End: -1},
	}}
	got := tr.layerTimes(2)
	want := map[string]time.Duration{
		layerDesigner: 50 * ms,
		layerWire:     20 * ms,
		layerCAD:      40 * ms,
		layerReclaim:  10 * ms,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("%s self = %v, want %v", l, got[l], w)
		}
	}
}

func TestRouteOf(t *testing.T) {
	cases := map[string]string{
		"POST /v1/sessions":                      "session",
		"DELETE /v1/sessions/s-1":                "session",
		"POST /v1/sessions/s-1/tasks":            "tasks",
		"POST /v1/sessions/s-1/objects":          "import",
		"GET /v1/sessions/s-1/query?op=lineage":  "query",
		"GET /v1/sessions/s-1/records/3":         "record",
		"POST /v1/spaces/wl-agentic/contribute":  "contribute",
		"GET /v1/spaces/wl-agentic/objects?s=1":  "objects",
		"GET /v1/spaces/wl-agentic/poll?after=0": "poll",
	}
	for in, want := range cases {
		method, url, _ := strings.Cut(in, " ")
		r, err := http.NewRequest(method, "http://h"+url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := routeOf(r); got != want {
			t.Errorf("routeOf(%s) = %q, want %q", in, got, want)
		}
	}
}
