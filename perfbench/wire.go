package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// wireRecorder is the benchmark client's transport. It times every
// designer request from send until the client closes the response body,
// so the latency includes the client's JSON decode; counts requests,
// transport errors, error responses and the 429s the client retries
// through; and, in a traced pass, records a wire span per request on its
// designer's timeline.
type wireRecorder struct {
	next http.RoundTripper
	tr   *tracer

	mu       sync.Mutex
	lat      map[string]dist // route -> latency samples, µs
	requests int64
	errors   int64
	retried  int64
	seq      int64
	// session maps wire session IDs to designer indexes (traced passes).
	session map[string]int
	// root is each designer's drive span (traced passes).
	root map[int]int
}

func newWireRecorder(next http.RoundTripper, tr *tracer) *wireRecorder {
	return &wireRecorder{next: next, tr: tr, lat: map[string]dist{}, session: map[string]int{}, root: map[int]int{}}
}

// routeOf names a request by the endpoint it reaches: tasks, rework,
// replay, query, import, history, record, contribute, retrieve, objects
// (space listing), poll, stream, or session (open, status, close).
func routeOf(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) >= 4 && parts[1] == "sessions":
		if parts[3] == "objects" {
			return "import"
		}
		if parts[3] == "records" {
			return "record"
		}
		return parts[3]
	case len(parts) >= 4 && parts[1] == "spaces":
		return parts[3]
	case len(parts) >= 2 && parts[1] == "sessions":
		return "session"
	}
	return "other"
}

// bodyField decodes one string field of a JSON request body without
// consuming it.
func bodyField(r *http.Request, field string) string {
	if r.GetBody == nil {
		return ""
	}
	rc, err := r.GetBody()
	if err != nil {
		return ""
	}
	defer rc.Close()
	var m map[string]any
	if json.NewDecoder(rc).Decode(&m) != nil {
		return ""
	}
	s, _ := m[field].(string)
	return s
}

// designerOf finds the designer a request works for: the session in its
// path, query or body, or for a session open the "...-d<i>" name the
// workload package gives designer i.
func (w *wireRecorder) designerOf(r *http.Request, route string) int {
	id := r.URL.Query().Get("session")
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) >= 3 && parts[1] == "sessions":
		id = parts[2]
	case route == "contribute" || route == "retrieve":
		id = bodyField(r, "session")
	case route == "session" && r.Method == http.MethodPost:
		name := bodyField(r, "name")
		d := -1
		if i := strings.LastIndex(name, "-d"); i >= 0 {
			fmt.Sscanf(name[i+2:], "%d", &d)
		}
		return d
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if d, ok := w.session[id]; ok {
		return d
	}
	return -1
}

func (w *wireRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	route := routeOf(r)
	d, id := -1, 0
	if w.tr != nil {
		d = w.designerOf(r, route)
		w.mu.Lock()
		w.seq++
		req := fmt.Sprintf("d%d-r%d", d, w.seq)
		parent := w.root[d]
		w.mu.Unlock()
		id = w.tr.begin(layerWire, r.Method+" "+route, req, d+1, parent)
		w.tr.setOp(d, id)
	}
	start := time.Now()
	resp, err := w.next.RoundTrip(r)
	if err != nil {
		w.mu.Lock()
		w.requests++
		w.errors++
		w.mu.Unlock()
		w.tr.end(id)
		return nil, err
	}
	if w.tr != nil && route == "session" && r.Method == http.MethodPost && resp.StatusCode == http.StatusOK {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		var info struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(data, &info) == nil && d >= 0 {
			w.mu.Lock()
			w.session[info.ID] = d
			w.mu.Unlock()
		}
		resp.Body = io.NopCloser(bytes.NewReader(data))
	}
	status := resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		w.mu.Lock()
		w.requests++
		w.lat[route] = append(w.lat[route], us)
		switch {
		case status == http.StatusTooManyRequests:
			w.retried++
		case status/100 != 2:
			w.errors++
		}
		w.mu.Unlock()
		w.tr.end(id)
		w.tr.setOp(d, 0)
	}}
	return resp, nil
}

// timedBody runs done once, when the client closes the body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
