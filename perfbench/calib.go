package main

// calib.go measures how fast the host is running right now. The 2-vCPU
// virtual machines the benchmark runs on go through periods in which
// everything, process CPU time included, runs up to about twice as slow;
// a pass that falls in one reads slow on every timing, however much work
// the run measures. Just before and just after every drive the benchmark
// times a fixed kernel that uses nothing of the program — the same
// string, map, JSON, hashing and allocation mix on every host and every
// commit — and scales the pass's timings by the kernel's nominal time
// over its measured time: they read in the units of an unloaded
// reference host. A change to the program moves the pass and leaves the
// kernel alone, so it shows in full; a slow period moves both and
// cancels. The periods come and go within seconds, so each pass gets its
// own factor from the kernel runs that bracket its drive.

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// calibReps is how many times the kernel runs on each side of a drive;
// the pass uses the median of both sides' runs.
const calibReps = 3

// nominalKernel is the kernel's median wall and CPU time on the
// reference host (Intel Xeon, 2 vCPUs, Go 1.22, GOMAXPROCS 1) while it
// was otherwise idle.
const nominalKernel = 470 * time.Microsecond

// calibRecord is the kernel's unit of work, shaped like a design
// object's metadata.
type calibRecord struct {
	Name    string   `json:"name"`
	Version int      `json:"version"`
	Inputs  []string `json:"inputs"`
	Tool    string   `json:"tool"`
}

// calibKernel builds, indexes, encodes, decodes, hashes and sorts a
// fixed set of records and returns a digest so the work cannot be
// optimised away.
func calibKernel() byte {
	const n = 256
	index := make(map[string]*calibRecord, n)
	recs := make([]*calibRecord, 0, n)
	for i := 0; i < n; i++ {
		name := "/w/calib/d" + strconv.Itoa(i%2) + "/r" + strconv.Itoa(i/8) + "b" + strconv.Itoa(i%8)
		r := &calibRecord{Name: name, Version: i, Tool: "WLEdit" + strconv.Itoa(1+i%2)}
		if prev, ok := index["/w/calib/d"+strconv.Itoa(i%2)+"/r"+strconv.Itoa(i/8-1)+"b"+strconv.Itoa(i%8)]; ok {
			r.Inputs = append(r.Inputs, prev.Name)
		}
		index[name] = r
		recs = append(recs, r)
	}
	buf, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	var back []calibRecord
	if err := json.Unmarshal(buf, &back); err != nil {
		panic(err)
	}
	names := make([]string, 0, len(back))
	for _, r := range back {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	sum := sha256.Sum256(buf)
	return sum[0] ^ byte(len(names[0]))
}

// hostSpeed is the kernel's median wall and CPU time around one drive
// as factors of its nominal time (1 on an unloaded reference host,
// larger when the host runs slow).
type hostSpeed struct {
	wall, cpu float64
}

// calibSink keeps the kernel's result live.
var calibSink byte

// kernelRuns collects the kernel's times around one drive.
type kernelRuns struct {
	wall, cpu dist
}

// time runs the kernel calibReps times, each from a collected heap: a
// kernel run allocates well under the collector's minimum heap goal, so
// no GC cycle runs inside it, and its time does not depend on how much
// the harness and the pass keep live.
func (k *kernelRuns) time() {
	for i := 0; i < calibReps; i++ {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		calibSink ^= calibKernel()
		k.wall = append(k.wall, float64(time.Since(t0)))
		k.cpu = append(k.cpu, float64(cpuTime()-c0))
	}
}

func (k *kernelRuns) speed() hostSpeed {
	return hostSpeed{wall: k.wall.median() / float64(nominalKernel), cpu: k.cpu.median() / float64(nominalKernel)}
}
