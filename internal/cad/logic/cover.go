// Package logic implements the logic-level design representations and
// algorithms behind the simulated Berkeley CAD tools: sum-of-products cube
// covers (the espresso/PLA representation), multi-level boolean networks
// (the misII/BLIF representation), behavioral expression parsing (bdsyn's
// input), two-level minimization, multi-level simplification, and
// event-free levelized simulation (musa).
//
// These are real miniature implementations — minimization genuinely
// minimizes and simulation genuinely evaluates — so that the metadata
// inference experiments of Chapter 6 (attribute values such as minterm
// counts and literal counts) measure actual design properties.
package logic

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// Lit is one position of a cube's input part.
type Lit byte

// Input-part literal values.
const (
	LitDC   Lit = '-' // don't care: variable absent from the product term
	LitZero Lit = '0' // complemented literal
	LitOne  Lit = '1' // positive literal
)

// Cube is one product term over n inputs, driving a subset of m outputs.
type Cube struct {
	In  []Lit  `json:"in"`
	Out []bool `json:"out"`
}

// Clone deep-copies the cube.
func (c Cube) Clone() Cube {
	in := make([]Lit, len(c.In))
	copy(in, c.In)
	out := make([]bool, len(c.Out))
	copy(out, c.Out)
	return Cube{In: in, Out: out}
}

// String renders the cube in PLA form, e.g. "1-0 10".
func (c Cube) String() string {
	var b strings.Builder
	for _, l := range c.In {
		b.WriteByte(byte(l))
	}
	b.WriteByte(' ')
	for _, o := range c.Out {
		if o {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// covers reports whether cube a's input part contains cube b's (every
// minterm of b is a minterm of a).
func coversIn(a, b []Lit) bool {
	for i := range a {
		if a[i] != LitDC && a[i] != b[i] {
			return false
		}
	}
	return true
}

// distance1 reports whether two input parts differ in exactly one position
// where both are care literals that conflict, and agree elsewhere. Such
// cubes merge into one with a don't-care at that position.
func distance1(a, b []Lit) (int, bool) {
	pos := -1
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if a[i] == LitDC || b[i] == LitDC {
			return 0, false // differing care/don't-care: not mergeable this way
		}
		if pos >= 0 {
			return 0, false
		}
		pos = i
	}
	if pos < 0 {
		return 0, false
	}
	return pos, true
}

// Cover is a two-level sum-of-products representation: the PLA personality
// matrix espresso consumes and produces.
type Cover struct {
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	Cubes   []Cube   `json:"cubes"`
}

// NewCover returns an empty cover over the given variables.
func NewCover(inputs, outputs []string) *Cover {
	return &Cover{
		Inputs:  append([]string(nil), inputs...),
		Outputs: append([]string(nil), outputs...),
	}
}

// Clone deep-copies the cover.
func (cv *Cover) Clone() *Cover {
	out := NewCover(cv.Inputs, cv.Outputs)
	out.Cubes = make([]Cube, len(cv.Cubes))
	for i, c := range cv.Cubes {
		out.Cubes[i] = c.Clone()
	}
	return out
}

// AddCube appends a product term. The term must match the cover's arity.
func (cv *Cover) AddCube(c Cube) error {
	if len(c.In) != len(cv.Inputs) {
		return fmt.Errorf("logic: cube has %d input literals, cover has %d inputs", len(c.In), len(cv.Inputs))
	}
	if len(c.Out) != len(cv.Outputs) {
		return fmt.Errorf("logic: cube drives %d outputs, cover has %d outputs", len(c.Out), len(cv.Outputs))
	}
	cv.Cubes = append(cv.Cubes, c)
	return nil
}

// NumTerms returns the number of product terms (the PLA's row count, the
// "number of minterms" attribute of Fig 6.4).
func (cv *Cover) NumTerms() int { return len(cv.Cubes) }

// LiteralCount counts care literals across all cubes, the standard
// two-level cost measure.
func (cv *Cover) LiteralCount() int {
	n := 0
	for _, c := range cv.Cubes {
		for _, l := range c.In {
			if l != LitDC {
				n++
			}
		}
	}
	return n
}

// Eval evaluates the cover on an input assignment.
func (cv *Cover) Eval(assign map[string]bool) (map[string]bool, error) {
	out := make(map[string]bool, len(cv.Outputs))
	for _, o := range cv.Outputs {
		out[o] = false
	}
	for _, c := range cv.Cubes {
		match := true
		for i, l := range c.In {
			if l == LitDC {
				continue
			}
			v, ok := assign[cv.Inputs[i]]
			if !ok {
				return nil, fmt.Errorf("logic: input %q unassigned", cv.Inputs[i])
			}
			if v != (l == LitOne) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		for j, drives := range c.Out {
			if drives {
				out[cv.Outputs[j]] = true
			}
		}
	}
	return out, nil
}

// String renders the cover in a PLA-like text form.
func (cv *Cover) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ".i %d\n.o %d\n", len(cv.Inputs), len(cv.Outputs))
	fmt.Fprintf(&b, ".ilb %s\n.ob %s\n.p %d\n",
		strings.Join(cv.Inputs, " "), strings.Join(cv.Outputs, " "), len(cv.Cubes))
	for _, c := range cv.Cubes {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	b.WriteString(".e\n")
	return b.String()
}

// Size implements oct.Value sizing: a rough byte estimate.
func (cv *Cover) Size() int {
	return len(cv.Cubes)*(len(cv.Inputs)+len(cv.Outputs)+2) + 16*len(cv.Inputs) + 16*len(cv.Outputs)
}

// exactLimit is the largest input count Minimize solves exactly. It also
// keeps the exact path's packed cubes within one uint32 per field and a
// cube key within 32 bits.
const exactLimit = 12

// Minimize returns an equivalent cover with at most as many terms, using
// exact prime generation with a greedy cover selection per output when the
// input count permits, and an iterative merge/containment heuristic
// otherwise. Per-output exact minimization can occasionally produce more
// rows than a shared multi-output cover, so the smaller of the two results
// wins. This is the engine of the simulated espresso.
func (cv *Cover) Minimize() *Cover {
	best := cv.minimizeHeuristic()
	if len(cv.Inputs) <= exactLimit {
		if m, ok := cv.minimizeExact(); ok && m.NumTerms() < best.NumTerms() {
			best = m
		}
	}
	return best
}

// minimizeExact runs Quine–McCluskey per output column and reassembles a
// multi-output cover by merging identical input parts.
func (cv *Cover) minimizeExact() (*Cover, bool) {
	n := len(cv.Inputs)
	qm := qmPool.Get().(*qmScratch)
	defer qmPool.Put(qm)
	result := NewCover(cv.Inputs, cv.Outputs)
	merged := map[uint32]int{} // cube key -> index in result.Cubes
	for oi := range cv.Outputs {
		minterms := qm.mintermsFor(cv, oi)
		var chosen []cube
		switch len(minterms) {
		case 0:
			continue
		case 1 << n:
			chosen = []cube{{dc: 1<<n - 1}} // tautology: one all-DC cube
		default:
			chosen = qm.greedyCover(qm.primeImplicants(n, minterms), n, len(minterms))
		}
		for _, p := range chosen {
			if idx, ok := merged[p.key()]; ok {
				result.Cubes[idx].Out[oi] = true
				continue
			}
			c := Cube{In: p.lits(n), Out: make([]bool, len(cv.Outputs))}
			c.Out[oi] = true
			merged[p.key()] = len(result.Cubes)
			result.Cubes = append(result.Cubes, c)
		}
	}
	return result, true
}

// cube is the exact minimizer's packed input part: bit i of dc marks input
// i don't-care, and bit i of val holds its care value (zero under a
// don't-care).
type cube struct{ val, dc uint32 }

// packCube packs an input part; any literal other than '1' and '-' reads
// as '0'.
func packCube(in []Lit) cube {
	var c cube
	for i, l := range in {
		switch l {
		case LitOne:
			c.val |= 1 << uint(i)
		case LitDC:
			c.dc |= 1 << uint(i)
		}
	}
	return c
}

// key is a cube's identity as one word; exactLimit keeps both fields
// within 16 bits.
func (c cube) key() uint32 { return c.dc<<16 | c.val }

// lits unpacks the cube into n literals.
func (c cube) lits(n int) []Lit {
	in := make([]Lit, n)
	for i := range in {
		switch bit := uint32(1) << uint(i); {
		case c.dc&bit != 0:
			in[i] = LitDC
		case c.val&bit != 0:
			in[i] = LitOne
		default:
			in[i] = LitZero
		}
	}
	return in
}

// expandCube enumerates the minterms a cube covers.
func expandCube(c cube, visit func(uint32)) {
	for s := c.dc; ; s = (s - 1) & c.dc {
		visit(c.val | s)
		if s == 0 {
			return
		}
	}
}

// qmScratch holds the buffers of one exact minimization, reused across
// output columns and passes; qmPool recycles it across calls. Slices it
// returns are valid until the next call on the same scratch, except
// greedyCover's result, which is freshly allocated.
type qmScratch struct {
	minterms       []uint32
	on             []bool // dense minterm set, then coverage
	current, next  []cube
	primes         []cube
	index, nextIdx cubeIndex
	combined       []bool
	spent          []bool
}

var qmPool = sync.Pool{New: func() any { return new(qmScratch) }}

// zeroed returns buf resized to n elements, all zero.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// mintermsFor enumerates the minterm set of one output column in
// ascending order. The result lives in the scratch.
func (qm *qmScratch) mintermsFor(cv *Cover, oi int) []uint32 {
	qm.on = zeroed(qm.on, 1<<len(cv.Inputs))
	for _, c := range cv.Cubes {
		if c.Out[oi] {
			expandCube(packCube(c.In), func(m uint32) { qm.on[m] = true })
		}
	}
	qm.minterms = qm.minterms[:0]
	for m, ok := range qm.on {
		if ok {
			qm.minterms = append(qm.minterms, uint32(m))
		}
	}
	return qm.minterms
}

// primeImplicants runs the Quine–McCluskey combining pass and returns all
// prime implicants of the given ascending on-set. The result lives in the
// scratch.
//
// The order of the result is part of the output: greedyCover breaks ties
// by it, so it fixes the chosen rows and every fingerprint built on them.
// It is the order of an all-pairs scan: for implicants i < j in list
// order, each distance-1 pair is merged into the next pass's list unless
// already there, and the uncombined implicants are emitted as primes in
// list order. Each list stays sorted by val: the minterms start
// ascending, and a merged cube keeps the val of its lower partner, which
// comes first. So the partners after i are exactly the cubes i reaches by
// setting one of its zero care bits, and setting them in ascending bit
// order visits those partners in ascending list position — the scan's
// order, found with one index lookup per zero care bit instead of a scan
// of every later implicant.
func (qm *qmScratch) primeImplicants(n int, minterms []uint32) []cube {
	full := uint32(1)<<n - 1
	current := slices.Grow(qm.current[:0], len(minterms))
	qm.index.reset(len(minterms))
	for i, m := range minterms {
		current = append(current, cube{val: m})
		qm.index.add(cube{val: m}.key(), i)
	}
	next, primes := qm.next[:0], qm.primes[:0]
	for len(current) > 0 {
		lookups := 0
		for _, c := range current {
			lookups += bits.OnesCount32(full &^ (c.dc | c.val))
		}
		combined := zeroed(qm.combined, len(current))
		next = slices.Grow(next[:0], lookups)
		qm.nextIdx.reset(lookups)
		for i, c := range current {
			for zeros := full &^ (c.dc | c.val); zeros != 0; zeros &= zeros - 1 {
				bit := zeros & -zeros
				j := qm.index.find(cube{c.val | bit, c.dc}.key())
				if j < 0 {
					continue
				}
				combined[i], combined[j] = true, true
				if m := (cube{c.val, c.dc | bit}); qm.nextIdx.add(m.key(), len(next)) {
					next = append(next, m)
				}
			}
		}
		for i, c := range current {
			if !combined[i] {
				primes = append(primes, c)
			}
		}
		qm.combined = combined
		current, next = next, current
		qm.index, qm.nextIdx = qm.nextIdx, qm.index
	}
	qm.current, qm.next, qm.primes = current, next, primes
	return primes
}

// cubeIndex maps cube keys to positions in one pass's implicant list. It
// is open-addressed with linear probing, sized before each pass for the
// most entries the pass can add.
type cubeIndex struct {
	slots []cubeSlot
	shift uint // 32 - log2(len(slots))
}

type cubeSlot struct {
	key uint32 // cube key + 1; 0 marks an empty slot
	pos int32
}

// reset empties the index and sizes it for up to entries keys at no more
// than half load.
func (t *cubeIndex) reset(entries int) {
	size, shift := 16, uint(28)
	for size < 2*entries {
		size, shift = size<<1, shift-1
	}
	t.slots, t.shift = zeroed(t.slots, size), shift
}

// find returns the position stored under key k, or -1.
func (t *cubeIndex) find(k uint32) int {
	k++
	mask := uint32(len(t.slots) - 1)
	for i := (k * 0x9E3779B1) >> t.shift; ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return int(t.slots[i].pos)
		case 0:
			return -1
		}
	}
}

// add stores pos under key k and reports true, or reports false when k
// is already present.
func (t *cubeIndex) add(k uint32, pos int) bool {
	k++
	mask := uint32(len(t.slots) - 1)
	for i := (k * 0x9E3779B1) >> t.shift; ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case k:
			return false
		case 0:
			t.slots[i] = cubeSlot{key: k, pos: int32(pos)}
			return true
		}
	}
}

// greedyCover selects a subset of primes covering all need minterms,
// largest marginal coverage first (ties to fewer literals, then to the
// earlier prime). Every prime covers only on-set minterms.
func (qm *qmScratch) greedyCover(primes []cube, n, need int) []cube {
	covered := zeroed(qm.on, 1<<n)
	spent := zeroed(qm.spent, len(primes)) // covers nothing new; stays so
	qm.on, qm.spent = covered, spent
	var chosen []cube
	for need > 0 {
		best, bestGain, bestDC := -1, 0, 0
		for i, p := range primes {
			if spent[i] {
				continue
			}
			g := 0
			expandCube(p, func(m uint32) {
				if !covered[m] {
					g++
				}
			})
			if g == 0 {
				spent[i] = true
				continue
			}
			// More don't-cares is fewer literals.
			if dc := bits.OnesCount32(p.dc); g > bestGain || (g == bestGain && dc > bestDC) {
				best, bestGain, bestDC = i, g, dc
			}
		}
		if best < 0 {
			break // should not happen: primes cover all minterms
		}
		chosen = append(chosen, primes[best])
		expandCube(primes[best], func(m uint32) {
			if !covered[m] {
				covered[m] = true
				need--
			}
		})
	}
	return chosen
}

// MinimizeHeuristicOnly exposes the heuristic engine alone for ablation
// comparisons against the combined Minimize.
func (cv *Cover) MinimizeHeuristicOnly() *Cover {
	return cv.minimizeHeuristic()
}

// minimizeHeuristic repeatedly removes contained cubes (per-output) and
// merges distance-1 cubes with identical output parts until no change.
func (cv *Cover) minimizeHeuristic() *Cover {
	out := cv.Clone()
	changed := true
	for changed {
		changed = false
		// Merge distance-1 cubes with equal output parts.
		for i := 0; i < len(out.Cubes); i++ {
			for j := i + 1; j < len(out.Cubes); j++ {
				if !equalOut(out.Cubes[i].Out, out.Cubes[j].Out) {
					continue
				}
				if pos, ok := distance1(out.Cubes[i].In, out.Cubes[j].In); ok {
					out.Cubes[i].In[pos] = LitDC
					out.Cubes = append(out.Cubes[:j], out.Cubes[j+1:]...)
					changed = true
					j--
				}
			}
		}
		// Drop cubes whose every driven output is covered by another cube.
		for i := 0; i < len(out.Cubes); i++ {
			redundant := true
			for oi, drives := range out.Cubes[i].Out {
				if !drives {
					continue
				}
				coveredBy := false
				for j := range out.Cubes {
					if j == i || !out.Cubes[j].Out[oi] {
						continue
					}
					if coversIn(out.Cubes[j].In, out.Cubes[i].In) {
						coveredBy = true
						break
					}
				}
				if !coveredBy {
					redundant = false
					break
				}
			}
			if redundant && anyOut(out.Cubes[i].Out) {
				out.Cubes = append(out.Cubes[:i], out.Cubes[i+1:]...)
				changed = true
				i--
			}
		}
	}
	return out
}

func equalOut(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func anyOut(o []bool) bool {
	for _, v := range o {
		if v {
			return true
		}
	}
	return false
}
