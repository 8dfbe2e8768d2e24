package logic

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference exact minimizer: the original []Lit all-pairs
// Quine–McCluskey. minimizeExact must reproduce its prime order, its
// chosen cover and its output byte for byte, because the cover rows feed
// the stored design objects and every fingerprint built on them.

func refMinimizeExact(cv *Cover) *Cover {
	n := len(cv.Inputs)
	result := NewCover(cv.Inputs, cv.Outputs)
	merged := map[string]int{} // input part -> index in result.Cubes
	for oi := range cv.Outputs {
		minterms := refMintermsFor(cv, oi)
		if len(minterms) == 0 {
			continue
		}
		if len(minterms) == 1<<n {
			c := Cube{In: refAllDC(n), Out: make([]bool, len(cv.Outputs))}
			c.Out[oi] = true
			refAddMerged(merged, &result.Cubes, c)
			continue
		}
		primes := refPrimeImplicants(n, minterms)
		for _, p := range refGreedyCover(primes, minterms, n) {
			c := Cube{In: p, Out: make([]bool, len(cv.Outputs))}
			c.Out[oi] = true
			refAddMerged(merged, &result.Cubes, c)
		}
	}
	return result
}

func refAddMerged(merged map[string]int, cubes *[]Cube, c Cube) {
	k := string(refLitBytes(c.In))
	if idx, ok := merged[k]; ok {
		prev := &(*cubes)[idx]
		for j := range prev.Out {
			prev.Out[j] = prev.Out[j] || c.Out[j]
		}
		return
	}
	*cubes = append(*cubes, c)
	merged[k] = len(*cubes) - 1
}

func refLitBytes(in []Lit) []byte {
	b := make([]byte, len(in))
	for i, l := range in {
		b[i] = byte(l)
	}
	return b
}

func refAllDC(n int) []Lit {
	in := make([]Lit, n)
	for i := range in {
		in[i] = LitDC
	}
	return in
}

func refMintermsFor(cv *Cover, oi int) []uint32 {
	n := len(cv.Inputs)
	set := map[uint32]bool{}
	for _, c := range cv.Cubes {
		if !c.Out[oi] {
			continue
		}
		refExpandCube(c.In, n, func(m uint32) { set[m] = true })
	}
	out := make([]uint32, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refExpandCube(in []Lit, n int, visit func(uint32)) {
	var dcs []int
	var base uint32
	for i, l := range in {
		switch l {
		case LitOne:
			base |= 1 << uint(i)
		case LitDC:
			dcs = append(dcs, i)
		}
	}
	for mask := 0; mask < 1<<len(dcs); mask++ {
		m := base
		for bi, pos := range dcs {
			if mask&(1<<bi) != 0 {
				m |= 1 << uint(pos)
			}
		}
		visit(m)
	}
}

func refPrimeImplicants(n int, minterms []uint32) [][]Lit {
	type implicant struct {
		in       []Lit
		combined bool
	}
	current := make([]*implicant, 0, len(minterms))
	for _, m := range minterms {
		in := make([]Lit, n)
		for i := 0; i < n; i++ {
			if m&(1<<uint(i)) != 0 {
				in[i] = LitOne
			} else {
				in[i] = LitZero
			}
		}
		current = append(current, &implicant{in: in})
	}
	var primes [][]Lit
	for len(current) > 0 {
		seen := map[string]bool{}
		var next []*implicant
		for i := 0; i < len(current); i++ {
			for j := i + 1; j < len(current); j++ {
				pos, ok := distance1(current[i].in, current[j].in)
				if !ok {
					continue
				}
				current[i].combined = true
				current[j].combined = true
				merged := make([]Lit, n)
				copy(merged, current[i].in)
				merged[pos] = LitDC
				k := string(refLitBytes(merged))
				if !seen[k] {
					seen[k] = true
					next = append(next, &implicant{in: merged})
				}
			}
		}
		primeSeen := map[string]bool{}
		for _, imp := range current {
			if imp.combined {
				continue
			}
			k := string(refLitBytes(imp.in))
			if !primeSeen[k] {
				primeSeen[k] = true
				primes = append(primes, imp.in)
			}
		}
		current = next
	}
	return primes
}

func refGreedyCover(primes [][]Lit, minterms []uint32, n int) [][]Lit {
	covered := map[uint32]bool{}
	covering := make([][]uint32, len(primes))
	for i, p := range primes {
		refExpandCube(p, n, func(m uint32) {
			covering[i] = append(covering[i], m)
		})
	}
	need := map[uint32]bool{}
	for _, m := range minterms {
		need[m] = true
	}
	var chosen [][]Lit
	for len(covered) < len(need) {
		best, bestGain, bestLits := -1, 0, 0
		for i, p := range primes {
			gain := 0
			for _, m := range covering[i] {
				if need[m] && !covered[m] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			lits := careCount(p)
			if gain > bestGain || (gain == bestGain && lits < bestLits) {
				best, bestGain, bestLits = i, gain, lits
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, primes[best])
		for _, m := range covering[best] {
			if need[m] {
				covered[m] = true
			}
		}
	}
	return chosen
}

func careCount(in []Lit) int {
	n := 0
	for _, l := range in {
		if l != LitDC {
			n++
		}
	}
	return n
}

func unpackAll(cs []cube, n int) [][]Lit {
	out := make([][]Lit, len(cs))
	for i, c := range cs {
		out[i] = c.lits(n)
	}
	return out
}

// checkAgainstReference compares every stage of minimizeExact with the
// reference on one cover.
func checkAgainstReference(t *testing.T, cv *Cover) {
	t.Helper()
	n := len(cv.Inputs)
	qm := new(qmScratch)
	for oi := range cv.Outputs {
		minterms := qm.mintermsFor(cv, oi)
		if want := refMintermsFor(cv, oi); !reflect.DeepEqual(minterms, want) && len(minterms)+len(want) > 0 {
			t.Fatalf("output %d: minterms %v, reference %v\n%s", oi, minterms, want, cv)
		}
		if len(minterms) == 0 || len(minterms) == 1<<n {
			continue
		}
		primes := qm.primeImplicants(n, minterms)
		refPrimes := refPrimeImplicants(n, minterms)
		if got := unpackAll(primes, n); !reflect.DeepEqual(got, refPrimes) {
			t.Fatalf("output %d: primes %q, reference %q\n%s", oi, got, refPrimes, cv)
		}
		chosen := unpackAll(qm.greedyCover(primes, n, len(minterms)), n)
		if want := refGreedyCover(refPrimes, minterms, n); !reflect.DeepEqual(chosen, want) {
			t.Fatalf("output %d: cover %q, reference %q\n%s", oi, chosen, want, cv)
		}
	}
	got, _ := cv.minimizeExact()
	if want := refMinimizeExact(cv); got.String() != want.String() || !reflect.DeepEqual(got, want) {
		t.Fatalf("minimizeExact:\n%s\nreference:\n%s", got, want)
	}
}

// emptyCover returns a cover over inputs x0.. and outputs f0.. with no
// cubes.
func emptyCover(nIn, nOut int) *Cover {
	ins := make([]string, nIn)
	for i := range ins {
		ins[i] = fmt.Sprintf("x%d", i)
	}
	outs := make([]string, nOut)
	for i := range outs {
		outs[i] = fmt.Sprintf("f%d", i)
	}
	return NewCover(ins, outs)
}

// randomCover draws a cover with the given arity whose cubes have roughly
// dcDensity of their literals don't-care.
func randomCover(rng *rand.Rand, nIn, nOut, nCubes int, dcDensity float64) *Cover {
	cv := emptyCover(nIn, nOut)
	for c := 0; c < nCubes; c++ {
		in := make([]Lit, nIn)
		for i := range in {
			switch {
			case rng.Float64() < dcDensity:
				in[i] = LitDC
			case rng.Intn(2) == 0:
				in[i] = LitZero
			default:
				in[i] = LitOne
			}
		}
		out := make([]bool, nOut)
		for i := range out {
			out[i] = rng.Intn(2) == 0
		}
		cv.Cubes = append(cv.Cubes, Cube{In: in, Out: out})
	}
	return cv
}

func TestMinimizeExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 400; iter++ {
		nIn := 1 + rng.Intn(exactLimit)
		nOut := 1 + rng.Intn(3)
		// Dense don't-cares on wide covers make the reference's all-pairs
		// scan slow; cap them so the on-set stays in the hundreds.
		dcDensity := rng.Float64() * 0.7
		if nIn > 8 {
			dcDensity *= 0.5
		}
		cv := randomCover(rng, nIn, nOut, rng.Intn(16), dcDensity)
		switch iter % 5 {
		case 1: // an empty column
			for _, c := range cv.Cubes {
				c.Out[0] = false
			}
		case 2: // a tautology column beside the random ones
			all := Cube{In: refAllDC(nIn), Out: make([]bool, nOut)}
			all.Out[nOut-1] = true
			cv.Cubes = append(cv.Cubes, all)
		}
		checkAgainstReference(t, cv)
	}
}

// FuzzMinimizeExact decodes bytes into a cover of at most ten inputs: the
// first byte picks the input count, the second the output count, and each
// following run of inputs+1 bytes one cube (literal byte%3, output bits).
// minimizeExact must match the reference and preserve the function.
func FuzzMinimizeExact(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 2, 1, 1, 1, 0, 1})
	f.Add([]byte{4, 2, 2, 2, 2, 2, 3})
	f.Add([]byte{9, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 1, 2, 2, 2, 2, 1, 1, 0, 0, 0, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nIn, nOut := 1+int(data[0])%10, 1+int(data[1])%3
		cv := emptyCover(nIn, nOut)
		for rest := data[2:]; len(rest) > nIn && len(cv.Cubes) < 64; rest = rest[nIn+1:] {
			c := Cube{In: make([]Lit, nIn), Out: make([]bool, nOut)}
			for i := range c.In {
				c.In[i] = []Lit{LitZero, LitOne, LitDC}[rest[i]%3]
			}
			for i := range c.Out {
				c.Out[i] = rest[nIn]&(1<<i) != 0
			}
			cv.Cubes = append(cv.Cubes, c)
		}
		checkAgainstReference(t, cv)
		min, _ := cv.minimizeExact()
		assign := map[string]bool{}
		for m := 0; m < 1<<nIn; m++ {
			for i, in := range cv.Inputs {
				assign[in] = m&(1<<i) != 0
			}
			want, err1 := cv.Eval(assign)
			got, err2 := min.Eval(assign)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("minterm %d: got %v (%v), want %v (%v)", m, got, err2, want, err1)
			}
		}
	})
}

// BenchmarkMinimizeExact measures the exact two-level minimizer alone, the
// tool body behind the simulated espresso and misII.
func BenchmarkMinimizeExact(b *testing.B) {
	for _, nIn := range []int{8, 12} {
		b.Run(fmt.Sprintf("in=%d", nIn), func(b *testing.B) {
			bh, err := ParseBehavior(GenBehavior(GenConfig{Seed: 3, Inputs: nIn, Outputs: 4, Depth: 5}))
			if err != nil {
				b.Fatal(err)
			}
			nw, err := bh.Synthesize()
			if err != nil {
				b.Fatal(err)
			}
			cv, err := nw.Collapse()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchCover, _ = cv.minimizeExact()
			}
		})
	}
}

var benchCover *Cover
