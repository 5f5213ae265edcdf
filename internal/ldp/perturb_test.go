package ldp

import (
	"math"
	"math/big"
	"math/bits"
	"reflect"
	"testing"
)

// Tests of the word-parallel perturbation kernel: bernoulliWord, the qfix it
// compares against, and the two report forms built on it.

// scriptedRand replays fixed words through Uint64 and counts the draws. The
// embedded Rand stays nil, so the kernel drawing anything but whole words
// panics.
type scriptedRand struct {
	Rand
	words []uint64
	next  int
}

func (s *scriptedRand) Uint64() uint64 {
	w := s.words[s.next]
	s.next++
	return w
}

// prefixWords scripts n levels in which lane j carries the n-bit string
// j mod 2ⁿ, most significant bit first: the 64 lanes enumerate every n-bit
// prefix 64/2ⁿ times.
func prefixWords(n int) []uint64 {
	words := make([]uint64, n)
	for level := range words {
		for lane := 0; lane < 64; lane++ {
			words[level] |= uint64(lane>>(n-1-level)&1) << lane
		}
	}
	return words
}

// TestBernoulliWordExactLaneCounts: with the lanes enumerating every prefix,
// exactly the lanes whose prefix is below q come out 1 — q·64 of them — and
// the kernel stops drawing once q has no bits left.
func TestBernoulliWordExactLaneCounts(t *testing.T) {
	for _, tc := range []struct {
		num, bits int // q = num / 2^bits
		draws     int // levels down to q's last 1-bit
	}{
		{3, 3, 3}, {5, 4, 4}, {1, 2, 2}, {4, 4, 2}, {1, 1, 1}, {15, 4, 4},
	} {
		for _, n := range []int{3, 4} {
			if n < tc.bits {
				continue
			}
			rng := &scriptedRand{words: prefixWords(n)}
			qfix := uint64(tc.num) << (64 - tc.bits)
			got := bernoulliWord(rng, qfix)
			var want uint64
			for lane := 0; lane < 64; lane++ {
				if lane%(1<<n) < tc.num<<(n-tc.bits) {
					want |= 1 << lane
				}
			}
			if got != want {
				t.Errorf("q=%d/2^%d over %d-bit prefixes: lanes %#x, want %#x", tc.num, tc.bits, n, got, want)
			}
			if ones := bits.OnesCount64(got); ones*(1<<tc.bits) != 64*tc.num {
				t.Errorf("q=%d/2^%d: %d lanes are 1, want q·64", tc.num, tc.bits, ones)
			}
			if rng.next != tc.draws {
				t.Errorf("q=%d/2^%d: %d draws, want %d", tc.num, tc.bits, rng.next, tc.draws)
			}
		}
	}
	if rng := (&scriptedRand{}); bernoulliWord(rng, 0) != 0 || rng.next != 0 {
		t.Error("q=0 must return no ones and draw nothing")
	}
}

// TestBernoulliWordTieIsZero: a lane whose 64 bits equal qfix's is not below
// it — it comes out 0 after level 64, where the kernel stops — while the lane
// that differs from it only by a final 0 against qfix's final 1 comes out 1.
func TestBernoulliWordTieIsZero(t *testing.T) {
	const qfix = 0x799af6c6b2824001
	words := make([]uint64, 64)
	for level := range words {
		qb := uint64(qfix >> (63 - level) & 1)
		words[level] = qb | qb<<2 // lanes 0 and 2 follow qfix
	}
	words[0] |= ^uint64(5) // every other lane opens with 1 against qfix's 0
	words[63] &^= 4        // lane 2 ends one below qfix
	rng := &scriptedRand{words: words}
	if got := bernoulliWord(rng, qfix); got != 4 {
		t.Fatalf("lanes %#x, want only lane 2", got)
	}
	if rng.next != 64 {
		t.Fatalf("%d draws, want 64", rng.next)
	}
}

// recordingRand passes a real source through and keeps the words drawn.
type recordingRand struct {
	Rand
	words []uint64
}

func (r *recordingRand) Uint64() uint64 {
	w := r.Rand.Uint64()
	r.words = append(r.words, w)
	return w
}

// TestBernoulliWordMatchesLaneCompare is the definition: lane j of the
// result is 1 iff the string lane j drew, read as a 64-bit number, is below
// qfix.
func TestBernoulliWordMatchesLaneCompare(t *testing.T) {
	seeds := NewRand(5, 8)
	for trial := 0; trial < 2000; trial++ {
		qfix := seeds.Uint64() >> 1
		switch trial % 4 {
		case 1:
			qfix &= ^uint64(0) << (seeds.IntN(64)) // short expansions
		case 2:
			qfix >>= seeds.IntN(63) // small q
		}
		rng := &recordingRand{Rand: NewRand(uint64(trial), 77)}
		got := bernoulliWord(rng, qfix)
		if len(rng.words) > 64 {
			t.Fatalf("qfix %#x: %d draws", qfix, len(rng.words))
		}
		for lane := 0; lane < 64; lane++ {
			var u uint64
			for level, w := range rng.words {
				u |= (w >> lane & 1) << (63 - level)
			}
			if want := u < qfix; want != (got>>lane&1 == 1) {
				t.Fatalf("qfix %#x lane %d drew %#x: bit %d, want %v", qfix, lane, u, got>>lane&1, want)
			}
		}
	}
}

// TestQfixRoundedUp: qfix is ⌈q·2⁶⁴⌉ — never below q·2⁶⁴, so the realised flip
// probability never falls short of q, and within 1 of it — and it does not
// grow with ε.
func TestQfixRoundedUp(t *testing.T) {
	two64 := new(big.Float).SetMantExp(big.NewFloat(1), 64)
	prev := uint64(1) << 63
	for _, eps := range []float64{1e-9, 0.01, 0.05, 0.1, 0.5, 1, 2, 4, 7, 7.6, 7.7, 8, 10, 16, 30, 43, 44.4, 50, 100, 700, 709, 710, 1000} {
		o := MustOUE(8, eps)
		exact := new(big.Float).SetPrec(200).Mul(new(big.Float).SetPrec(200).SetFloat64(o.q), two64)
		fix := new(big.Float).SetPrec(200).SetUint64(o.qfix)
		if fix.Cmp(exact) < 0 {
			t.Errorf("ε=%v: qfix %d is below q·2⁶⁴ = %s", eps, o.qfix, exact.Text('f', 3))
		}
		if over := new(big.Float).Sub(fix, exact); over.Cmp(big.NewFloat(1)) > 0 {
			t.Errorf("ε=%v: qfix %d is %s above q·2⁶⁴", eps, o.qfix, over.Text('f', 3))
		}
		if o.qfix >= 1<<63 {
			t.Errorf("ε=%v: qfix %#x is not below ½", eps, o.qfix)
		}
		if o.qfix > prev {
			t.Errorf("ε=%v: qfix %d grew from %d", eps, o.qfix, prev)
		}
		prev = o.qfix
	}
}

// TestPerturbIndexRates: over budgets, domains around the word boundaries
// and true indices on both sides of them, every index reports 1 at rate q —
// ½ at the true index — within 5σ.
func TestPerturbIndexRates(t *testing.T) {
	const reports = 6000
	for _, eps := range []float64{0.05, 0.1, 0.5, 1, 2, 4} {
		for _, d := range []int{1, 63, 64, 65, 328, 1024} {
			seen := map[int]bool{}
			for _, idx := range []int{0, 63, 64, d - 1} {
				if idx >= d || seen[idx] {
					continue
				}
				seen[idx] = true
				o := MustOUE(d, eps)
				rng := NewRand(uint64(d)<<8|uint64(idx), math.Float64bits(eps))
				agg := NewAggregator(o)
				row := make(PackedReport, PackedWords(d))
				for r := 0; r < reports; r++ {
					o.PerturbPackedInto(rng, idx, row)
					agg.AddPacked(row)
				}
				for i, c := range agg.counts {
					p := o.q
					if i == idx {
						p = 0.5
					}
					sd := math.Sqrt(p * (1 - p) / reports)
					if rate := float64(c) / reports; math.Abs(rate-p) > 5*sd {
						t.Errorf("ε=%v d=%d true=%d: index %d reports 1 at rate %.4f, want %.4f ± %.4f", eps, d, idx, i, rate, p, 5*sd)
					}
				}
			}
		}
	}
}

// TestPerturbLanesUncorrelated: the flips of neighbouring lanes, of the same
// lane in the next word and of the same lane in the next report are
// uncorrelated. Each statistic is Σ(x−q)(y−q) over the pairs, scaled to unit
// variance under independence.
func TestPerturbLanesUncorrelated(t *testing.T) {
	const d, idx, reports = 328, 100, 4000
	for _, eps := range []float64{0.1, 1, 4} {
		o := MustOUE(d, eps)
		rng := NewRand(9, math.Float64bits(eps))
		q := o.q
		dev := func(p PackedReport, i int) float64 {
			if p.Bit(i) {
				return 1 - q
			}
			return -q
		}
		var lane, word, next float64
		var nLane, nWord, nNext int
		prev := o.PerturbPacked(rng, idx)
		for r := 0; r < reports; r++ {
			cur := o.PerturbPacked(rng, idx)
			for i := 0; i < d; i++ {
				if i == idx {
					continue
				}
				x := dev(cur, i)
				if i+1 < d && i+1 != idx && (i+1)&63 != 0 {
					lane += x * dev(cur, i+1)
					nLane++
				}
				if i+64 < d && i+64 != idx {
					word += x * dev(cur, i+64)
					nWord++
				}
				next += x * dev(prev, i)
				nNext++
			}
			prev = cur
		}
		for _, s := range []struct {
			name string
			sum  float64
			n    int
		}{{"adjacent lanes", lane, nLane}, {"same lane, next word", word, nWord}, {"same lane, next report", next, nNext}} {
			if z := s.sum / (q * (1 - q) * math.Sqrt(float64(s.n))); math.Abs(z) > 5 {
				t.Errorf("ε=%v: %s correlate, z = %.2f over %d pairs", eps, s.name, z, s.n)
			}
		}
	}
}

// TestPerturbTailAndContract: for every domain size modulo 64 no bit at or
// beyond the domain is ever set, at a budget where half of them would be;
// whatever dst held is overwritten; a mis-sized dst and an out-of-domain
// index panic in both forms.
func TestPerturbTailAndContract(t *testing.T) {
	rng := NewRand(21, 22)
	for d := 1; d <= 200; d++ {
		o := MustOUE(d, 0.01)
		w := PackedWords(d)
		r1, r2 := NewRand(23, uint64(d)), NewRand(23, uint64(d))
		for r := 0; r < 40; r++ {
			idx := (r * 7) % d
			dirty := make(PackedReport, w)
			for g := range dirty {
				dirty[g] = ^uint64(0)
			}
			o.PerturbPackedInto(r1, idx, dirty)
			if tail := d & 63; tail != 0 && dirty[w-1]>>uint(tail) != 0 {
				t.Fatalf("d=%d: bits beyond the domain: last word %#x", d, dirty[w-1])
			}
			if clean := o.PerturbPacked(r2, idx); !reflect.DeepEqual(clean, dirty) {
				t.Fatalf("d=%d: a dirty dst changed the report", d)
			}
			for _, i := range o.Perturb(rng, idx) {
				if i < 0 || i >= d {
					t.Fatalf("d=%d: sparse report holds index %d", d, i)
				}
			}
		}
	}

	o := MustOUE(70, 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("short dst", func() { o.PerturbPackedInto(rng, 0, make(PackedReport, 1)) })
	mustPanic("long dst", func() { o.PerturbPackedInto(rng, 0, make(PackedReport, 3)) })
	for _, idx := range []int{-1, 70, 127, 128, 1 << 40} {
		mustPanic("packed out-of-domain index", func() { o.PerturbPackedInto(rng, idx, make(PackedReport, 2)) })
		mustPanic("sparse out-of-domain index", func() { o.Perturb(rng, idx) })
	}
}

// TestPerturbFormsShareTheStream extends TestPerturbPackedMatchesSparse past
// the sparse form's stack buffer: for domains on both sides of 1024 states
// the two forms return the same report and leave the source at the same
// position.
func TestPerturbFormsShareTheStream(t *testing.T) {
	for _, d := range []int{1023, 1024, 1025, 2500} {
		o := MustOUE(d, 0.5)
		r1, r2 := NewSource(3, uint64(d)), NewSource(3, uint64(d))
		for i := 0; i < 50; i++ {
			idx := (i * 131) % d
			if sparse, packed := o.Perturb(r1, idx), o.PerturbPacked(r2, idx).Ones(); !reflect.DeepEqual(sparse, packed) {
				t.Fatalf("d=%d report %d: sparse and packed forms differ", d, i)
			}
		}
		if a, b := r1.Uint64(), r2.Uint64(); a != b {
			t.Fatalf("d=%d: the forms left the stream at different positions", d)
		}
	}
}

// TestPerturbPackedIntoAllocatesNothing pins the packed form's zero
// allocations per report.
func TestPerturbPackedIntoAllocatesNothing(t *testing.T) {
	o := MustOUE(328, 0.1)
	rng := NewSource(1, 2)
	dst := make(PackedReport, PackedWords(328))
	if n := testing.AllocsPerRun(200, func() { o.PerturbPackedInto(rng, 17, dst) }); n != 0 {
		t.Fatalf("PerturbPackedInto allocates %v times per report", n)
	}
}
