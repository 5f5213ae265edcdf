package ldp

import (
	"fmt"
	"math/bits"
)

// Bit-packed OUE reports. An OUE report is a 0/1 vector over the domain, so
// it packs into ⌈d/64⌉ machine words; the curator can then fold a whole
// round with a word-parallel carry-save counter network (see popcountFold)
// instead of chasing one index at a time. At paper scale (10⁵–10⁶ reports
// per round) the packed fold runs at memory bandwidth — an order of
// magnitude faster than the per-index fold Aggregator.Add — while producing
// bit-identical counts. Every report the program perturbs, ships and folds
// is a packed row.

// PackedWords returns the number of 64-bit words a packed report over a
// domain of the given size occupies: ⌈domain/64⌉.
func PackedWords(domain int) int { return (domain + 63) / 64 }

// PackedBytes returns the wire size of a packed report: ⌈domain/8⌉ bytes.
func PackedBytes(domain int) int { return (domain + 7) / 8 }

// PackedReport is a dense OUE report: bit i (word i/64, bit i%64) is the
// perturbed bit for domain index i. Bits at or beyond the domain size must
// stay zero — the fold counts every set bit it sees.
type PackedReport []uint64

// Bit reports whether index i is set. i must be within the report's words.
func (p PackedReport) Bit(i int) bool { return p[i>>6]&(1<<uint(i&63)) != 0 }

// SetBit sets index i. i must be within the report's words.
func (p PackedReport) SetBit(i int) { p[i>>6] |= 1 << uint(i&63) }

// OnesCount returns the number of set bits.
func (p PackedReport) OnesCount() int {
	n := 0
	for _, w := range p {
		n += bits.OnesCount64(w)
	}
	return n
}

// Ones unpacks the report into the ascending indices of its set bits — the
// index list Aggregator.Add consumes.
func (p PackedReport) Ones() []int {
	ones := make([]int, p.OnesCount())
	k := 0
	for g, w := range p {
		base := g << 6
		for ; w != 0; w &= w - 1 {
			ones[k] = base + bits.TrailingZeros64(w)
			k++
		}
	}
	return ones
}

// PackReport converts an index list (indices of 1-bits, any order) into a
// packed report for the domain. An OUE report names each index at most once,
// so an out-of-domain or repeated index is rejected with an error naming it —
// this is the validation boundary the curator relies on.
func PackReport(ones []int, domain int) (PackedReport, error) {
	p := make(PackedReport, PackedWords(domain))
	for _, i := range ones {
		if i < 0 || i >= domain {
			return nil, fmt.Errorf("ldp: report bit %d outside domain [0, %d)", i, domain)
		}
		p.SetBit(i)
	}
	if p.OnesCount() != len(ones) {
		// A repeat collapsed into one bit; walk again to name it.
		seen := make(PackedReport, len(p))
		for _, i := range ones {
			if seen.Bit(i) {
				return nil, fmt.Errorf("ldp: report bit %d repeated", i)
			}
			seen.SetBit(i)
		}
	}
	return p, nil
}

// Bytes serializes the report little-endian into ⌈domain/8⌉ bytes — the
// packed wire format. The receiving side decodes with UnpackReportBytes.
func (p PackedReport) Bytes(domain int) []byte {
	out := make([]byte, PackedBytes(domain))
	for i := range out {
		out[i] = byte(p[i>>3] >> uint((i&7)*8))
	}
	return out
}

// UnpackReportBytes decodes a little-endian packed report off the wire,
// rejecting payloads of the wrong length and payloads with bits set at or
// beyond the domain size (which would corrupt — or, unchecked, panic — the
// curator's fold).
func UnpackReportBytes(data []byte, domain int) (PackedReport, error) {
	if len(data) != PackedBytes(domain) {
		return nil, fmt.Errorf("ldp: packed report is %d bytes, want %d for domain %d", len(data), PackedBytes(domain), domain)
	}
	p := make(PackedReport, PackedWords(domain))
	for i, b := range data {
		p[i>>3] |= uint64(b) << uint((i&7)*8)
	}
	if tail := domain & 63; tail != 0 {
		if p[len(p)-1]&^(1<<uint(tail)-1) != 0 {
			return nil, fmt.Errorf("ldp: packed report has bits set beyond domain %d", domain)
		}
	}
	return p, nil
}

// UnpackReportBytesInto is UnpackReportBytes decoding into a caller-owned
// all-zero report (e.g. a PackedBatch.Grow row), so a wire batch streams
// straight into the fold buffer with no per-report allocation or copy. dst
// must have PackedWords(domain) words; validation matches
// UnpackReportBytes. On error dst may hold a partial decode — callers
// discard the batch on error, so no row is ever folded.
func UnpackReportBytesInto(data []byte, domain int, dst PackedReport) error {
	if len(dst) != PackedWords(domain) {
		panic(fmt.Sprintf("ldp: UnpackReportBytesInto dst has %d words, want %d", len(dst), PackedWords(domain)))
	}
	if len(data) != PackedBytes(domain) {
		return fmt.Errorf("ldp: packed report is %d bytes, want %d for domain %d", len(data), PackedBytes(domain), domain)
	}
	for i, b := range data {
		dst[i>>3] |= uint64(b) << uint((i&7)*8)
	}
	if tail := domain & 63; tail != 0 {
		if dst[len(dst)-1]&^(1<<uint(tail)-1) != 0 {
			return fmt.Errorf("ldp: packed report has bits set beyond domain %d", domain)
		}
	}
	return nil
}

// PerturbPacked is PerturbPackedInto into a fresh report. It consumes the
// random stream exactly as Perturb does, so the same seed yields the same
// report in either form.
func (o *OUE) PerturbPacked(rng Rand, trueIdx int) PackedReport {
	p := make(PackedReport, PackedWords(o.domain))
	o.PerturbPackedInto(rng, trueIdx, p)
	return p
}

// PerturbPackedInto perturbs into a caller-owned report (e.g. a
// PackedBatch.Grow row), avoiding the per-report allocation; dst must have
// PackedWords(domain) words and is overwritten. Every word is 64 q-coins
// drawn at once (bernoulliWord), the tail beyond the domain is masked off and
// the true bit replaced by a fair coin: ~7·⌈d/64⌉+1 draws whatever ε.
func (o *OUE) PerturbPackedInto(rng Rand, trueIdx int, dst PackedReport) {
	if len(dst) != PackedWords(o.domain) {
		panic(fmt.Sprintf("ldp: PerturbPackedInto dst has %d words, want %d", len(dst), PackedWords(o.domain)))
	}
	if trueIdx < 0 || trueIdx >= o.domain {
		panic(fmt.Sprintf("ldp: OUE.Perturb index %d out of domain %d", trueIdx, o.domain))
	}
	for g := range dst {
		dst[g] = bernoulliWord(rng, o.qfix)
	}
	if tail := o.domain & 63; tail != 0 {
		dst[len(dst)-1] &= 1<<uint(tail) - 1
	}
	g, b := trueIdx>>6, uint(trueIdx&63)
	dst[g] = dst[g]&^(1<<b) | rng.Uint64()>>63<<b
}

// ExpectedOnes returns the expected number of 1-bits in one OUE report:
// ½ + (d−1)·q, the true bit's coin plus the background flips.
func ExpectedOnes(domain int, eps float64) float64 {
	o := MustOUE(domain, eps)
	return 0.5 + float64(domain-1)*o.q
}

// PreferPacked reports whether a packed report is no larger than the index
// list for a round at this domain size and budget. It is a size comparison
// only; the program no longer branches on it — every report is a packed row.
// An index list holds one machine word per expected 1-bit (½+(d−1)q of
// them); the packed report always holds ⌈d/64⌉ words, so packed is smaller
// when the expected ones-rate exceeds one per 64 indices — for OUE that is
// q ≥ ~1/64, i.e. ε ≲ ln 63 ≈ 4.1, essentially every realistic budget.
func PreferPacked(domain int, eps float64) bool {
	return float64(PackedWords(domain)) <= ExpectedOnes(domain, eps)
}

// PackedBatch is one collection round's packed reports in a single
// contiguous buffer (row r occupies words [r·W, (r+1)·W)), the layout the
// word-parallel fold streams through once, cache-line by cache-line.
type PackedBatch struct {
	domain int
	words  int
	data   []uint64
}

// NewPackedBatch creates an empty batch for the domain, pre-sizing for
// capacity reports.
func NewPackedBatch(domain, capacity int) *PackedBatch {
	if domain <= 0 {
		panic(fmt.Sprintf("ldp: PackedBatch domain must be positive, got %d", domain))
	}
	w := PackedWords(domain)
	if capacity < 0 {
		capacity = 0
	}
	return &PackedBatch{domain: domain, words: w, data: make([]uint64, 0, capacity*w)}
}

// Domain returns the batch's domain size.
func (b *PackedBatch) Domain() int { return b.domain }

// Words returns the per-report word count ⌈domain/64⌉.
func (b *PackedBatch) Words() int { return b.words }

// Len returns the number of reports in the batch.
func (b *PackedBatch) Len() int { return len(b.data) / b.words }

// Grow appends an all-zero report and returns it for in-place filling
// (PerturbPackedInto writes straight into the batch, no copy).
func (b *PackedBatch) Grow() PackedReport {
	n := len(b.data)
	b.data = append(b.data, make([]uint64, b.words)...)
	return PackedReport(b.data[n : n+b.words])
}

// Append copies a packed report into the batch. The report must have the
// batch's word count.
func (b *PackedBatch) Append(p PackedReport) {
	if len(p) != b.words {
		panic(fmt.Sprintf("ldp: Append report has %d words, batch wants %d", len(p), b.words))
	}
	b.data = append(b.data, p...)
}

// Report returns a view of report r (aliasing the batch buffer).
func (b *PackedBatch) Report(r int) PackedReport {
	return PackedReport(b.data[r*b.words : (r+1)*b.words])
}

// AddPacked ingests one packed report, identical to Add(p.Ones()).
func (a *Aggregator) AddPacked(p PackedReport) {
	if len(p) != PackedWords(len(a.counts)) {
		panic(fmt.Sprintf("ldp: AddPacked report has %d words, domain %d wants %d", len(p), len(a.counts), PackedWords(len(a.counts))))
	}
	for g, w := range p {
		base := g << 6
		for w != 0 {
			a.counts[base+bits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
	a.n++
}

// csa is a carry-save full adder over bit-planes: it sums three words of
// equal weight into a same-weight sum plane and a double-weight carry plane.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// foldEpochRows bounds how many rows one counter-network epoch may absorb
// before flushing into the integer counts: the weight-16 overflow planes
// saturate after 2¹⁶−1 sixteens, i.e. 16·(2¹⁶−1) ≈ 1.05M rows. 2¹⁹ leaves
// a ×2 margin.
const foldEpochRows = 1 << 19

// foldSuperRows is the cache superblock: the word-group loop runs outside
// the row loop within one superblock, so the weight planes live in
// registers for superRows/16 consecutive CSA blocks while the superblock's
// rows (superRows·w words ≤ ~24KB for paper-scale domains) stay L1-hot
// across the w passes. Must be a multiple of 16.
const foldSuperRows = 512

// popcountFold adds the per-index one-counts of rows [lo, hi) of a packed
// buffer (w words per row) into counts — positional popcount via a
// Harley–Seal carry-save network: 16 rows at a time are compressed into
// persistent weight-1/2/4/8 bit-planes, weight-16 carries spill into an
// overflow plane stack, and the planes flush into the integer counts at
// epoch boundaries. One pass over the buffer, ~5 ALU ops per word, no
// branches in the hot loop except the (rare) carry spill.
func popcountFold(counts []int, data []uint64, w, lo, hi int) {
	if w <= 0 || lo >= hi {
		return
	}
	// Per-word-group persistent planes: weight 1, 2, 4, 8, then 16·2^k
	// overflow planes (16 per group), allocated flat.
	ones := make([]uint64, w)
	twos := make([]uint64, w)
	fours := make([]uint64, w)
	eights := make([]uint64, w)
	over := make([]uint64, w*16)

	flush := func() {
		for g := 0; g < w; g++ {
			base := g << 6
			ov := over[g*16 : g*16+16]
			for j := 0; j < 64 && base+j < len(counts); j++ {
				c := int(ones[g]>>uint(j)&1) +
					int(twos[g]>>uint(j)&1)<<1 +
					int(fours[g]>>uint(j)&1)<<2 +
					int(eights[g]>>uint(j)&1)<<3
				for k := 0; k < 16; k++ {
					c += int(ov[k]>>uint(j)&1) << uint(4+k)
				}
				counts[base+j] += c
			}
		}
		for i := range ones {
			ones[i], twos[i], fours[i], eights[i] = 0, 0, 0, 0
		}
		for i := range over {
			over[i] = 0
		}
	}

	for epoch := lo; epoch < hi; epoch += foldEpochRows {
		end := epoch + foldEpochRows
		if end > hi {
			end = hi
		}
		r := epoch
		full := r + (end-r)&^15 // last 16-row block boundary in this epoch
		for sb := r; sb < full; sb += foldSuperRows {
			se := sb + foldSuperRows
			if se > full {
				se = full
			}
			for g := 0; g < w; g++ {
				o, t, f, e := ones[g], twos[g], fours[g], eights[g]
				ov := over[g*16 : g*16+16]
				for rr := sb; rr < se; rr += 16 {
					// Slicing exactly to the block's highest strided index
					// lets one bounds check cover d[15*w]; counting is
					// commutative, so the rows may enter the adder network
					// highest-first.
					q := rr*w + g
					d := data[q : q+15*w+1]
					var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteen uint64
					o, twosA = csa(o, d[15*w], d[14*w])
					o, twosB = csa(o, d[13*w], d[12*w])
					t, foursA = csa(t, twosA, twosB)
					o, twosA = csa(o, d[11*w], d[10*w])
					o, twosB = csa(o, d[9*w], d[8*w])
					t, foursB = csa(t, twosA, twosB)
					f, eightsA = csa(f, foursA, foursB)
					o, twosA = csa(o, d[7*w], d[6*w])
					o, twosB = csa(o, d[5*w], d[4*w])
					t, foursA = csa(t, twosA, twosB)
					o, twosA = csa(o, d[3*w], d[2*w])
					o, twosB = csa(o, d[w], d[0])
					t, foursB = csa(t, twosA, twosB)
					f, eightsB = csa(f, foursA, foursB)
					e, sixteen = csa(e, eightsA, eightsB)
					// Spill the weight-16 carry into the overflow plane
					// stack; the carry chain dies off geometrically, so this
					// loop runs ~once per block.
					c := sixteen
					for k := 0; c != 0; k++ {
						s := ov[k] & c
						ov[k] ^= c
						c = s
					}
				}
				ones[g], twos[g], fours[g], eights[g] = o, t, f, e
			}
		}
		r = full
		// Tail rows (< 16): fold per-bit straight into the counts.
		for ; r < end; r++ {
			p := r * w
			for g := 0; g < w; g++ {
				x := data[p+g]
				base := g << 6
				for x != 0 {
					counts[base+bits.TrailingZeros64(x)]++
					x &= x - 1
				}
			}
		}
		flush()
	}
}
