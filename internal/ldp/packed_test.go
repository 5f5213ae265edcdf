package ldp

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestPackedRoundTrip checks sparse↔packed↔bytes round-trips exactly for
// random domains, including domains that are not multiples of 64.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	domains := []int{1, 2, 63, 64, 65, 127, 128, 129, 328, 1000}
	for i := 0; i < 50; i++ {
		domains = append(domains, 1+rng.IntN(2048))
	}
	for _, d := range domains {
		// Random sparse report (unsorted, like Perturb's output order).
		n := rng.IntN(d + 1)
		ones := make([]int, 0, n)
		seen := make(map[int]bool)
		for len(ones) < n {
			v := rng.IntN(d)
			if !seen[v] {
				seen[v] = true
				ones = append(ones, v)
			}
		}
		rng.Shuffle(len(ones), func(a, b int) { ones[a], ones[b] = ones[b], ones[a] })

		p, err := PackReport(ones, d)
		if err != nil {
			t.Fatalf("domain %d: PackReport: %v", d, err)
		}
		if p.OnesCount() != len(ones) {
			t.Fatalf("domain %d: OnesCount %d, want %d", d, p.OnesCount(), len(ones))
		}
		back := p.Ones()
		want := append([]int{}, ones...)
		sort.Ints(want)
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("domain %d: Ones round-trip = %v, want %v", d, back, want)
		}
		for _, i := range ones {
			if !p.Bit(i) {
				t.Fatalf("domain %d: bit %d not set", d, i)
			}
		}

		// Wire round-trip.
		wire := p.Bytes(d)
		if len(wire) != PackedBytes(d) {
			t.Fatalf("domain %d: wire size %d, want %d", d, len(wire), PackedBytes(d))
		}
		q, err := UnpackReportBytes(wire, d)
		if err != nil {
			t.Fatalf("domain %d: UnpackReportBytes: %v", d, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("domain %d: wire round-trip mismatch", d)
		}
		if !bytes.Equal(q.Bytes(d), wire) {
			t.Fatalf("domain %d: re-serialization mismatch", d)
		}
	}
}

func TestPackReportRejectsOutOfDomain(t *testing.T) {
	for _, bad := range [][]int{{-1}, {5}, {0, 4, 5}, {1 << 30}} {
		if _, err := PackReport(bad, 5); err == nil {
			t.Errorf("PackReport(%v, 5) accepted an out-of-domain index", bad)
		}
	}
	// An OUE report names each index at most once: a repeat is rejected,
	// not collapsed, and the error names the index.
	for want, rep := range map[string][]int{"bit 2 repeated": {2, 2, 2}, "bit 4 repeated": {0, 4, 1, 4}} {
		if _, err := PackReport(rep, 5); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("PackReport(%v, 5) = %v, want %q", rep, err, want)
		}
	}
}

func TestUnpackReportBytesRejectsMalformed(t *testing.T) {
	// Wrong length.
	if _, err := UnpackReportBytes(make([]byte, 4), 70); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := UnpackReportBytes(make([]byte, 100), 70); err == nil {
		t.Error("long payload accepted")
	}
	// Trailing bits beyond the domain set.
	data := make([]byte, PackedBytes(70))
	data[8] = 0xFF // bits 64..71, but domain ends at 70
	if _, err := UnpackReportBytes(data, 70); err == nil {
		t.Error("payload with bits beyond the domain accepted")
	}
	// Exactly the last valid bit is fine.
	data[8] = 1 << 5 // bit 69
	if _, err := UnpackReportBytes(data, 70); err != nil {
		t.Errorf("last valid bit rejected: %v", err)
	}
}

// TestPerturbPackedMatchesSparse pins the tentpole's bit-identity
// foundation: PerturbPacked consumes the random stream exactly as Perturb
// does, so the same seed yields the same report either way.
func TestPerturbPackedMatchesSparse(t *testing.T) {
	for _, d := range []int{1, 7, 64, 100, 328} {
		for _, eps := range []float64{0.5, 1.0, 4.0} {
			o := MustOUE(d, eps)
			r1 := NewRand(42, uint64(d))
			r2 := NewRand(42, uint64(d))
			for i := 0; i < 200; i++ {
				idx := i % d
				sparse := o.Perturb(r1, idx)
				packed := o.PerturbPacked(r2, idx)
				want, err := PackReport(sparse, d)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(packed, want) {
					t.Fatalf("d=%d ε=%v report %d: packed %v ≠ packed(sparse) %v", d, eps, i, packed, want)
				}
			}
		}
	}
}

// TestPackedFoldBitIdentical is the acceptance-criteria pin: folding a
// round through AddPackedBatch produces counts — and therefore debiased
// estimates — bit-for-bit identical to the sequential per-report Add fold,
// across every shard count, for domains that are and are not multiples of
// 64 and for rounds larger than one counter-network epoch block.
func TestPackedFoldBitIdentical(t *testing.T) {
	cases := []struct {
		domain  int
		reports int
		eps     float64
	}{
		{domain: 17, reports: 3000, eps: 1.0},
		{domain: 64, reports: 1000, eps: 0.5},
		{domain: 328, reports: 5000, eps: 1.0},
		{domain: 130, reports: 40, eps: 2.0}, // smaller than one 16-row block multiple
	}
	for _, tc := range cases {
		o := MustOUE(tc.domain, tc.eps)
		rng := NewRand(7, uint64(tc.domain))
		batch := NewPackedBatch(tc.domain, tc.reports)
		seq := NewAggregator(o)
		for i := 0; i < tc.reports; i++ {
			o.PerturbPackedInto(rng, i%tc.domain, batch.Grow())
			seq.Add(batch.Report(i).Ones())
		}
		wantEst := seq.EstimateAll()
		for _, workers := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
			agg := NewAggregator(o)
			agg.AddPackedBatch(batch, workers)
			if agg.N() != seq.N() {
				t.Fatalf("d=%d workers=%d: N=%d want %d", tc.domain, workers, agg.N(), seq.N())
			}
			if !reflect.DeepEqual(agg.Counts(), seq.Counts()) {
				t.Fatalf("d=%d workers=%d: packed fold counts differ from sequential Add", tc.domain, workers)
			}
			if !reflect.DeepEqual(agg.EstimateAll(), wantEst) {
				t.Fatalf("d=%d workers=%d: estimates not bit-identical", tc.domain, workers)
			}
		}
		// The per-report packed path too.
		one := NewAggregator(o)
		for i := 0; i < tc.reports; i++ {
			one.AddPacked(batch.Report(i))
		}
		if !reflect.DeepEqual(one.Counts(), seq.Counts()) {
			t.Fatalf("d=%d: AddPacked counts differ from Add", tc.domain)
		}
	}
}

// TestPackedFoldSharding forces the sharded path (round above the sharding
// threshold) under multiple worker counts — run under -race in CI.
func TestPackedFoldSharding(t *testing.T) {
	const domain, reports = 90, shardMinPackedReports + 100
	o := MustOUE(domain, 1.0)
	rng := NewRand(3, 4)
	batch := NewPackedBatch(domain, reports)
	want := make([]int, domain)
	for i := 0; i < reports; i++ {
		row := batch.Grow()
		o.PerturbPackedInto(rng, i%domain, row)
		for _, j := range row.Ones() {
			want[j]++
		}
	}
	for _, workers := range []int{2, 4, 8} {
		agg := NewAggregator(o)
		agg.AddPackedBatch(batch, workers)
		if !reflect.DeepEqual(agg.Counts(), want) {
			t.Fatalf("workers=%d: sharded packed fold mismatch", workers)
		}
	}
}

// TestPopcountFoldEpochBoundary drives the fold across the counter-network
// epoch flush with a deterministic dense pattern (all-ones reports), so the
// overflow-plane arithmetic is exercised at depth.
func TestPopcountFoldEpochBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("epoch boundary fold is slow in -short mode")
	}
	const domain = 3
	rows := foldEpochRows + 31 // one full epoch plus a partial block + tail
	w := PackedWords(domain)
	data := make([]uint64, rows*w)
	for r := 0; r < rows; r++ {
		data[r*w] = 0b111
	}
	counts := make([]int, domain)
	popcountFold(counts, data, w, 0, rows)
	for i, c := range counts {
		if c != rows {
			t.Fatalf("counts[%d] = %d, want %d", i, c, rows)
		}
	}
}

func TestPreferPackedCrossover(t *testing.T) {
	// ε=1 on the paper's K=6 domain: ~88 expected ones vs 6 words — packed.
	if !PreferPacked(328, 1.0) {
		t.Error("PreferPacked(328, 1.0) = false, want true")
	}
	// Very high budget → near-one-hot reports → sparse wins.
	if PreferPacked(328, 8.0) {
		t.Error("PreferPacked(328, 8.0) = true, want false")
	}
	// Tiny domains fit in one word either way; expected ones ≥ 1/2 + q·(d−1)
	// against a single word: packed only when dense enough.
	if !PreferPacked(64, 0.5) {
		t.Error("PreferPacked(64, 0.5) = false, want true")
	}
}

// FuzzUnpackReportBytes fuzzes the packed-report wire decoder: arbitrary
// payloads must either decode into a report whose bits all lie inside the
// domain and re-serialize onto the same bytes, or be rejected — never panic.
func FuzzUnpackReportBytes(f *testing.F) {
	f.Add([]byte{0x00}, 5)
	f.Add([]byte{0x1F}, 5)
	f.Add([]byte{0xFF}, 5)
	f.Add(make([]byte, 41), 328)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, domain int) {
		if domain < 0 || domain > 1<<16 {
			return
		}
		p, err := UnpackReportBytes(data, domain)
		if err != nil {
			return
		}
		for _, i := range p.Ones() {
			if i < 0 || i >= domain {
				t.Fatalf("decoded bit %d outside domain %d", i, domain)
			}
		}
		if !bytes.Equal(p.Bytes(domain), data) {
			t.Fatalf("accepted payload does not round-trip")
		}
	})
}

// TestUnpackReportBytesIntoMatches pins the zero-copy wire decode against
// the allocating one: identical bits for every payload, identical
// rejections for every malformed one, and a panic (not corruption) when
// the destination row is mis-sized.
func TestUnpackReportBytesIntoMatches(t *testing.T) {
	const domain = 70
	rng := NewRand(41, 5)
	batch := NewPackedBatch(domain, 8)
	for i := 0; i < 8; i++ {
		p := make(PackedReport, PackedWords(domain))
		for j := 0; j < domain; j++ {
			if rng.Float64() < 0.3 {
				p.SetBit(j)
			}
		}
		data := p.Bytes(domain)
		want, err := UnpackReportBytes(data, domain)
		if err != nil {
			t.Fatal(err)
		}
		row := batch.Grow()
		if err := UnpackReportBytesInto(data, domain, row); err != nil {
			t.Fatal(err)
		}
		for g := range want {
			if row[g] != want[g] {
				t.Fatalf("report %d word %d: %#x != %#x", i, g, row[g], want[g])
			}
		}
	}

	dst := make(PackedReport, PackedWords(domain))
	if err := UnpackReportBytesInto(make([]byte, 4), domain, dst); err == nil {
		t.Error("short payload accepted")
	}
	bad := make([]byte, PackedBytes(domain))
	bad[8] = 0xFF // bits 64..71, domain ends at 70
	if err := UnpackReportBytesInto(bad, domain, make(PackedReport, PackedWords(domain))); err == nil {
		t.Error("payload with bits beyond the domain accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("mis-sized destination did not panic")
		}
	}()
	UnpackReportBytesInto(make([]byte, PackedBytes(domain)), domain, make(PackedReport, 1))
}
