package retrasyn

// Benchmarks of the curator aggregation hot path: the bit-packed
// word-parallel fold (carry-save popcount network) against the sequential
// per-report index-list fold it replaced — plus the multi-shard Coordinator
// against a single pipeline instance. Run with
//
//	go test -bench 'Aggregation|Coordinator' -run - .
//
// RETRASYN_EMIT_BENCH=1 go test -run TestEmitBenchPipelineJSON .
// re-measures everything across a GOMAXPROCS sweep ∈ {1, 2, 4, NumCPU} and
// writes the results — with a reports/sec-per-core headline and the wire
// size of all four /v1/report batch encodings (sparse/packed × JSON/binary
// frame) — to BENCH_pipeline.json.
// RETRASYN_REQUIRE_MULTICORE=1 (set in CI) makes the emit fail on a
// single-CPU box, so the committed parallel numbers are never fiction.

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"retrasyn/internal/ldp"
	"retrasyn/internal/remote"
)

// benchReports is one paper-scale OUE round: 100k reporters over the K=6
// transition domain (|S| = 328).
const (
	benchReports = 100_000
	benchDomain  = 328
	benchEpsilon = 1.0
)

var benchRound struct {
	once    sync.Once
	oracle  *ldp.OUE
	reports [][]int
	packed  *ldp.PackedBatch
}

func benchRoundOnce() *ldp.OUE {
	benchRound.once.Do(func() {
		benchRound.oracle = ldp.MustOUE(benchDomain, benchEpsilon)
		rng := ldp.NewRand(1, 2)
		benchRound.reports = make([][]int, benchReports)
		benchRound.packed = ldp.NewPackedBatch(benchDomain, benchReports)
		for i := range benchRound.reports {
			// The packed batch holds the very same reports, so the sparse and
			// packed folds are directly comparable (and must agree exactly).
			benchRound.reports[i] = benchRound.oracle.Perturb(rng, i%benchDomain)
			p, err := ldp.PackReport(benchRound.reports[i], benchDomain)
			if err != nil {
				panic(err)
			}
			benchRound.packed.Append(p)
		}
	})
	return benchRound.oracle
}

func runOUESequential(b *testing.B) {
	oracle := benchRoundOnce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := ldp.NewAggregator(oracle)
		for _, r := range benchRound.reports {
			agg.Add(r)
		}
		agg.EstimateAll()
	}
}

func runOUEPacked(b *testing.B, workers int) {
	oracle := benchRoundOnce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := ldp.NewAggregator(oracle)
		agg.AddPackedBatch(benchRound.packed, workers)
		agg.EstimateAll()
	}
}

// BenchmarkOUEAggregationSequential folds one 100k-report round with the
// sequential per-report index-list loop the monolithic engine used.
func BenchmarkOUEAggregationSequential(b *testing.B) { runOUESequential(b) }

// BenchmarkOUEAggregationPacked folds the same round bit-packed through the
// word-parallel carry-save popcount network.
func BenchmarkOUEAggregationPacked(b *testing.B) { runOUEPacked(b, runtime.NumCPU()) }

// benchCoordinatorData caches the coordinator benchmark's input stream.
var benchCoordinatorData struct {
	once sync.Once
	orig *Dataset
	g    *Grid
}

func coordinatorDataOnce(b *testing.B) (*Dataset, *Grid) {
	benchCoordinatorData.once.Do(func() {
		raw, bounds, err := StandardDataset("tdrive", 0.3, 5)
		if err != nil {
			b.Fatal(err)
		}
		g, err := NewGrid(6, bounds)
		if err != nil {
			b.Fatal(err)
		}
		benchCoordinatorData.orig = Discretize(raw, g)
		benchCoordinatorData.g = g
	})
	return benchCoordinatorData.orig, benchCoordinatorData.g
}

func benchCoordinator(b *testing.B, shards int) {
	orig, g := coordinatorDataOnce(b)
	lambda := orig.Stats().AvgLength
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw, err := New(Options{
			Grid: g, Epsilon: 1.0, Window: 10,
			Lambda: lambda, Shards: shards, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fw.Run(orig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinator1Shard drives the full stream through a single
// sequential pipeline instance.
func BenchmarkCoordinator1Shard(b *testing.B) { benchCoordinator(b, 1) }

// BenchmarkCoordinatorPShards fans the same stream out across
// runtime.NumCPU() pipeline instances.
func BenchmarkCoordinatorPShards(b *testing.B) { benchCoordinator(b, runtime.NumCPU()) }

// gomaxprocsLevels is the emit sweep: 1, 2, 4 and NumCPU, deduplicated and
// ascending. Levels above NumCPU still run (the scheduler timeshares) so a
// sweep recorded on a small box is visibly labeled rather than silently
// truncated.
func gomaxprocsLevels() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	var levels []int
	for l := range set {
		levels = append(levels, l)
	}
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] < levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	return levels
}

// benchEntry is one measured configuration in BENCH_pipeline.json.
type benchEntry struct {
	Name       string  `json:"name"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	NsPerOp    float64 `json:"ns_per_op"`
	ReportsSec float64 `json:"reports_per_sec"`
	// ReportsSecPerCore divides throughput by the GOMAXPROCS it ran at — the
	// honest multi-core number: adding cores must earn its keep.
	ReportsSecPerCore float64 `json:"reports_per_sec_per_core"`
	Speedup           float64 `json:"speedup_vs_baseline,omitempty"`
	Baseline          string  `json:"baseline,omitempty"`
}

// TestEmitBenchPipelineJSON measures the aggregation and coordinator
// benchmarks across the GOMAXPROCS sweep and writes BENCH_pipeline.json.
// Gated behind RETRASYN_EMIT_BENCH so the regular suite stays fast.
func TestEmitBenchPipelineJSON(t *testing.T) {
	if os.Getenv("RETRASYN_EMIT_BENCH") == "" {
		t.Skip("set RETRASYN_EMIT_BENCH=1 to measure and write BENCH_pipeline.json")
	}
	if os.Getenv("RETRASYN_REQUIRE_MULTICORE") != "" && runtime.NumCPU() < 2 {
		t.Fatalf("RETRASYN_REQUIRE_MULTICORE is set but NumCPU=%d: refusing to record parallel numbers on a single-CPU box", runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	measure := func(name string, procs, workers, reports int, f func(*testing.B)) benchEntry {
		runtime.GOMAXPROCS(procs)
		// Best of three: one-shot testing.Benchmark readings on shared/cloud
		// CPUs swing enough to distort every speedup ratio in the file.
		ns := float64(testing.Benchmark(f).NsPerOp())
		for i := 0; i < 2; i++ {
			if n := float64(testing.Benchmark(f).NsPerOp()); n < ns {
				ns = n
			}
		}
		rps := float64(reports) / (ns / 1e9)
		return benchEntry{
			Name: name, GOMAXPROCS: procs, Workers: workers, NsPerOp: ns,
			ReportsSec: rps, ReportsSecPerCore: rps / float64(procs),
		}
	}
	rel := func(e *benchEntry, base benchEntry) {
		e.Speedup = base.NsPerOp / e.NsPerOp
		e.Baseline = base.Name
	}

	// The packed fold must be a re-encoding, not a re-randomization: pin
	// bit-identical estimates before trusting any throughput number.
	oracle := benchRoundOnce()
	seqAgg := ldp.NewAggregator(oracle)
	for _, r := range benchRound.reports {
		seqAgg.Add(r)
	}
	packedAgg := ldp.NewAggregator(oracle)
	packedAgg.AddPackedBatch(benchRound.packed, runtime.NumCPU())
	if !reflect.DeepEqual(seqAgg.EstimateAll(), packedAgg.EstimateAll()) {
		t.Fatal("packed fold estimates are not bit-identical to the sequential sparse fold")
	}

	levels := gomaxprocsLevels()
	var results []benchEntry

	seq := measure("OUEAggregationSequential/100k-reports", 1, 1, benchReports, runOUESequential)
	results = append(results, seq)
	var bestPacked benchEntry
	for _, l := range levels {
		l := l
		packed := measure("OUEAggregationPacked/100k-reports", l, l, benchReports, func(b *testing.B) { runOUEPacked(b, l) })
		rel(&packed, seq)
		results = append(results, packed)
		if packed.ReportsSec > bestPacked.ReportsSec {
			bestPacked = packed
		}
	}

	nCPU := runtime.NumCPU()
	coord1 := measure("Coordinator/1-shard", nCPU, 1, 0, BenchmarkCoordinator1Shard)
	coordP := measure("Coordinator/NumCPU-shards", nCPU, nCPU, 0, BenchmarkCoordinatorPShards)
	rel(&coordP, coord1)
	coord1.ReportsSec, coord1.ReportsSecPerCore = 0, 0
	coordP.ReportsSec, coordP.ReportsSecPerCore = 0, 0
	results = append(results, coord1, coordP)

	// Wire size of one 1000-report /v1/report batch, both encodings.
	wire := measureWireBytes(t)

	out := struct {
		NumCPU           int          `json:"num_cpu"`
		GOMAXPROCSLevels []int        `json:"gomaxprocs_levels"`
		Reports          int          `json:"reports"`
		Domain           int          `json:"domain"`
		Epsilon          float64      `json:"epsilon"`
		Headline         headlineJSON `json:"headline"`
		Wire             wireJSON     `json:"wire_bytes_per_1000_report_batch"`
		Results          []benchEntry `json:"results"`
	}{
		NumCPU:           nCPU,
		GOMAXPROCSLevels: levels,
		Reports:          benchReports,
		Domain:           benchDomain,
		Epsilon:          benchEpsilon,
		Headline: headlineJSON{
			Name:              bestPacked.Name,
			GOMAXPROCS:        bestPacked.GOMAXPROCS,
			ReportsSec:        bestPacked.ReportsSec,
			ReportsSecPerCore: bestPacked.ReportsSecPerCore,
			SpeedupVsSeq:      bestPacked.Speedup,
		},
		Wire:    wire,
		Results: results,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_pipeline.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("packed fold: ×%.1f vs sequential sparse (%.2fM reports/sec, %.2fM/sec/core at GOMAXPROCS=%d)",
		bestPacked.Speedup, bestPacked.ReportsSec/1e6, bestPacked.ReportsSecPerCore/1e6, bestPacked.GOMAXPROCS)
	t.Logf("wire: sparse %dB vs packed %dB per 1000-report batch (×%.1f smaller)",
		wire.SparseJSON, wire.PackedJSON, float64(wire.SparseJSON)/float64(wire.PackedJSON))
	t.Logf("wire: binary packed frame %dB = %.3f× packed JSON, %.3f× sparse JSON",
		wire.PackedBinary, wire.PackedBinaryOverPackedJSON, wire.PackedBinaryOverSparseJSON)

	if bestPacked.Speedup < 10 {
		t.Errorf("packed aggregation speedup ×%.2f below the ≥10× target", bestPacked.Speedup)
	}
	if nCPU > 1 && coordP.Speedup <= 1 {
		t.Errorf("multi-shard coordinator is not faster than one shard (×%.2f)", coordP.Speedup)
	}
	// Binary frame gates. The packed frame must shed all of base64+framing
	// (≤0.6× packed JSON leaves headroom over the 41/79 ≈ 0.52 raw-bits
	// floor) and crush the sparse JSON a pre-PR-6 client shipped (≤0.3× —
	// it measures ~0.12×). No gate asks for less than the report's entropy.
	if wire.PackedBinaryOverPackedJSON > 0.6 {
		t.Errorf("binary packed frame is %.3f× packed JSON, above the ≤0.6× target", wire.PackedBinaryOverPackedJSON)
	}
	if wire.PackedBinaryOverSparseJSON > 0.3 {
		t.Errorf("binary packed frame is %.3f× sparse JSON, above the ≤0.3× target", wire.PackedBinaryOverSparseJSON)
	}
	if wire.SparseBinary >= wire.SparseJSON {
		t.Errorf("binary sparse frame (%dB) is not smaller than sparse JSON (%dB)", wire.SparseBinary, wire.SparseJSON)
	}
}

type headlineJSON struct {
	Name              string  `json:"name"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	ReportsSec        float64 `json:"reports_per_sec"`
	ReportsSecPerCore float64 `json:"reports_per_sec_per_core"`
	SpeedupVsSeq      float64 `json:"speedup_vs_sequential_sparse"`
}

type wireJSON struct {
	SparseJSON   int     `json:"sparse_json"`
	PackedJSON   int     `json:"packed_json"`
	SparseBinary int     `json:"sparse_binary"`
	PackedBinary int     `json:"packed_binary"`
	Ratio        float64 `json:"sparse_over_packed"`
	// Binary packed vs the two JSON encodings. The packed-JSON ratio floors
	// near 0.75× ⌈d/8⌉/base64 arithmetic would suggest because an OUE report
	// is near-uniform noise by design: at ε=1 its Shannon entropy is ≈0.84
	// bits/bit, so raw bits (41 B at d=328) sit close to the
	// information-theoretic minimum (~34 B) and only the base64 and field
	// framing can be removed, never the randomness itself.
	PackedBinaryOverPackedJSON float64 `json:"packed_binary_over_packed_json"`
	PackedBinaryOverSparseJSON float64 `json:"packed_binary_over_sparse_json"`
}

// measureWireBytes marshals the same 1000-report batch as all four
// /v1/report encodings — sparse/packed × JSON/binary-frame — and records
// the body sizes.
func measureWireBytes(t *testing.T) wireJSON {
	t.Helper()
	benchRoundOnce()
	batch := make([]remote.BatchReport, 1000)
	for i := range batch {
		batch[i] = remote.BatchReport{User: i, Ones: benchRound.reports[i]}
	}
	packed, err := remote.PackReportBatch(batch, benchDomain)
	if err != nil {
		t.Fatal(err)
	}
	sparseBody, err := json.Marshal(struct {
		T       int                  `json:"t"`
		Reports []remote.BatchReport `json:"reports"`
	}{T: 0, Reports: batch})
	if err != nil {
		t.Fatal(err)
	}
	packedBody, err := json.Marshal(struct {
		T      int                        `json:"t"`
		Packed []remote.PackedBatchReport `json:"packed"`
	}{T: 0, Packed: packed})
	if err != nil {
		t.Fatal(err)
	}
	sparseFrame, err := remote.EncodeSparseReportFrame(0, batch)
	if err != nil {
		t.Fatal(err)
	}
	packedFrame, err := remote.EncodePackedReportFrame(0, benchDomain, packed)
	if err != nil {
		t.Fatal(err)
	}
	return wireJSON{
		SparseJSON:                 len(sparseBody),
		PackedJSON:                 len(packedBody),
		SparseBinary:               len(sparseFrame),
		PackedBinary:               len(packedFrame),
		Ratio:                      float64(len(sparseBody)) / float64(len(packedBody)),
		PackedBinaryOverPackedJSON: float64(len(packedFrame)) / float64(len(packedBody)),
		PackedBinaryOverSparseJSON: float64(len(packedFrame)) / float64(len(sparseBody)),
	}
}
