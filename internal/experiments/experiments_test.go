package experiments

import (
	"strings"
	"testing"

	"retrasyn/internal/metrics"
)

// tinyParams keeps experiment tests fast: very small populations, few
// queries, coarse grid.
func tinyParams() Params {
	p := DefaultParams()
	p.Scale = 0.03
	p.W = 5
	p.K = 4
	p.BestOf = false
	p.Seed = 77
	return p
}

func TestEnvDatasetCaching(t *testing.T) {
	e := NewEnv(tinyParams())
	a, err := e.Dataset("TDriveSim", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Dataset("TDriveSim", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not cached")
	}
	c, err := e.Dataset("TDriveSim", 6)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different K returned same discretization")
	}
	if _, err := e.Dataset("Nope", 4); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestMethodProperties(t *testing.T) {
	if len(ComparedMethods()) != 6 || len(AblationMethods()) != 6 {
		t.Fatal("method list sizes")
	}
	for _, m := range ComparedMethods()[:4] {
		if !m.IsBaseline() {
			t.Errorf("%v should be a baseline", m)
		}
	}
	if MethodRetraSynB.IsBaseline() || MethodRetraSynP.IsBaseline() {
		t.Error("RetraSyn flagged as baseline")
	}
	names := map[string]bool{}
	for _, m := range append(ComparedMethods(), AblationMethods()...) {
		names[m.String()] = true
	}
	for _, want := range []string{"LBD", "LBA", "LPD", "LPA", "RetraSynB", "RetraSynP", "AllUpdateB", "NoEQP"} {
		if !names[want] {
			t.Errorf("missing method name %q", want)
		}
	}
}

func TestMergeBest(t *testing.T) {
	a := metrics.Report{DensityError: 0.5, HotspotNDCG: 0.3, QueryError: 0.9}
	b := metrics.Report{DensityError: 0.7, HotspotNDCG: 0.6, QueryError: 0.4}
	m := mergeBest(a, b)
	if m.DensityError != 0.5 {
		t.Errorf("DensityError = %v", m.DensityError)
	}
	if m.HotspotNDCG != 0.6 {
		t.Errorf("HotspotNDCG = %v", m.HotspotNDCG)
	}
	if m.QueryError != 0.4 {
		t.Errorf("QueryError = %v", m.QueryError)
	}
}

func TestMetricValueRoundTrip(t *testing.T) {
	r := metrics.Report{}
	for i, m := range AllMetrics() {
		setMetric(&r, m, float64(i)+1)
	}
	for i, m := range AllMetrics() {
		if got := MetricValue(r, m); got != float64(i)+1 {
			t.Errorf("%s = %v, want %v", m, got, float64(i)+1)
		}
	}
}

func TestRunAllMethodsSmoke(t *testing.T) {
	e := NewEnv(tinyParams())
	d, err := e.Dataset("TDriveSim", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(ComparedMethods(), AblationMethods()[:4]...) {
		res, err := Run(RunSpec{
			Method: m, Epsilon: 1.0, W: 5, Seed: 3, Oracle: e.Params.OracleMode,
		}, d)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := res.Syn.Validate(d.Grid, true); err != nil {
			t.Fatalf("%v: invalid synthetic output: %v", m, err)
		}
		if m.IsBaseline() && res.CoreStats != nil {
			t.Fatalf("%v: baseline reported core stats", m)
		}
		if !m.IsBaseline() && res.CoreStats == nil {
			t.Fatalf("%v: missing core stats", m)
		}
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	e := NewEnv(tinyParams())
	d, _ := e.Dataset("TDriveSim", 4)
	if _, err := Run(RunSpec{Method: MethodRetraSynP, Strategy: "bogus", Epsilon: 1, W: 5}, d); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bogus strategy: error %v does not name it", err)
	}
}

func TestTable1(t *testing.T) {
	e := NewEnv(tinyParams())
	tab, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Stats.Size == 0 || r.Stats.NumPoints == 0 {
			t.Fatalf("empty dataset in Table 1: %+v", r)
		}
	}
	s := tab.String()
	for _, want := range []string{"TDriveSim", "OldenburgSim", "SanJoaquinSim", "AvgLength"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	tab, err := e.Table3([]float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Datasets {
		for _, m := range tab.Methods {
			r, ok := tab.Values[ds][m][1.0]
			if !ok {
				t.Fatalf("missing cell %s/%v", ds, m)
			}
			if r.DensityError < 0 || r.DensityError > metrics.Ln2+1e-9 {
				t.Fatalf("%s/%v density error out of range: %v", ds, m, r.DensityError)
			}
		}
	}
	out := tab.String()
	for _, want := range []string{"Density Error", "RetraSynP", "LBD", "Kendall"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 output missing %q", want)
		}
	}
}

func TestTable4Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	tab, err := e.Table4()
	if err != nil {
		t.Fatal(err)
	}
	// NoEQ variants must show the near-ln2 length-error signature. (It is
	// exactly ln2 only when no real stream spans the whole timeline; the
	// scaled Oldenburg/SanJoaquin timelines are short relative to the mean
	// stream length, so a small overlap remains.)
	for _, ds := range tab.Datasets {
		for _, m := range []Method{MethodNoEQB, MethodNoEQP} {
			if got := tab.Values[ds][m].LengthError; got < 0.5 {
				t.Errorf("%s/%v length error = %v, want ≳ ln2", ds, m, got)
			}
		}
	}
	if !strings.Contains(tab.String(), "NoEQB") {
		t.Error("Table4 output missing NoEQB")
	}
}

func TestTable5Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	tab, err := e.Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range tab.Datasets {
		row := tab.Rows[ds]
		if row.Total <= 0 {
			t.Fatalf("%s: zero total time", ds)
		}
		if row.Total < row.Synthesis {
			t.Fatalf("%s: total < synthesis", ds)
		}
	}
	if !strings.Contains(tab.String(), "Real-time Synthesis") {
		t.Error("Table5 output missing synthesis row")
	}
}

func TestFig3Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	fig, err := e.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Strategies) != 5 {
		t.Fatalf("strategies = %v", fig.Strategies)
	}
	for _, ds := range fig.Datasets {
		for _, s := range fig.Strategies {
			if _, ok := fig.Values[ds][s]; !ok {
				t.Fatalf("missing %s/%s", ds, s)
			}
		}
	}
	if !strings.Contains(fig.String(), "AdaptiveP") {
		t.Error("Fig3 output missing AdaptiveP")
	}
}

func TestFig4Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	fig, err := e.Fig4([]int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range fig.Datasets {
		for _, m := range fig.Methods {
			for _, w := range fig.Windows {
				if _, ok := fig.Values[ds][m][w]; !ok {
					t.Fatalf("missing %s/%v/w=%d", ds, m, w)
				}
			}
		}
	}
	if !strings.Contains(fig.String(), "w=5") {
		t.Error("Fig4 output missing w=5 column")
	}
}

func TestFig5Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	fig, err := e.Fig5([]int{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range fig.Datasets {
		for _, m := range fig.Methods {
			for _, phi := range fig.Phis {
				if _, ok := fig.Values[ds][m][phi]; !ok {
					t.Fatalf("missing %s/%v/φ=%d", ds, m, phi)
				}
			}
		}
	}
	if !strings.Contains(fig.String(), "φ=20") {
		t.Error("Fig5 output missing φ=20 column")
	}
}

func TestFig6Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	fig, err := e.Fig6([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range fig.Datasets {
		for _, m := range []Method{MethodRetraSynB, MethodRetraSynP} {
			for _, k := range fig.Ks {
				if fig.Runtime[ds][m][k] <= 0 {
					t.Fatalf("missing runtime %s/%v/K=%d", ds, m, k)
				}
			}
		}
	}
	if !strings.Contains(fig.String(), "K=4") {
		t.Error("Fig6 output missing K=4 column")
	}
}

func TestFig7Tiny(t *testing.T) {
	e := NewEnv(tinyParams())
	fig, err := e.Fig7([]float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range fig.Datasets {
		for _, m := range []Method{MethodRetraSynB, MethodRetraSynP} {
			for _, fr := range fig.Fractions {
				if fig.Runtime[ds][m][fr] <= 0 {
					t.Fatalf("missing runtime %s/%v/%v", ds, m, fr)
				}
			}
		}
	}
	if !strings.Contains(fig.String(), "50%") {
		t.Error("Fig7 output missing 50% column")
	}
}
