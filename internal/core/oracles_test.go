package core

import (
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

func TestEngineRunsWithEveryPostProcess(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 300, 30, 8, 67)
	stream := trajectory.NewStream(data)
	for _, pp := range []ldp.PostProcess{
		ldp.PostProcessNone, ldp.PostProcessClamp,
		ldp.PostProcessNormSub, ldp.PostProcessNormMul,
	} {
		t.Run(pp.String(), func(t *testing.T) {
			opts := defaultOpts(allocation.Population)
			opts.PostProcess = pp
			e, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			syn, _ := e.Run(stream, "syn")
			if err := syn.Validate(g, true); err != nil {
				t.Fatalf("invalid output: %v", err)
			}
		})
	}
}

func TestNormSubModelIsDistribution(t *testing.T) {
	// With norm-sub post-processing, the model frequencies after every
	// update form a probability distribution (up to DMU partial updates
	// mixing rounds — the bootstrap round is fully normalized).
	g := testGrid()
	data := walkDataset(g, 300, 10, 8, 71)
	stream := trajectory.NewStream(data)
	opts := defaultOpts(allocation.Population)
	opts.PostProcess = ldp.PostProcessNormSub
	e, _ := New(opts)
	for tt := 0; tt < 2; tt++ {
		e.ProcessTimestamp(tt, stream.At(tt), stream.Active[tt])
	}
	sum := 0.0
	for _, f := range e.Model().Freqs() {
		if f < 0 {
			t.Fatalf("negative model frequency %v under norm-sub", f)
		}
		sum += f
	}
	if sum <= 0 {
		t.Fatal("empty model after bootstrap")
	}
}
