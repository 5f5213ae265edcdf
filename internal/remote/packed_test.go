package remote

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"retrasyn/internal/ldp"
	"retrasyn/internal/pipeline"
)

// driveRound opens a round at timestamp ts with the given users present and
// returns the sampled users' assignments.
func driveRound(t *testing.T, cur *Curator, ts int, users []int) map[int]Assignment {
	t.Helper()
	for _, u := range users {
		if err := cur.PresenceBatch([]int{u}, ts); err != nil {
			t.Fatalf("presence u=%d t=%d: %v", u, ts, err)
		}
	}
	if err := cur.Plan(ts); err != nil {
		t.Fatalf("plan t=%d: %v", ts, err)
	}
	sampled := make(map[int]Assignment)
	for _, u := range users {
		a, err := assignmentFor(cur, u, ts)
		if err != nil {
			t.Fatalf("assignment u=%d: %v", u, err)
		}
		if a.Report {
			sampled[u] = a
		}
	}
	return sampled
}

// TestPackedBatchMatchesSparseBatch drives two same-seed curators through
// identical rounds — one fed sparse batches, one the packed conversion of
// the very same reports — and requires the released synthetic databases to
// be identical: the packed wire path and word-parallel fold change the
// encoding and the fold order, not one bit of the outcome.
func TestPackedBatchMatchesSparseBatch(t *testing.T) {
	g := testGrid()
	curSparse, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	curPacked, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	d := curSparse.Domain().Size()
	users := make([]int, 40)
	for i := range users {
		users[i] = i
	}
	rng := ldp.NewRand(99, 7)
	const T = 12
	for ts := 0; ts < T; ts++ {
		sampledA := driveRound(t, curSparse, ts, users)
		sampledB := driveRound(t, curPacked, ts, users)
		if !reflect.DeepEqual(sampledA, sampledB) {
			t.Fatalf("t=%d: same-seed curators sampled different users", ts)
		}
		var batch []BatchReport
		for _, u := range users {
			a, ok := sampledA[u]
			if !ok {
				continue
			}
			oracle := ldp.MustOUE(d, a.Epsilon)
			batch = append(batch, BatchReport{User: u, Ones: oracle.Perturb(rng, u%d)})
		}
		if len(batch) > 0 {
			if err := curSparse.ReportBatch(ts, batch); err != nil {
				t.Fatalf("t=%d sparse batch: %v", ts, err)
			}
			packed, err := PackReportBatch(batch, d)
			if err != nil {
				t.Fatalf("t=%d pack: %v", ts, err)
			}
			if err := curPacked.ReportPackedBatch(ts, packed); err != nil {
				t.Fatalf("t=%d packed batch: %v", ts, err)
			}
		}
		if err := curSparse.Finalize(ts, len(users)); err != nil {
			t.Fatal(err)
		}
		if err := curPacked.Finalize(ts, len(users)); err != nil {
			t.Fatal(err)
		}
	}
	_, reports := curSparse.Stats()
	if reports == 0 {
		t.Fatal("no reports flowed")
	}
	a, b := curSparse.Synthetic("x"), curPacked.Synthetic("x")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("packed-fed curator released a different synthetic database than the sparse-fed one")
	}
}

// TestReportFormsLeaveEqualSnapshots sends every round's reports to two
// same-seed curators over HTTP, once as a form-1 frame (index lists, packed
// by the curator on receipt) and once as a form-2 frame (packed rows), and
// requires DeepEqual curator snapshots mid-round and after the run: both
// forms reach the same packed commit. Only the fold's wall-clock timings
// may differ.
func TestReportFormsLeaveEqualSnapshots(t *testing.T) {
	g := testGrid()
	var curs [2]*Curator
	var urls [2]string
	for i := range curs {
		cur, err := NewCurator(testConfig(g))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(cur))
		defer srv.Close()
		curs[i], urls[i] = cur, srv.URL
	}
	snapshots := func() [2]*CuratorState {
		var out [2]*CuratorState
		for i, cur := range curs {
			st, err := cur.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st.Engine.Stats.Timings = pipeline.Timings{}
			out[i] = st
		}
		return out
	}
	post := func(url string, frame []byte) {
		resp, err := http.Post(url+"/v1/report", WireContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("report frame: %s", resp.Status)
		}
	}
	d := curs[0].DomainSize()
	users := make([]int, 30)
	for i := range users {
		users[i] = i
	}
	rng := ldp.NewRand(4, 2)
	for ts := 0; ts < 8; ts++ {
		sampled := driveRound(t, curs[0], ts, users)
		if !reflect.DeepEqual(driveRound(t, curs[1], ts, users), sampled) {
			t.Fatalf("t=%d: same-seed curators sampled different users", ts)
		}
		var batch []BatchReport
		for _, u := range users {
			if a, ok := sampled[u]; ok {
				batch = append(batch, BatchReport{User: u, Ones: ldp.MustOUE(d, a.Epsilon).Perturb(rng, u%d)})
			}
		}
		if len(batch) > 0 {
			form1, err := EncodeSparseReportFrame(ts, batch)
			if err != nil {
				t.Fatal(err)
			}
			packed, err := PackReportBatch(batch, d)
			if err != nil {
				t.Fatal(err)
			}
			form2, err := EncodePackedReportFrame(ts, d, packed)
			if err != nil {
				t.Fatal(err)
			}
			post(urls[0], form1)
			post(urls[1], form2)
			if st := snapshots(); !reflect.DeepEqual(st[0], st[1]) {
				t.Fatalf("t=%d: form-1 and form-2 curators hold different open rounds", ts)
			}
		}
		for _, cur := range curs {
			if err := cur.Finalize(ts, len(users)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, reports := curs[0].Stats(); reports == 0 {
		t.Fatal("no reports flowed")
	}
	if st := snapshots(); !reflect.DeepEqual(st[0], st[1]) {
		t.Fatal("form-1 and form-2 curators ended in different states")
	}
}

// TestCuratorRejectsOutOfDomainReports is the boundary-validation satellite:
// hostile or stale-domain indices must come back as clean errors on every
// report path — never panic the service — and leave the open round usable.
func TestCuratorRejectsOutOfDomainReports(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	d := cur.Domain().Size()
	users := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sampled := driveRound(t, cur, 0, users)
	if len(sampled) == 0 {
		t.Fatal("no users sampled")
	}
	var u int
	for id := range sampled {
		u = id
		break
	}

	for _, bad := range [][]int{{-1}, {d}, {0, 1, d + 7}, {1 << 40}} {
		if err := cur.ReportBatch(0, []BatchReport{{User: u, Ones: bad}}); err == nil {
			t.Errorf("Report accepted out-of-domain ones %v", bad)
		}
		if err := cur.ReportBatch(0, []BatchReport{{User: u, Ones: bad}}); err == nil {
			t.Errorf("ReportBatch accepted out-of-domain ones %v", bad)
		}
	}
	// Malformed packed payloads: wrong length, and bits beyond the domain.
	if err := cur.ReportPackedBatch(0, []PackedBatchReport{{User: u, Bits: make([]byte, 1)}}); err == nil {
		t.Error("ReportPackedBatch accepted a short payload")
	}
	if err := cur.ReportPackedBatch(0, []PackedBatchReport{{User: u, Bits: make([]byte, ldp.PackedBytes(d)+3)}}); err == nil {
		t.Error("ReportPackedBatch accepted an oversized payload")
	}
	if tail := d % 8; tail != 0 {
		bits := make([]byte, ldp.PackedBytes(d))
		bits[len(bits)-1] = 0xFF // bits beyond d in the last byte
		if err := cur.ReportPackedBatch(0, []PackedBatchReport{{User: u, Bits: bits}}); err == nil {
			t.Error("ReportPackedBatch accepted trailing bits beyond the domain")
		}
	}

	// The round survived every rejection: a valid report and the finalize
	// still go through.
	if err := cur.ReportBatch(0, []BatchReport{{User: u, Ones: []int{0, d - 1}}}); err != nil {
		t.Fatalf("valid report after rejections: %v", err)
	}
	if err := cur.Finalize(0, len(users)); err != nil {
		t.Fatalf("finalize after rejections: %v", err)
	}
}

// TestPackedBatchAllOrNothing: one malformed entry rejects the whole packed
// batch and applies none of it.
func TestPackedBatchAllOrNothing(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	d := cur.Domain().Size()
	users := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	sampled := driveRound(t, cur, 0, users)
	if len(sampled) < 2 {
		t.Skipf("need ≥2 sampled users, got %d", len(sampled))
	}
	ids := make([]int, 0, len(sampled))
	for id := range sampled {
		ids = append(ids, id)
	}
	good, err := ldp.PackReport([]int{0}, d)
	if err != nil {
		t.Fatal(err)
	}
	batch := []PackedBatchReport{
		{User: ids[0], Bits: good.Bytes(d)},
		{User: ids[1], Bits: []byte{1}}, // wrong length
	}
	if err := cur.ReportPackedBatch(0, batch); err == nil {
		t.Fatal("malformed batch accepted")
	}
	if _, reports := cur.Stats(); reports != 0 {
		t.Fatalf("rejected batch applied %d reports", reports)
	}
	// Both users can still report: nothing was consumed.
	if err := cur.ReportPackedBatch(0, []PackedBatchReport{{User: ids[0], Bits: good.Bytes(d)}, {User: ids[1], Bits: good.Bytes(d)}}); err != nil {
		t.Fatalf("clean batch after rejection: %v", err)
	}
}

// TestEmptyBatchInSilentRound: a round whose pool is empty samples nobody
// and has no aggregate; an empty upload into it — either form, over the Go
// API or the wire — is a no-op, not a nil dereference.
func TestEmptyBatchInSilentRound(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	if err := cur.Plan(0); err != nil {
		t.Fatal(err)
	}
	if err := cur.ReportPackedBatch(0, nil); err != nil {
		t.Fatalf("empty packed batch: %v", err)
	}
	if err := cur.ReportBatch(0, nil); err != nil {
		t.Fatalf("empty index-list batch: %v", err)
	}
	form1, err := EncodeSparseReportFrame(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	form2, err := EncodePackedReportFrame(0, cur.DomainSize(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range [][]byte{form1, form2} {
		resp, err := http.Post(srv.URL+"/v1/report", WireContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("empty form-%d frame: %s", i+1, resp.Status)
		}
	}
	if err := cur.Finalize(0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPackedBatchOverHTTP exercises the packed report frame on /v1/report
// end to end.
func TestPackedBatchOverHTTP(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	d := cur.Domain().Size()
	users := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sampled := driveRound(t, cur, 0, users)
	rng := ldp.NewRand(5, 6)
	var sparse []BatchReport
	for u, a := range sampled {
		oracle := ldp.MustOUE(d, a.Epsilon)
		sparse = append(sparse, BatchReport{User: u, Ones: oracle.Perturb(rng, u%d)})
	}
	packed, err := PackReportBatch(sparse, d)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodePackedReportFrame(0, d, packed)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/report", WireContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("packed upload: %s", resp.Status)
	}
	if _, reports := cur.Stats(); reports != len(packed) {
		t.Fatalf("curator recorded %d reports, want %d", reports, len(packed))
	}
	if err := cur.Finalize(0, len(users)); err != nil {
		t.Fatal(err)
	}
}

// FuzzPackedReportWire fuzzes the packed-report decode on the curator wire
// path: arbitrary user/payload pairs, hand-built into a one-entry packed
// report frame (so negative users and wrong row lengths reach the handler's
// decode instead of being refused by the encoder) and POSTed to /v1/report,
// must always yield a clean HTTP status — 204 on acceptance, 4xx on
// rejection — and never panic the handler, whatever the bytes.
func FuzzPackedReportWire(f *testing.F) {
	g := testGrid()
	probe, err := NewCurator(testConfig(g))
	if err != nil {
		f.Fatal(err)
	}
	d := probe.Domain().Size()
	f.Add(0, make([]byte, ldp.PackedBytes(d)))
	f.Add(0, []byte{})
	f.Add(1, bytes.Repeat([]byte{0xFF}, ldp.PackedBytes(d)))
	f.Add(-3, []byte{0x01, 0x02})
	f.Add(0, bytes.Repeat([]byte{0xAA}, ldp.PackedBytes(d)+1))
	f.Fuzz(func(t *testing.T, user int, bits []byte) {
		cur, err := NewCurator(testConfig(g))
		if err != nil {
			t.Fatal(err)
		}
		// A pool of one guarantees user 0 is sampled, so payload decoding is
		// reachable; other user IDs exercise the assignment rejection.
		if err := cur.PresenceBatch([]int{0}, 0); err != nil {
			t.Fatal(err)
		}
		if err := cur.Plan(0); err != nil {
			t.Fatal(err)
		}
		h := NewHandler(cur)
		payload := []byte{0, reportFormPacked} // t = 0, then the form
		payload = binary.AppendUvarint(payload, uint64(d))
		payload = binary.AppendUvarint(payload, 1)
		payload = binary.AppendUvarint(payload, uint64(user))
		payload = append(payload, bits...)
		req := httptest.NewRequest("POST", "/v1/report", bytes.NewReader(finishFrame(frameKindReport, payload)))
		req.Header.Set("Content-Type", WireContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent && rec.Code/100 != 4 {
			t.Fatalf("user=%d len(bits)=%d: unexpected status %d", user, len(bits), rec.Code)
		}
		// Whatever happened, the round must still finalize.
		if err := cur.Finalize(0, 1); err != nil {
			t.Fatalf("finalize after fuzz report: %v", err)
		}
	})
}

// TestReportFoldChargedToModelConstruction: the aggregation fold is part of
// the paper's model-construction stage, so report ingestion — sparse or
// packed — must show up in the curator's timings the same way the
// in-process pipeline charges it, not vanish from /v1/stats.
func TestReportFoldChargedToModelConstruction(t *testing.T) {
	g := testGrid()
	for name, packed := range map[string]bool{"sparse": false, "packed": true} {
		t.Run(name, func(t *testing.T) {
			cur, err := NewCurator(testConfig(g))
			if err != nil {
				t.Fatal(err)
			}
			d := cur.Domain().Size()
			users := []int{0, 1, 2, 3, 4, 5, 6, 7}
			sampled := driveRound(t, cur, 0, users)
			rng := ldp.NewRand(3, 9)
			var batch []BatchReport
			for _, u := range users {
				a, ok := sampled[u]
				if !ok {
					continue
				}
				oracle := ldp.MustOUE(d, a.Epsilon)
				batch = append(batch, BatchReport{User: u, Ones: oracle.Perturb(rng, u%d)})
			}
			if len(batch) == 0 {
				t.Fatal("no users sampled")
			}
			if packed {
				pb, err := PackReportBatch(batch, d)
				if err != nil {
					t.Fatal(err)
				}
				if err := cur.ReportPackedBatch(0, pb); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := cur.ReportBatch(0, batch); err != nil {
					t.Fatal(err)
				}
			}
			if got := cur.Timings().ModelConstruction; got <= 0 {
				t.Fatalf("fold time not charged before Finalize: ModelConstruction = %v", got)
			}
		})
	}
}
