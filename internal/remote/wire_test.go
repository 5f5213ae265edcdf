package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"retrasyn/internal/ldp"
)

func TestPresenceFrameRoundTrip(t *testing.T) {
	users := []int{0, 7, 7, 300000, 12}
	frame, err := encodeUsersFrame(frameKindPresence, 42, users)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameKindPresence {
		t.Fatalf("kind = %d, want %d", kind, frameKindPresence)
	}
	ts, got, err := decodeUsersPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ts != 42 || !reflect.DeepEqual(got, users) {
		t.Fatalf("round-trip = t=%d %v, want t=42 %v", ts, got, users)
	}
}

func TestAssignmentsRespFrameRoundTrip(t *testing.T) {
	as := []Assignment{{}, {Report: true, Epsilon: 0.75}, {}, {Report: true, Epsilon: 1}}
	kind, payload, err := decodeFrame(encodeAssignmentsRespFrame(as))
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameKindAssignmentsResp {
		t.Fatalf("kind = %d", kind)
	}
	got, err := decodeAssignmentsRespPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, as) {
		t.Fatalf("round-trip %+v, want %+v", got, as)
	}
}

// TestReportFrameRoundTrips covers both report forms — a device's
// one-entry batch among them — including a domain whose size is not a
// multiple of 8 (partial final byte) and unsorted index lists: the delta
// encoding must preserve the set even though it reorders.
func TestReportFrameRoundTrips(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		ones := []int{100, 3, 17, 250000}
		frame, err := EncodeSparseReportFrame(9, []BatchReport{{User: 31, Ones: ones}})
		if err != nil {
			t.Fatal(err)
		}
		rf := mustDecodeReport(t, frame)
		if rf.form != reportFormSparse || rf.t != 9 || len(rf.batch) != 1 || rf.batch[0].User != 31 {
			t.Fatalf("decoded %+v", rf)
		}
		want := []int{3, 17, 100, 250000} // sorted
		if !reflect.DeepEqual(rf.batch[0].Ones, want) {
			t.Fatalf("ones = %v, want %v", rf.batch[0].Ones, want)
		}
	})
	t.Run("sparse", func(t *testing.T) {
		batch := []BatchReport{
			{User: 4, Ones: []int{9, 2}},
			{User: 0, Ones: nil},
			{User: 17, Ones: []int{5}},
		}
		frame, err := EncodeSparseReportFrame(3, batch)
		if err != nil {
			t.Fatal(err)
		}
		rf := mustDecodeReport(t, frame)
		if rf.form != reportFormSparse || rf.t != 3 {
			t.Fatalf("decoded %+v", rf)
		}
		want := []BatchReport{
			{User: 4, Ones: []int{2, 9}},
			{User: 0, Ones: []int{}},
			{User: 17, Ones: []int{5}},
		}
		if !reflect.DeepEqual(rf.batch, want) {
			t.Fatalf("batch = %+v, want %+v", rf.batch, want)
		}
	})
	t.Run("packed", func(t *testing.T) {
		const d = 21 // ⌈21/8⌉ = 3 bytes, 3 spare bits in the last byte
		batch := []PackedBatchReport{
			{User: 12, Bits: []byte{0xff, 0x00, 0x1f}},
			{User: 3, Bits: []byte{0x01, 0x80, 0x00}},
		}
		frame, err := EncodePackedReportFrame(5, d, batch)
		if err != nil {
			t.Fatal(err)
		}
		rf := mustDecodeReport(t, frame)
		if rf.form != reportFormPacked || rf.t != 5 || rf.d != d {
			t.Fatalf("decoded %+v", rf)
		}
		if !reflect.DeepEqual(rf.users, []int{12, 3}) {
			t.Fatalf("users = %v", rf.users)
		}
		for i := range batch {
			if !bytes.Equal(rf.bits[i], batch[i].Bits) {
				t.Fatalf("row %d = %x, want %x", i, rf.bits[i], batch[i].Bits)
			}
		}
	})
}

func mustDecodeReport(t *testing.T, frame []byte) *reportFrame {
	t.Helper()
	kind, payload, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameKindReport {
		t.Fatalf("kind = %d, want %d", kind, frameKindReport)
	}
	rf, err := decodeReportPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// TestDecodeFrameRejects: every malformed header shape is a clean error.
func TestDecodeFrameRejects(t *testing.T) {
	good, err := EncodeSparseReportFrame(1, []BatchReport{{User: 2, Ones: []int{3}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    good[:7],
		"bad magic":       append([]byte{'X', 'S'}, good[2:]...),
		"future version":  append([]byte{'R', 'S', 99}, good[3:]...),
		"length lies low": append(append([]byte{}, good[:4]...), append([]byte{0, 0, 0, 0}, good[8:]...)...),
		"truncated body":  good[:len(good)-1],
		"trailing bytes":  append(append([]byte{}, good...), 0xaa),
		"huge length":     {0x52, 0x53, 1, 4, 0xff, 0xff, 0xff, 0xff},
	}
	for name, frame := range cases {
		if name == "length lies low" {
			// keep the header length field 0 but a non-empty body
			binary.LittleEndian.PutUint32(frame[4:8], 0)
		}
		if _, _, err := decodeFrame(frame); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeReportPayloadRejects: hostile payloads inside a valid header —
// lying counts, overflowing varints, bad forms — error without panicking
// or allocating absurdly.
func TestDecodeReportPayloadRejects(t *testing.T) {
	build := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cases := map[string][]byte{
		"empty":           {},
		"missing form":    uv(3),
		"unknown form":    build(uv(3), []byte{9}),
		"huge user count": build(uv(3), []byte{reportFormSparse}, uv(1<<30)),
		"huge ones count": build(uv(3), []byte{reportFormSparse}, uv(1), uv(7), uv(1<<30)),
		"overflow varint": build(uv(3), []byte{reportFormSparse}, uv(1), uv(7), uv(1), uv(math.MaxUint64>>1)),
		"zero domain":     build(uv(3), []byte{reportFormPacked}, uv(0)),
		"packed count lies": build(uv(3), []byte{reportFormPacked}, uv(64),
			uv(1000), uv(1), []byte{0xff}),
		"packed row truncated": build(uv(3), []byte{reportFormPacked}, uv(64),
			uv(1), uv(1), []byte{0xff, 0xff}),
		"delta chain overflow": build(uv(3), []byte{reportFormSparse}, uv(1), uv(7),
			uv(3), uv(math.MaxInt32), uv(math.MaxInt32), uv(2)),
		// A zero gap after the first index names that index twice.
		"repeated index": build(uv(3), []byte{reportFormSparse}, uv(1), uv(7),
			uv(3), uv(5), uv(0), uv(2)),
		// A well-formed single-report payload of the retired form 0.
		"retired form 0": build(uv(3), []byte{0}, uv(7), uv(1), uv(0)),
	}
	for name, payload := range cases {
		if _, err := decodeReportPayload(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMalformedBinaryFramesLeaveRoundIntact is the handler-level guarantee:
// hostile bytes on /v1/report during an open round 400 cleanly, and the
// round then accepts a good batch and finalizes — nothing was partially
// applied, nothing panicked.
func TestMalformedBinaryFramesLeaveRoundIntact(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	users := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sampled := driveRound(t, cur, 0, users)
	d := cur.DomainSize()

	good, err := EncodeSparseReportFrame(0, []BatchReport{{User: 99, Ones: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	staleDomain, err := EncodePackedReportFrame(0, d+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	hostile := [][]byte{
		good[:5],                                   // truncated mid-header
		append(good[:8:8], 0xff),                   // length lies
		{0x52, 0x53, 2, 4, 0, 0, 0, 0},             // version skew
		finishFrame(frameKindPresence, nil),        // wrong kind for the endpoint
		finishFrame(frameKindReport, []byte{0x00}), // truncated payload
		staleDomain,                                // wrong domain (409 from the curator, round intact)
	}
	for i, frame := range hostile {
		resp, err := http.Post(srv.URL+"/v1/report", WireContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("frame %d: status %d, want 4xx", i, resp.StatusCode)
		}
	}

	// The round is still open and healthy: a real batch lands and finalizes.
	rng := ldp.NewRand(5, 6)
	var batch []BatchReport
	for u, a := range sampled {
		oracle := ldp.MustOUE(d, a.Epsilon)
		batch = append(batch, BatchReport{User: u, Ones: oracle.Perturb(rng, u%d)})
	}
	packed, err := PackReportBatch(batch, d)
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
		t.Fatalf("good batch after hostile frames: status %d", resp.StatusCode)
	}
	if err := cur.Finalize(0, len(users)); err != nil {
		t.Fatal(err)
	}
	if _, reports := cur.Stats(); reports != len(batch) {
		t.Fatalf("reports = %d, want %d", reports, len(batch))
	}
}

// FuzzBinaryFrame: no byte string may panic any frame decoder, and valid
// re-encodes of whatever decodes must round-trip. Seeds cover truncation,
// length lies and version skew around real frames.
func FuzzBinaryFrame(f *testing.F) {
	presence, _ := encodeUsersFrame(frameKindPresence, 3, []int{1, 2, 900})
	assign, _ := encodeUsersFrame(frameKindAssignments, 3, []int{1, 2})
	resp := encodeAssignmentsRespFrame([]Assignment{{Report: true, Epsilon: 0.5}, {}})
	single, _ := EncodeSparseReportFrame(7, []BatchReport{{User: 1, Ones: []int{0, 5, 2}}})
	sparse, _ := EncodeSparseReportFrame(7, []BatchReport{{User: 1, Ones: []int{3}}})
	packed, _ := EncodePackedReportFrame(7, 12, []PackedBatchReport{{User: 1, Bits: []byte{0xff, 0x0f}}})
	for _, seed := range [][]byte{presence, assign, resp, single, sparse, packed} {
		f.Add(seed)
		f.Add(seed[:len(seed)-1]) // truncated
		lying := append([]byte{}, seed...)
		binary.LittleEndian.PutUint32(lying[4:8], uint32(len(seed))) // length lies
		f.Add(lying)
		skew := append([]byte{}, seed...)
		skew[2] = 7 // version skew
		f.Add(skew)
	}
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x53})
	f.Add(repeatedIndexFrame(7, 1, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := decodeFrame(data)
		if err != nil {
			return
		}
		switch kind {
		case frameKindPresence, frameKindAssignments:
			decodeUsersPayload(payload)
		case frameKindAssignmentsResp:
			if as, err := decodeAssignmentsRespPayload(payload); err == nil {
				if !bytes.Equal(encodeAssignmentsRespFrame(as), data) {
					t.Fatalf("assignments response did not round-trip")
				}
			}
		case frameKindReport:
			// Whatever decodes reaches the handler of an open round: a frame
			// the decoder rejects gets 400, any other either folds whole or
			// gets 4xx and folds nothing, and the round still finalizes.
			rf, err := decodeReportPayload(payload)
			code, folded := serveReportFrame(t, data)
			switch {
			case err != nil && code != http.StatusBadRequest:
				t.Fatalf("undecodable report frame got %d, want 400 (%v)", code, err)
			case code == http.StatusNoContent && folded != len(rf.batch)+len(rf.users):
				t.Fatalf("accepted frame folded %d reports, carries %d", folded, len(rf.batch)+len(rf.users))
			case code != http.StatusNoContent && (code/100 != 4 || folded != 0):
				t.Fatalf("report frame got %d and folded %d reports", code, folded)
			}
		}
	})
}

// serveReportFrame posts a report frame to a fresh curator whose round 7 is
// open with user 1 as the whole pool (so sampled), finalizes the round, and
// returns the status and the number of reports folded.
func serveReportFrame(t *testing.T, frame []byte) (code, folded int) {
	t.Helper()
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.PresenceBatch([]int{1}, 7); err != nil {
		t.Fatal(err)
	}
	if err := cur.Plan(7); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/report", bytes.NewReader(frame))
	req.Header.Set("Content-Type", WireContentType)
	rec := httptest.NewRecorder()
	NewHandler(cur).ServeHTTP(rec, req)
	_, folded = cur.Stats()
	if err := cur.Finalize(7, 1); err != nil {
		t.Fatalf("finalize after a %d report: %v", rec.Code, err)
	}
	return rec.Code, folded
}

// repeatedIndexFrame hand-builds a form-1 frame in which user's one report
// names index idx twice — a frame the encoder refuses to build.
func repeatedIndexFrame(t, user, idx int) []byte {
	payload := binary.AppendUvarint(nil, uint64(t))
	payload = append(payload, reportFormSparse)
	for _, v := range []int{1, user, 2, idx, 0} { // one entry: user, two ones: idx, gap 0
		payload = binary.AppendUvarint(payload, uint64(v))
	}
	return finishFrame(frameKindReport, payload)
}

// TestRepeatedIndexRejected: an OUE report names each index at most once.
// A repeated index used to be folded once per repeat — one report
// [5, 5, 5] added 3 to one state's count — so both boundaries now reject it,
// naming the entry and the index: the form-1 decoder answers 400 before the
// round is consulted, and the Go API (ldp.PackReport, hence ReportBatch)
// returns an error. Either way the open round is untouched.
func TestRepeatedIndexRejected(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	sampled := driveRound(t, cur, 0, []int{1, 2, 3, 4, 5, 6, 7, 8})
	if len(sampled) == 0 {
		t.Fatal("no users sampled")
	}
	u := -1
	for id := range sampled {
		if u < 0 || id < u {
			u = id
		}
	}
	before, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := EncodeSparseReportFrame(0, []BatchReport{{User: u, Ones: []int{5, 5}}}); err == nil {
		t.Error("encoder built a frame with a repeated index")
	}
	resp, err := http.Post(srv.URL+"/v1/report", WireContentType, bytes.NewReader(repeatedIndexFrame(0, u, 5)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "batch entry 0") || !strings.Contains(string(body), "repeats index 5") {
		t.Errorf("repeated-index frame: %d %q, want 400 naming entry 0 and index 5", resp.StatusCode, body)
	}
	err = cur.ReportBatch(0, []BatchReport{{User: u, Ones: []int{5, 5, 5}}})
	if err == nil || !strings.Contains(err.Error(), "batch entry 0") || !strings.Contains(err.Error(), "bit 5 repeated") {
		t.Errorf("ReportBatch(%d: [5 5 5]) = %v, want an error naming entry 0 and bit 5", u, err)
	}
	if _, err := PackReportBatch([]BatchReport{{User: u, Ones: []int{5, 5}}}, cur.DomainSize()); err == nil {
		t.Error("PackReportBatch accepted a repeated index")
	}

	after, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatal("a rejected repeated-index report changed the open round")
	}
	if err := cur.ReportBatch(0, []BatchReport{{User: u, Ones: []int{5}}}); err != nil {
		t.Fatalf("the user's well-formed report after the rejections: %v", err)
	}
	if st, _ := cur.Snapshot(); st.AggN != 1 || st.AggCounts[5] != 1 {
		t.Fatalf("after one report [5]: agg_n = %d, count[5] = %d, want 1 and 1", st.AggN, st.AggCounts[5])
	}
}

// TestStatsReportsWireBytes: the per-endpoint byte ledger in /v1/stats
// moves when traffic flows and splits in from out.
func TestStatsReportsWireBytes(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	gw := NewGateway(srv.URL, nil)
	gw.SetRetryPolicy(fastPolicy())
	users := []int{1, 2, 3}
	if err := gw.AnnouncePresence(users, 0); err != nil {
		t.Fatal(err)
	}
	if err := cur.Plan(0); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Assignments(users, 0); err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(srv.URL, nil)
	if _, err := co.Stats(); err != nil {
		t.Fatal(err)
	}
	// An endpoint's own bytes land in the ledger after its handler returns,
	// so poll twice to see the first stats response accounted.
	st, err := co.Stats()
	if err != nil {
		t.Fatal(err)
	}
	pres, ok := st.Wire["/v1/presence"]
	if !ok || pres.BytesIn == 0 {
		t.Fatalf("presence wire ledger missing or zero: %+v", st.Wire)
	}
	if pres.BytesOut != 0 {
		t.Fatalf("presence responds 204 with no body, but bytes_out = %d", pres.BytesOut)
	}
	asgn := st.Wire["/v1/assignments"]
	if asgn.BytesIn == 0 || asgn.BytesOut == 0 {
		t.Fatalf("assignments wire ledger incomplete: %+v", asgn)
	}
	if stats := st.Wire["/v1/stats"]; stats.BytesOut == 0 {
		t.Fatalf("stats endpoint did not account its own response: %+v", st.Wire)
	}
}
