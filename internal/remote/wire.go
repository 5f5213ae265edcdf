package remote

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"retrasyn/internal/ldp"
)

// Binary wire protocol ("application/x-retrasyn"), version 1 — the only
// encoding of the report hot path. A binary frame carries the raw ⌈d/8⌉
// report bytes plus a varint user ID, which is as small as an LDP report can
// get without entropy coding (and the report *is* near-uniform noise by
// design — see the README's wire-format section for why it cannot be
// compressed below its randomness).
//
// Every binary request body is exactly one length-prefixed frame:
//
//	offset 0: magic "RS" (0x52 0x53)
//	offset 2: version (currently 1)
//	offset 3: kind (presence / assignments / assignments-response / report)
//	offset 4: uint32 little-endian payload length
//	offset 8: payload
//
// All integers inside payloads are unsigned LEB128 varints
// (encoding/binary Uvarint) unless stated otherwise; ε rides as 8 raw
// little-endian IEEE-754 bytes. Decoders are strict: bad magic, unknown
// versions, kinds or report forms, payload lengths that disagree with the
// body, trailing bytes, truncated varints and values beyond 2³¹−1 are all
// clean errors — never panics — and a rejected frame leaves the curator's
// open round untouched (all-or-nothing).
//
// The presence, assignments and report endpoints accept nothing else: a
// request with another Content-Type gets 415, and the assignments response
// is always an assignments-response frame.

const (
	// WireContentType is the Content-Type of every binary frame.
	WireContentType = "application/x-retrasyn"

	wireVersion   = 1
	wireHeaderLen = 8
	// wireMaxPayload caps a frame's payload (64 MiB) so a length-lying header
	// cannot make the server stage an absurd allocation.
	wireMaxPayload = 64 << 20
	// wireMaxValue caps every integer decoded off the wire: timestamps, user
	// IDs, batch sizes and bit indices all fit comfortably in int32, and the
	// cap keeps hostile varints from overflowing int arithmetic downstream.
	wireMaxValue = math.MaxInt32
)

// Frame kinds.
const (
	frameKindPresence byte = iota + 1
	frameKindAssignments
	frameKindAssignmentsResp
	frameKindReport
)

// Report payload forms. Form 0, one device's report, is retired: a device
// ships a one-entry batch, and a form-0 frame is an unknown form.
const (
	reportFormSparse byte = 1 // an index-list batch, packed by the curator on receipt
	reportFormPacked byte = 2 // a bit-packed batch, what devices send
)

// finishFrame prepends the frame header to a payload.
func finishFrame(kind byte, payload []byte) []byte {
	f := make([]byte, 0, wireHeaderLen+len(payload))
	f = append(f, 'R', 'S', wireVersion, kind)
	f = binary.LittleEndian.AppendUint32(f, uint32(len(payload)))
	return append(f, payload...)
}

// decodeFrame validates the header and returns the kind and payload. The
// payload aliases data.
func decodeFrame(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < wireHeaderLen {
		return 0, nil, fmt.Errorf("remote: binary frame is %d bytes, shorter than the %d-byte header", len(data), wireHeaderLen)
	}
	if data[0] != 'R' || data[1] != 'S' {
		return 0, nil, fmt.Errorf("remote: binary frame has bad magic 0x%02x%02x", data[0], data[1])
	}
	if data[2] != wireVersion {
		return 0, nil, fmt.Errorf("remote: binary frame version %d, this curator speaks version %d", data[2], wireVersion)
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > wireMaxPayload {
		return 0, nil, fmt.Errorf("remote: binary frame declares a %d-byte payload, cap is %d", n, wireMaxPayload)
	}
	if int(n) != len(data)-wireHeaderLen {
		return 0, nil, fmt.Errorf("remote: binary frame declares a %d-byte payload but carries %d", n, len(data)-wireHeaderLen)
	}
	return data[3], data[wireHeaderLen:], nil
}

// wireReader is the strict payload cursor shared by all decoders.
type wireReader struct {
	p   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.p) - r.off }

func (r *wireReader) uvarint() (int, error) {
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("remote: truncated or malformed varint at payload offset %d", r.off)
	}
	if v > wireMaxValue {
		return 0, fmt.Errorf("remote: wire integer %d at payload offset %d exceeds the 2³¹−1 cap", v, r.off)
	}
	r.off += n
	return int(v), nil
}

func (r *wireReader) byte() (byte, error) {
	if r.off >= len(r.p) {
		return 0, fmt.Errorf("remote: payload truncated at offset %d", r.off)
	}
	b := r.p[r.off]
	r.off++
	return b, nil
}

// bytes returns the next n payload bytes, aliasing the underlying buffer.
func (r *wireReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("remote: payload truncated: want %d bytes at offset %d, have %d", n, r.off, r.remaining())
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wireReader) float64() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// finish rejects trailing junk — a frame must be consumed exactly.
func (r *wireReader) finish() error {
	if r.off != len(r.p) {
		return fmt.Errorf("remote: %d trailing bytes after the payload", r.remaining())
	}
	return nil
}

// appendUsers encodes a user-ID list: count, then absolute varint IDs.
func appendUsers(buf []byte, users []int) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(users)))
	for _, u := range users {
		if u < 0 {
			return nil, fmt.Errorf("remote: user ID %d is negative and cannot ride the binary wire", u)
		}
		buf = binary.AppendUvarint(buf, uint64(u))
	}
	return buf, nil
}

func (r *wireReader) users() ([]int, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every encoded user costs ≥ 1 byte, so a count beyond the remaining
	// bytes is a lie; checking first keeps the allocation honest.
	if n > r.remaining() {
		return nil, fmt.Errorf("remote: user count %d exceeds the %d payload bytes left", n, r.remaining())
	}
	users := make([]int, n)
	for i := range users {
		if users[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return users, nil
}

// appendOnes encodes an index-list report as count + delta varints over the
// ascending order (the first index absolute, then gaps). Order does not
// matter to the fold, so sorting is free compression: gaps are small and
// mostly one-byte. An OUE report names each index at most once, so a
// repeated index — a zero gap — is rejected here and by the decoder.
func appendOnes(buf []byte, ones []int) ([]byte, error) {
	for _, v := range ones {
		if v < 0 {
			return nil, fmt.Errorf("remote: report bit %d is negative and cannot ride the binary wire", v)
		}
	}
	sorted := ones
	if !sort.IntsAreSorted(sorted) {
		sorted = append([]int(nil), ones...)
		sort.Ints(sorted)
	}
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	prev := 0
	for i, v := range sorted {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(v))
		} else if v == prev {
			return nil, fmt.Errorf("remote: report bit %d repeated", v)
		} else {
			buf = binary.AppendUvarint(buf, uint64(v-prev))
		}
		prev = v
	}
	return buf, nil
}

func (r *wireReader) ones() ([]int, error) {
	k, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if k > r.remaining() {
		return nil, fmt.Errorf("remote: ones count %d exceeds the %d payload bytes left", k, r.remaining())
	}
	ones := make([]int, k)
	cur := 0
	for i := range ones {
		d, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if i > 0 && d == 0 {
			return nil, fmt.Errorf("remote: ones entry %d repeats index %d", i, cur)
		}
		cur += d
		if cur > wireMaxValue {
			return nil, fmt.Errorf("remote: ones delta chain overflows at entry %d", i)
		}
		ones[i] = cur
	}
	return ones, nil
}

// encodeUsersFrame builds a presence announce or an assignment poll: the
// two request kinds share the payload t + user-ID list.
func encodeUsersFrame(kind byte, t int, users []int) ([]byte, error) {
	if t < 0 {
		return nil, fmt.Errorf("remote: timestamp %d is negative and cannot ride the binary wire", t)
	}
	payload := binary.AppendUvarint(nil, uint64(t))
	payload, err := appendUsers(payload, users)
	if err != nil {
		return nil, err
	}
	return finishFrame(kind, payload), nil
}

func decodeUsersPayload(p []byte) (t int, users []int, err error) {
	r := &wireReader{p: p}
	if t, err = r.uvarint(); err != nil {
		return 0, nil, err
	}
	if users, err = r.users(); err != nil {
		return 0, nil, err
	}
	return t, users, r.finish()
}

// encodeAssignmentsRespFrame builds the poll response: one flags byte per
// user (bit 0 = report), followed by ε only for sampled users — unsampled
// users, the common case, cost a single byte.
func encodeAssignmentsRespFrame(as []Assignment) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(as)))
	for _, a := range as {
		if a.Report {
			payload = append(payload, 1)
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(a.Epsilon))
		} else {
			payload = append(payload, 0)
		}
	}
	return finishFrame(frameKindAssignmentsResp, payload)
}

func decodeAssignmentsRespPayload(p []byte) ([]Assignment, error) {
	r := &wireReader{p: p}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > r.remaining() {
		return nil, fmt.Errorf("remote: assignment count %d exceeds the %d payload bytes left", n, r.remaining())
	}
	as := make([]Assignment, n)
	for i := range as {
		flags, err := r.byte()
		if err != nil {
			return nil, err
		}
		if flags > 1 {
			return nil, fmt.Errorf("remote: assignment entry %d has unknown flags 0x%02x", i, flags)
		}
		if flags&1 != 0 {
			as[i].Report = true
			if as[i].Epsilon, err = r.float64(); err != nil {
				return nil, err
			}
		}
	}
	return as, r.finish()
}

// EncodeSparseReportFrame builds report form 1, a batch of index-list
// reports. The curator packs it on receipt; devices send form 2.
func EncodeSparseReportFrame(t int, batch []BatchReport) ([]byte, error) {
	if t < 0 {
		return nil, fmt.Errorf("remote: timestamp %d is negative and cannot ride the binary wire", t)
	}
	payload := binary.AppendUvarint(nil, uint64(t))
	payload = append(payload, reportFormSparse)
	payload = binary.AppendUvarint(payload, uint64(len(batch)))
	var err error
	for i, r := range batch {
		if r.User < 0 {
			return nil, fmt.Errorf("remote: batch entry %d: user ID %d is negative", i, r.User)
		}
		payload = binary.AppendUvarint(payload, uint64(r.User))
		if payload, err = appendOnes(payload, r.Ones); err != nil {
			return nil, fmt.Errorf("remote: batch entry %d: %w", i, err)
		}
	}
	return finishFrame(frameKindReport, payload), nil
}

// EncodePackedReportFrame builds the binary form of a bit-packed report
// batch over a domain of size d: the frame self-declares d (so a curator
// mid-relayout rejects stale encodings with a clean error before decoding a
// single row), then carries varint user + raw ⌈d/8⌉ report bytes per entry
// — no base64, no field framing.
func EncodePackedReportFrame(t, d int, batch []PackedBatchReport) ([]byte, error) {
	if t < 0 {
		return nil, fmt.Errorf("remote: timestamp %d is negative and cannot ride the binary wire", t)
	}
	if d <= 0 {
		return nil, fmt.Errorf("remote: packed frame domain must be positive, got %d", d)
	}
	bsz := ldp.PackedBytes(d)
	payload := make([]byte, 0, 16+len(batch)*(bsz+3))
	payload = binary.AppendUvarint(payload, uint64(t))
	payload = append(payload, reportFormPacked)
	payload = binary.AppendUvarint(payload, uint64(d))
	payload = binary.AppendUvarint(payload, uint64(len(batch)))
	for i, r := range batch {
		if r.User < 0 {
			return nil, fmt.Errorf("remote: batch entry %d: user ID %d is negative", i, r.User)
		}
		if len(r.Bits) != bsz {
			return nil, fmt.Errorf("remote: batch entry %d (user %d): payload is %d bytes, want %d for domain %d", i, r.User, len(r.Bits), bsz, d)
		}
		payload = binary.AppendUvarint(payload, uint64(r.User))
		payload = append(payload, r.Bits...)
	}
	return finishFrame(frameKindReport, payload), nil
}

// reportFrame is a decoded report payload. For the packed form, bits rows
// alias the request body — the zero-copy handoff into
// ldp.UnpackReportBytesInto.
type reportFrame struct {
	t    int
	form byte

	batch []BatchReport // reportFormSparse

	d     int      // reportFormPacked: sender's domain size
	users []int    // reportFormPacked
	bits  [][]byte // reportFormPacked: ⌈d/8⌉-byte rows aliasing the body
}

func decodeReportPayload(p []byte) (*reportFrame, error) {
	r := &wireReader{p: p}
	rf := &reportFrame{}
	var err error
	if rf.t, err = r.uvarint(); err != nil {
		return nil, err
	}
	if rf.form, err = r.byte(); err != nil {
		return nil, err
	}
	switch rf.form {
	case reportFormSparse:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > r.remaining() {
			return nil, fmt.Errorf("remote: index-list batch count %d exceeds the %d payload bytes left", n, r.remaining())
		}
		rf.batch = make([]BatchReport, n)
		for i := range rf.batch {
			if rf.batch[i].User, err = r.uvarint(); err != nil {
				return nil, err
			}
			if rf.batch[i].Ones, err = r.ones(); err != nil {
				return nil, fmt.Errorf("remote: batch entry %d: %w", i, err)
			}
		}
	case reportFormPacked:
		if rf.d, err = r.uvarint(); err != nil {
			return nil, err
		}
		if rf.d == 0 {
			return nil, fmt.Errorf("remote: packed frame declares a zero domain")
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		bsz := ldp.PackedBytes(rf.d)
		if n > 0 && n > r.remaining()/(1+bsz)+1 {
			return nil, fmt.Errorf("remote: packed batch count %d exceeds the %d payload bytes left", n, r.remaining())
		}
		rf.users = make([]int, n)
		rf.bits = make([][]byte, n)
		for i := 0; i < n; i++ {
			if rf.users[i], err = r.uvarint(); err != nil {
				return nil, err
			}
			if rf.bits[i], err = r.bytes(bsz); err != nil {
				return nil, fmt.Errorf("remote: batch entry %d (user %d): %w", i, rf.users[i], err)
			}
		}
	default:
		return nil, fmt.Errorf("remote: unknown report form 0x%02x", rf.form)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return rf, nil
}
