package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The flight recorder's contract: a written ledger decodes to the records
// that were appended; the digest a reader recomputes equals the one the
// writer recorded; the canonical form is timing-blind; and every method is a
// no-op on a nil ledger.

// record appends one of each record type and returns the ledger's buffer.
func recordFixture(l *Ledger) {
	l.Stage(LedgerRecord{
		Stage: "analyze", Circuit: "c17", Gates: 6, Faults: 22,
		Detected: 20, Undetectable: 1, Aborted: 1,
		Tiers:    TierCounts{Collateral: 18, Podem: 3, SAT: 1},
		Searches: 4, Backtracks: 9, Conflicts: 2, Micros: 1234,
	})
	l.Verdict(LedgerRecord{Fault: 0, Status: "detected", Tier: TierCollateral})
	l.Verdict(LedgerRecord{Fault: 7, Status: "undetectable", Tier: TierSAT, BT: 41, Conf: 2, Micros: 987})
	l.Iter(LedgerRecord{Q: 5, Phase: 1, Iter: 1, U: 3, Smax: 4, F: 30, Tiers: TierCounts{Cache: 30}})
}

func TestLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLedger(&buf)
	recordFixture(l)
	wantDigest := l.Digest()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Three digested events plus the trailing summary.
	if len(recs) != 5 {
		t.Fatalf("decoded %d records, want 5", len(recs))
	}
	last := recs[len(recs)-1]
	if last.T != "summary" || last.Events != 4 || last.Digest != wantDigest {
		t.Errorf("summary = %+v, want events=4 digest=%s", last, wantDigest)
	}
	// A reader recomputes the writer's digest from the decoded records.
	got, err := LedgerDigest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantDigest {
		t.Errorf("reader digest %s != writer digest %s", got, wantDigest)
	}
	// Field fidelity through the typed encoders.
	if recs[0].Tiers != (TierCounts{Collateral: 18, Podem: 3, SAT: 1}) || recs[0].Micros != 1234 {
		t.Errorf("stage record lost fields: %+v", recs[0])
	}
	if recs[1].Fault != 0 || recs[1].Status != "detected" || recs[1].Tier != TierCollateral {
		t.Errorf("fault-ID-zero verdict lost fields: %+v", recs[1])
	}
	if recs[2].BT != 41 || recs[2].Conf != 2 || recs[2].Micros != 987 {
		t.Errorf("verdict cost fields lost: %+v", recs[2])
	}
	if recs[3].Iter != 1 || recs[3].Tiers.Cache != 30 {
		t.Errorf("iter record lost fields: %+v", recs[3])
	}
}

func TestCanonicalFormIgnoresTiming(t *testing.T) {
	var a, b bytes.Buffer
	la, lb := NewLedger(&a), NewLedger(&b)
	la.Verdict(LedgerRecord{Fault: 3, Status: "detected", Tier: TierPodem, BT: 2, Micros: 11})
	lb.Verdict(LedgerRecord{Fault: 3, Status: "detected", Tier: TierPodem, BT: 2, Micros: 99999})
	if la.Digest() != lb.Digest() {
		t.Error("digests differ on timing-only difference")
	}
	la.Close()
	lb.Close()
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("file bytes should differ (timing is recorded), only the canonical form is blind to it")
	}
	ra, _ := ReadLedger(bytes.NewReader(a.Bytes()))
	rb, _ := ReadLedger(bytes.NewReader(b.Bytes()))
	ca, err := CanonicalLedger(ra)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalLedger(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("canonical forms differ:\n%s\n%s", ca, cb)
	}
}

// TestCanonicalConcatenation pins the resume identity the differential tests
// build on: splitting a record stream across two ledgers and concatenating
// their canonical forms equals the unsplit ledger's canonical form.
func TestCanonicalConcatenation(t *testing.T) {
	emitAll := func(ls ...*Ledger) {
		for _, l := range ls {
			recordFixture(l)
		}
	}
	var whole, part1, part2 bytes.Buffer
	lw, l1, l2 := NewLedger(&whole), NewLedger(&part1), NewLedger(&part2)
	emitAll(lw)
	emitAll(lw)
	emitAll(l1)
	emitAll(l2)
	lw.Close()
	l1.Close()
	l2.Close()
	canon := func(b *bytes.Buffer) []byte {
		recs, err := ReadLedger(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		c, err := CanonicalLedger(recs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if got, want := canon(&whole), append(canon(&part1), canon(&part2)...); !bytes.Equal(got, want) {
		t.Errorf("canonical(whole) != canonical(part1)+canonical(part2)\n%s\nvs\n%s", got, want)
	}
}

func TestNilLedger(t *testing.T) {
	var l *Ledger
	l.Stage(LedgerRecord{Stage: "analyze"})
	l.Verdict(LedgerRecord{Fault: 1})
	l.Iter(LedgerRecord{Iter: 1})
	if l.Events() != 0 || l.Digest() != "" || l.Err() != nil || l.Tail() != nil {
		t.Error("nil ledger accessors not zero")
	}
	ch, cancel := l.Follow()
	if _, open := <-ch; open {
		t.Error("nil Follow channel not closed")
	}
	cancel()
	if err := l.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	// A tracer without an attached ledger reports nil too.
	var tr *Tracer
	tr.AttachLedger(NewLedger(io.Discard))
	if tr.Ledger() != nil {
		t.Error("nil tracer holds a ledger")
	}
}

func TestLedgerFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := CreateLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	recordFixture(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Appending after Close is swallowed, not written.
	l.Verdict(LedgerRecord{Fault: 9, Status: "detected", Tier: TierPodem})

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadLedger(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[4].T != "summary" {
		t.Fatalf("file holds %d records, want 4 + summary", len(recs))
	}
}

func TestLedgerTailAndFollow(t *testing.T) {
	l := NewLedger(io.Discard)
	ch, cancel := l.Follow()
	defer cancel()
	for i := 0; i < ledgerTail+10; i++ {
		l.Verdict(LedgerRecord{Fault: i, Status: "detected", Tier: TierCollateral})
	}
	tail := l.Tail()
	if len(tail) != ledgerTail {
		t.Fatalf("tail holds %d lines, want %d", len(tail), ledgerTail)
	}
	if !strings.Contains(tail[len(tail)-1], fmt.Sprintf(`"fault":%d`, ledgerTail+9)) {
		t.Errorf("tail did not keep the newest line: %s", tail[len(tail)-1])
	}
	if !strings.Contains(tail[0], fmt.Sprintf(`"fault":%d`, 10)) {
		t.Errorf("tail did not evict the oldest lines: %s", tail[0])
	}
	// The follower saw the first lines before its buffer overflowed, and its
	// channel closes with the ledger.
	first := <-ch
	if !strings.Contains(first, `"fault":0`) {
		t.Errorf("follower's first line = %s", first)
	}
	l.Close()
	open := true
	for open {
		_, open = <-ch
	}
}

func TestReadLedgerRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`{"t":"wormhole"}`,
		`{"t":"verdict"`,
		`not json at all`,
	} {
		if _, err := ReadLedger(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ReadLedger(%q) accepted malformed input", bad)
		}
	}
	// Blank lines are tolerated (trailing newline artifacts).
	recs, err := ReadLedger(strings.NewReader("\n\n{\"t\":\"iter\",\"q\":1}\n\n"))
	if err != nil || len(recs) != 1 {
		t.Errorf("blank-line tolerance: recs=%d err=%v", len(recs), err)
	}
}

func TestTierCounts(t *testing.T) {
	var tc TierCounts
	for _, tier := range []Tier{TierCache, TierImplic, TierCollateral, TierPodem, TierSAT, TierSATMemo, Tier("alien")} {
		tc.Add(tier)
	}
	want := TierCounts{Cache: 1, Implic: 1, Collateral: 1, Podem: 1, SAT: 1, SATMemo: 1}
	if tc != want {
		t.Errorf("Add walked the tiers wrong: %+v", tc)
	}
	if tc.Total() != 6 {
		t.Errorf("Total = %d, want 6 (unknown tier dropped)", tc.Total())
	}
	tc.Merge(TierCounts{Podem: 4, SATMemo: 2})
	if tc.Podem != 5 || tc.SATMemo != 3 {
		t.Errorf("Merge: %+v", tc)
	}
}

// The typed record shapes are the encoder's oracle: encodeRecord must render
// every record exactly as encoding/json renders its shape, timing included
// (withTiming) or omitted (the canonical line).
type stageJSON struct {
	T            string     `json:"t"`
	Stage        string     `json:"stage"`
	Circuit      string     `json:"circuit"`
	Gates        int        `json:"gates"`
	Faults       int        `json:"faults"`
	Detected     int        `json:"detected"`
	Undetectable int        `json:"undetectable"`
	Aborted      int        `json:"aborted"`
	Tiers        TierCounts `json:"tiers"`
	Searches     int64      `json:"searches"`
	Backtracks   int64      `json:"backtracks"`
	Conflicts    int64      `json:"conflicts"`
	Micros       int64      `json:"us,omitempty"`
}

type verdictJSON struct {
	T      string `json:"t"`
	Fault  int    `json:"fault"`
	Status string `json:"status"`
	Tier   Tier   `json:"tier"`
	BT     int    `json:"bt,omitempty"`
	Conf   int64  `json:"conf,omitempty"`
	Micros int64  `json:"us,omitempty"`
}

type iterJSON struct {
	T     string     `json:"t"`
	Q     int        `json:"q"`
	Phase int        `json:"phase"`
	Iter  int        `json:"iter"`
	U     int        `json:"u"`
	Smax  int        `json:"smax"`
	F     int        `json:"f"`
	Tiers TierCounts `json:"tiers"`
}

type summaryJSON struct {
	T      string `json:"t"`
	Events int    `json:"events"`
	Digest string `json:"digest"`
}

// marshalShape renders rec through its typed shape with the given timing.
func marshalShape(t *testing.T, rec LedgerRecord, us int64) []byte {
	t.Helper()
	var shape any
	switch rec.T {
	case recStage:
		shape = stageJSON{
			T: recStage, Stage: rec.Stage, Circuit: rec.Circuit,
			Gates: rec.Gates, Faults: rec.Faults,
			Detected: rec.Detected, Undetectable: rec.Undetectable, Aborted: rec.Aborted,
			Tiers: rec.Tiers, Searches: rec.Searches, Backtracks: rec.Backtracks,
			Conflicts: rec.Conflicts, Micros: us,
		}
	case recVerdict:
		shape = verdictJSON{
			T: recVerdict, Fault: rec.Fault, Status: rec.Status, Tier: rec.Tier,
			BT: rec.BT, Conf: rec.Conf, Micros: us,
		}
	case recIter:
		shape = iterJSON{
			T: recIter, Q: rec.Q, Phase: rec.Phase, Iter: rec.Iter,
			U: rec.U, Smax: rec.Smax, F: rec.F, Tiers: rec.Tiers,
		}
	case recSummary:
		shape = summaryJSON{T: recSummary, Events: rec.Events, Digest: rec.Digest}
	default:
		t.Fatalf("no shape for record type %q", rec.T)
	}
	b, err := json.Marshal(shape)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkEncoding asserts that rec's canonical and timed lines equal the
// json.Marshal oracle byte for byte.
func checkEncoding(t *testing.T, rec LedgerRecord) {
	t.Helper()
	canon, err := encodeRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalShape(t, rec, 0); !bytes.Equal(canon, want) {
		t.Fatalf("canonical line\n got %s\nwant %s", canon, want)
	}
	timed := withTiming(canon, rec)
	if want := marshalShape(t, rec, rec.Micros); !bytes.Equal(timed, want) {
		t.Fatalf("timed line\n got %s\nwant %s", timed, want)
	}
}

// escapeStrings need every escape encoding/json applies: quotes and
// backslashes, HTML-sensitive characters, control characters, DEL,
// non-ASCII, the JavaScript line separators, invalid UTF-8 and a lone
// surrogate's bytes.
var escapeStrings = []string{
	"", "plain", `q"uote`, `back\slash`, "<a&b>", "\x00\x01\b\f\n\r\t\x1f", "del\x7f",
	"ü→😀", "ls\u2028ps\u2029", "bad\xff\xfe", "\xed\xa0\x80", "end\\",
}

func TestEncodeRecordMatchesJSON(t *testing.T) {
	ints := []int64{0, 1, -1, 1 << 40, -1 << 40, 1<<63 - 1, -1 << 63}
	for i, s := range escapeStrings {
		n := ints[i%len(ints)]
		tiers := TierCounts{Cache: int(n), SATMemo: i, Podem: -i}
		for _, rec := range []LedgerRecord{
			{T: recStage, Stage: s, Circuit: s, Gates: int(n), Faults: i, Detected: -i,
				Undetectable: int(n), Aborted: i, Tiers: tiers, Searches: n, Backtracks: -n,
				Conflicts: n, Micros: n},
			{T: recVerdict, Fault: int(n), Status: s, Tier: Tier(s), BT: i, Conf: n, Micros: -n},
			{T: recVerdict, Fault: i, Status: s, Tier: TierPodem},
			{T: recIter, Q: int(n), Phase: i, Iter: -i, U: int(n), Smax: i, F: int(-n), Tiers: tiers, Micros: n},
			{T: recIter},
			{T: recSummary, Events: int(n), Digest: s},
		} {
			checkEncoding(t, rec)
		}
	}
	if _, err := encodeRecord(nil, LedgerRecord{T: "wormhole"}); err == nil {
		t.Error("unknown record type encoded")
	}
}

// failWriter accepts limit bytes, then fails every write.
type failWriter struct{ n, limit int }

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, errDiskFull
	}
	w.n += len(p)
	return len(p), nil
}

// TestLedgerWriteErrorSticky: a ledger whose writer fails reports the first
// write error from Err and Close, keeps reporting it, and stops recording.
func TestLedgerWriteErrorSticky(t *testing.T) {
	l := NewLedger(&failWriter{limit: 1000})
	for i := 0; l.Err() == nil; i++ {
		if i == 1000 {
			t.Fatal("1000 verdicts into a 1000-byte writer raised no error")
		}
		l.Verdict(LedgerRecord{Fault: i, Status: "detected", Tier: TierCollateral})
	}
	first := l.Err()
	if !errors.Is(first, errDiskFull) {
		t.Fatalf("Err() = %v, want the writer's error", first)
	}
	events := l.Events()
	l.Iter(LedgerRecord{Q: 1})
	if l.Events() != events {
		t.Error("a failed ledger kept recording")
	}
	if err := l.Close(); err != first {
		t.Errorf("Close() = %v, want the first error %v", err, first)
	}
	if err := l.Close(); err != first {
		t.Errorf("second Close() = %v, want %v", err, first)
	}
	if err := l.Err(); err != first {
		t.Errorf("Err() after Close = %v, want %v", err, first)
	}

	// A writer that fails outright surfaces at Close's flush.
	l = NewLedger(&failWriter{})
	recordFixture(l)
	if err := l.Close(); !errors.Is(err, errDiskFull) || l.Err() != err {
		t.Errorf("Close() = %v, Err() = %v, want the writer's error from both", err, l.Err())
	}
}

// TestSeedPrefix: a ledger seeded with a prefix's records reports the
// digest and event count of prefix plus its own records — the whole job —
// in Digest, Events and its trailing summary, and writes only its own.
func TestSeedPrefix(t *testing.T) {
	var whole, first, rest bytes.Buffer
	lw := NewLedger(&whole)
	recordFixture(lw)
	recordFixture(lw)
	lw.Close()

	l1 := NewLedger(&first)
	recordFixture(l1)
	l1.Close()
	prefix, err := ReadLedger(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	l2 := NewLedger(&rest)
	if err := l2.SeedPrefix(prefix); err != nil {
		t.Fatal(err)
	}
	recordFixture(l2)
	if l2.Digest() != lw.Digest() || l2.Events() != lw.Events() {
		t.Errorf("seeded ledger: %d events %s, whole run: %d events %s",
			l2.Events(), l2.Digest(), lw.Events(), lw.Digest())
	}
	if err := l2.SeedPrefix(prefix); err == nil {
		t.Error("seeding after the first record succeeded")
	}
	l2.Close()
	recs, err := ReadLedger(bytes.NewReader(rest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("seeded ledger wrote %d records, want its own 4 + summary", len(recs))
	}
	// The prefix without its summary, then the seeded ledger, verifies
	// itself against its last summary.
	stitched := append(prefix[:len(prefix)-1:len(prefix)-1], recs...)
	d, err := LedgerDigest(stitched)
	if err != nil {
		t.Fatal(err)
	}
	if last := stitched[len(stitched)-1]; last.Digest != d || last.Events != 8 || d != lw.Digest() {
		t.Errorf("stitched summary %+v, recomputed digest %s, whole-run digest %s", last, d, lw.Digest())
	}
}

// FuzzLedger: the decoder and re-encoder never panic on arbitrary input;
// every record they accept encodes, canonical and timed, exactly as
// json.Marshal renders its typed shape; the writer's digest equals a
// reader's; and canonicalization is a fixed point — decoding the canonical
// form and canonicalizing again is byte-identical.
func FuzzLedger(f *testing.F) {
	var seed bytes.Buffer
	l := NewLedger(&seed)
	recordFixture(l)
	l.Close()
	f.Add(seed.Bytes())
	f.Add([]byte(`{"t":"verdict","fault":0,"status":"detected","tier":"cache"}`))
	f.Add([]byte(`{"t":"stage"}` + "\n" + `{"t":"summary","events":1,"digest":"xyz"}`))
	f.Add([]byte("\x00\xff"))
	for _, s := range escapeStrings {
		q, _ := json.Marshal(s)
		f.Add([]byte(fmt.Sprintf(`{"t":"stage","stage":%s,"circuit":%s,"gates":-7,"faults":9223372036854775807,"tiers":{"sat_memo":-1},"searches":-9223372036854775808,"us":-3}`, q, q)))
		f.Add([]byte(fmt.Sprintf(`{"t":"verdict","fault":-1,"status":%s,"tier":%s,"bt":1099511627776,"conf":-2,"us":9007199254740993}`, q, q)))
		f.Add([]byte(fmt.Sprintf(`{"t":"summary","events":-5,"digest":%s}`, q)))
	}
	f.Add([]byte("{\"t\":\"verdict\",\"status\":\"raw\xff\x01\",\"tier\":\"\xe2\x80\xa8\"}"))
	f.Add([]byte(`{"t":"iter","q":-1,"phase":2147483648,"iter":3,"u":-4,"smax":5,"f":6,"tiers":{"cache":1,"podem":-2},"us":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadLedger(bytes.NewReader(data))
		if err != nil {
			return
		}
		var file bytes.Buffer
		w := NewLedger(&file)
		for _, rec := range recs {
			checkEncoding(t, rec)
			w.append(rec)
		}
		// The writer's file lines are the oracle's timed lines.
		if err := w.w.Flush(); err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, rec := range recs {
			want = append(append(want, marshalShape(t, rec, rec.Micros)...), '\n')
		}
		if !bytes.Equal(file.Bytes(), want) {
			t.Fatalf("writer lines\n%s\nwant\n%s", file.Bytes(), want)
		}
		canon, err := CanonicalLedger(recs)
		if err != nil {
			t.Fatalf("decoded records failed to re-encode: %v", err)
		}
		again, err := ReadLedger(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, canon)
		}
		canon2, err := CanonicalLedger(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonicalization is not a fixed point:\n%s\nvs\n%s", canon, canon2)
		}
		d1, _ := LedgerDigest(recs)
		d2, _ := LedgerDigest(again)
		if d1 != d2 {
			t.Fatalf("digest not stable across canonicalization: %s vs %s", d1, d2)
		}
		if wd := w.Digest(); wd != d1 {
			t.Fatalf("writer digest %s != reader digest %s", wd, d1)
		}
	})
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("bt", 10, 100, 1000)
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // third bucket (100, 1000]
	}
	hs := reg.Snapshot().Histograms["bt"]
	if hs.P50 != 10 {
		t.Errorf("p50 = %g, want 10 (first-bucket mass reports the first bound)", hs.P50)
	}
	if hs.P95 <= 100 || hs.P95 > 1000 {
		t.Errorf("p95 = %g, want within (100, 1000]", hs.P95)
	}
	if !(hs.P50 <= hs.P95 && hs.P95 <= hs.P99) {
		t.Errorf("quantiles not monotone: %g %g %g", hs.P50, hs.P95, hs.P99)
	}

	// Overflow mass clamps to the last bound.
	h2 := reg.Histogram("of", 1, 2)
	for i := 0; i < 10; i++ {
		h2.Observe(99)
	}
	if got := reg.Snapshot().Histograms["of"].P99; got != 2 {
		t.Errorf("overflow p99 = %g, want last bound 2", got)
	}

	// Empty histogram: all quantiles zero.
	reg.Histogram("empty", 1, 2)
	es := reg.Snapshot().Histograms["empty"]
	if es.P50 != 0 || es.P95 != 0 || es.P99 != 0 {
		t.Errorf("empty histogram quantiles: %g %g %g", es.P50, es.P95, es.P99)
	}

	// Degenerate snapshots don't divide by zero or index out of range.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("zero-value snapshot quantile = %g", got)
	}
}

func TestDebugEndpoints(t *testing.T) {
	tr := testTracer()
	ledger := NewLedger(io.Discard)
	tr.AttachLedger(ledger)
	ledger.Verdict(LedgerRecord{Fault: 5, Status: "undetectable", Tier: TierImplic})

	srv, addr, err := ServeDebug(tr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/version"); code != 200 ||
		!strings.Contains(body, Version) || !strings.Contains(body, "go1") {
		t.Errorf("/version = %d %q", code, body)
	}
	if code, body := get("/ledger"); code != 200 || !strings.Contains(body, `"fault":5`) {
		t.Errorf("/ledger = %d %q", code, body)
	}

	// Without a ledger attached, /ledger is explicit about it.
	tr2 := testTracer()
	srv2, addr2, err := ServeDebug(tr2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + addr2.String() + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/ledger without a ledger = %d, want 404", resp.StatusCode)
	}
}
