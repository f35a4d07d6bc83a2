package vstore

import (
	"testing"

	"dfmresyn/internal/fcache"
)

// FuzzVstore drives the segment decoder on arbitrary bytes. Invariants: it
// never panics, goodLen is always a valid truncation point within the input,
// and re-decoding the healthy prefix reproduces exactly the same entries
// (truncating at goodLen is what Open does to heal, so that prefix must be
// stable).
func FuzzVstore(f *testing.F) {
	f.Add([]byte(segHeader))
	f.Add([]byte("garbage"))
	seed := fcache.AppendRecord([]byte(segHeader), mkEntries(5, 1)[0])
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	flipped := append([]byte(nil), seed...)
	flipped[len(segHeader)+4] ^= 0x80
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, goodLen, ok := DecodeSegment(data)
		if !ok {
			if goodLen != 0 || entries != nil {
				t.Fatalf("rejected segment returned goodLen=%d entries=%d", goodLen, len(entries))
			}
			return
		}
		if goodLen < len(segHeader) || goodLen > len(data) {
			t.Fatalf("goodLen %d outside [%d, %d]", goodLen, len(segHeader), len(data))
		}
		for _, e := range entries {
			if e.Key.Zero() {
				t.Fatal("decoder released a zero-key entry")
			}
			if len(e.Init) > fcache.MaxVecLen || len(e.Vec) > fcache.MaxVecLen {
				t.Fatal("decoder released an oversized vector")
			}
		}
		// Healing stability: the healthy prefix decodes to the same entries
		// with nothing further to truncate.
		entries2, goodLen2, ok2 := DecodeSegment(data[:goodLen])
		if !ok2 || goodLen2 != goodLen || len(entries2) != len(entries) {
			t.Fatalf("healed prefix unstable: ok=%v goodLen=%d/%d entries=%d/%d",
				ok2, goodLen2, goodLen, len(entries2), len(entries))
		}
		for i := range entries {
			if entries[i].Key != entries2[i].Key || entries[i].Status != entries2[i].Status {
				t.Fatal("healed prefix decoded different entries")
			}
		}
	})
}
