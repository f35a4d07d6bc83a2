package resyn

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/resilience"
)

// validCheckpoint builds a structurally consistent checkpoint for the
// decoder tests; the circuit text only has to be non-empty here (replay,
// not decode, parses it).
func validCheckpoint() *Checkpoint {
	return &Checkpoint{
		CircuitName: "test_ckt",
		OrigCRC:     0xdeadbeef,
		Seed:        1,
		Opt:         optPrint{P1: 0.01, MaxQ: 5, MaxItersPhase: 40},
		Q:           2,
		Phase:       1,
		NextIter:    4,
		Gen:         3,
		Commits: []commitRecord{
			{Q: 1, Phase: 1, Iter: 0, Circuit: "xckt a\n"},
			{Q: 2, Phase: 1, Iter: 1, Circuit: "xckt b\n"},
			{Q: 2, Phase: 1, Iter: 3, Circuit: "xckt c\n"},
		},
	}
}

func encodeCk(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	data, err := resilience.Encode(checkpointKind, checkpointVersion, ck)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeCheckpointInvariants: a journal that frames correctly but
// violates the sweep's structural invariants is rejected as corrupt —
// resuming it would silently run wrong state.
func TestDecodeCheckpointInvariants(t *testing.T) {
	if _, err := decodeCheckpoint(encodeCk(t, validCheckpoint())); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	mutations := map[string]func(*Checkpoint){
		"phase zero":        func(ck *Checkpoint) { ck.Phase = 0 },
		"phase three":       func(ck *Checkpoint) { ck.Phase = 3 },
		"negative q":        func(ck *Checkpoint) { ck.Q = -1 },
		"q beyond sweep":    func(ck *Checkpoint) { ck.Q = ck.Opt.MaxQ + 1 },
		"nextIter zero":     func(ck *Checkpoint) { ck.NextIter = 0 },
		"nextIter overflow": func(ck *Checkpoint) { ck.NextIter = ck.Opt.MaxItersPhase + 1 },
		"no commits":        func(ck *Checkpoint) { ck.Commits = nil },
		"gen regressed":     func(ck *Checkpoint) { ck.Gen = len(ck.Commits) - 1 },
		"position mismatch": func(ck *Checkpoint) { ck.Commits[len(ck.Commits)-1].Iter = 9 },
		"empty circuit":     func(ck *Checkpoint) { ck.Commits[0].Circuit = "" },
	}
	for name, mutate := range mutations {
		ck := validCheckpoint()
		mutate(ck)
		if _, err := decodeCheckpoint(encodeCk(t, ck)); !errors.Is(err, resilience.ErrCorrupt) {
			t.Errorf("%s: decodeCheckpoint = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecodeCheckpointForeignJournal: the wrong kind and the wrong schema
// version are distinguished from damage.
func TestDecodeCheckpointForeignJournal(t *testing.T) {
	other, err := resilience.Encode("other-kind", checkpointVersion, validCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(other); !errors.Is(err, resilience.ErrKind) {
		t.Errorf("foreign kind: %v, want ErrKind", err)
	}
	future, err := resilience.Encode(checkpointKind, checkpointVersion+1, validCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(future); !errors.Is(err, resilience.ErrVersion) {
		t.Errorf("future version: %v, want ErrVersion", err)
	}
	// v2 carried the verdict cache inline; it is refused, not misread.
	v2, err := resilience.Encode(checkpointKind, 2, validCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(v2); !errors.Is(err, resilience.ErrVersion) {
		t.Errorf("v2 journal: %v, want ErrVersion", err)
	}
}

// validLog returns a verdict log of a few verdicts and a journal of
// validCheckpoint that vouches for all of it.
func validLog(t testing.TB) (journal, log []byte) {
	for i := 0; i < 4; i++ {
		e := fcache.ExportedEntry{Key: fcache.Key{uint64(i) + 1, 7}, Status: fault.Undetectable}
		if i%2 == 0 {
			e.Status, e.Vec = fault.Detected, []uint8{1, 0, uint8(i)}
		}
		log = fcache.AppendRecord(log, e)
	}
	ck := validCheckpoint()
	ck.VerdictLog, ck.LogBytes, ck.LogCRC = "sweep.ckpt.vlog", int64(len(log)), crc32.ChecksumIEEE(log)
	journal, err := resilience.Encode(checkpointKind, checkpointVersion, ck)
	if err != nil {
		t.Fatal(err)
	}
	return journal, log
}

// FuzzCheckpointDecode: truncations, bit flips, version bumps and arbitrary
// garbage, in the journal or in the verdict log it names, must never panic
// the loader and must never yield a checkpoint that violates the invariants
// Resume depends on — a clean error every time, or a structurally
// consistent checkpoint whose verdicts re-encode to exactly the log prefix
// the journal vouches for.
func FuzzCheckpointDecode(f *testing.F) {
	good, log := validLog(f)
	f.Add(good, log)
	f.Add(good[:len(good)/2], log)
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-5] ^= 0x20
	f.Add(flipped, log)
	f.Add([]byte("dfmresyn-journal v99 resyn-sweep 2 00000000\n{}"), log)
	f.Add([]byte(""), []byte(""))
	f.Add(good, log[:len(log)-1])
	flippedLog := append([]byte{}, log...)
	flippedLog[len(flippedLog)/2] ^= 0x04
	f.Add(good, flippedLog)
	f.Add(good, append(append([]byte{}, log...), 0xd5, 0x1e, 0x02))
	f.Fuzz(func(t *testing.T, data, log []byte) {
		ck, err := decodeWithLog(data, func(string) ([]byte, error) { return log, nil })
		if err != nil {
			if !errors.Is(err, resilience.ErrCorrupt) &&
				!errors.Is(err, resilience.ErrKind) &&
				!errors.Is(err, resilience.ErrVersion) {
				t.Fatalf("rejection without a journal sentinel: %v", err)
			}
			return
		}
		if ck.Phase != 1 && ck.Phase != 2 {
			t.Fatalf("accepted checkpoint with phase %d", ck.Phase)
		}
		if len(ck.Commits) == 0 {
			t.Fatal("accepted checkpoint with no commits")
		}
		last := ck.Commits[len(ck.Commits)-1]
		if last.Iter != ck.NextIter-1 {
			t.Fatal("accepted checkpoint whose position disagrees with its last commit")
		}
		if ck.LogBytes < 0 || ck.LogBytes > int64(len(log)) {
			t.Fatalf("accepted a %d-byte prefix of a %d-byte log", ck.LogBytes, len(log))
		}
		var again []byte
		for _, e := range ck.verdicts {
			again = fcache.AppendRecord(again, e)
		}
		if !bytes.Equal(again, log[:ck.LogBytes]) {
			t.Fatal("accepted verdicts do not re-encode to the journaled log prefix")
		}
	})
}
