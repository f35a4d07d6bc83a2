package resyn

import (
	"path/filepath"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/fault"
	"dfmresyn/internal/fcache"
	"dfmresyn/internal/flow"
)

// benchVerdict is a synthetic Detected verdict with a 128-input witness.
func benchVerdict(i int) (fcache.Key, fcache.Entry) {
	vec := make([]uint8, 128)
	for j := range vec {
		vec[j] = uint8(i>>uint(j%16)) & 1
	}
	return fcache.Key{uint64(i) + 1, uint64(i) * 0x9e3779b97f4a7c15}, fcache.Entry{Status: fault.Detected, Vec: vec}
}

// BenchmarkCheckpointCommit times one checkpoint of a sweep whose verdict
// cache was prewarmed with 40k entries, at commits that each follow 500 new
// verdicts: the per-commit journal cost the verdict log makes proportional
// to what the commit added.
func BenchmarkCheckpointCommit(b *testing.B) {
	const warm, perCommit = 40000, 500
	env := flow.NewEnv()
	env.FaultCache = fcache.New()
	prewarm := make([]fcache.ExportedEntry, warm)
	for i := range prewarm {
		k, e := benchVerdict(i)
		prewarm[i] = fcache.ExportedEntry{Key: k, Status: e.Status, Vec: e.Vec}
	}
	env.FaultCache.ImportWarm(prewarm)
	c := bench.MustBuild("wb_conmax", env.Lib)
	text, err := circuitText(c)
	if err != nil {
		b.Fatal(err)
	}
	s := &state{
		env:     env,
		opt:     Options{Journal: filepath.Join(b.TempDir(), "sweep.ckpt")}.withDefaults(),
		orig:    &flow.Design{C: c},
		commits: []commitRecord{{Q: 0, Phase: 1, Iter: 0, Circuit: text}},
	}
	defer s.vlog.close()
	// The first commit writes the prewarmed verdicts once.
	if err := s.writeCheckpoint(1, 0, 0); err != nil {
		b.Fatal(err)
	}
	next := warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < perCommit; j++ {
			env.FaultCache.Store(benchVerdict(next))
			next++
		}
		b.StartTimer()
		if err := s.writeCheckpoint(1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
