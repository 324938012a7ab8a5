package experiments

import "testing"

// buildAllocBudget caps the bytes a cold quick seed-1 build allocates.
// The build measured about 4.23 MB with each probe invocation's time
// stored once per invocation record (dataset.Echoes); storing it with
// every sample, as 16-byte RTT and loss samples, took about 6.44 MB.
const buildAllocBudget = 4_400_000

// TestBuildAllocationBudget keeps the campaigns' sample storage
// compact: a quick build that allocates more than buildAllocBudget
// fails.
func TestBuildAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several quick builds")
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Build(Config{Seed: 1, Preset: Quick}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > buildAllocBudget {
		t.Errorf("a quick build allocates %d B, budget %d B", got, buildAllocBudget)
	} else {
		t.Logf("a quick build allocates %d B (budget %d B, %d runs)", got, buildAllocBudget, res.N)
	}
}

// figure9AllocBudget caps the bytes one Figure 9 run allocates on the
// quick seed-1 suite. It measured about 0.72 MB when the bucketed
// figures read the batch engine's rows directly, about 1.04 MB when
// single-best queries built a path set per pair, and about 0.51 MB
// with single-best queries returning the engine's rows as they are.
const figure9AllocBudget = 720_000

// TestFigure9AllocationBudget keeps single-best queries free of
// per-pair path sets: a Figure 9 run that allocates more than
// figure9AllocBudget fails.
func TestFigure9AllocationBudget(t *testing.T) {
	s := testSuite(t)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Figure9(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > figure9AllocBudget {
		t.Errorf("Figure 9 allocates %d B, budget %d B", got, figure9AllocBudget)
	} else {
		t.Logf("Figure 9 allocates %d B (budget %d B, %d runs)", got, figure9AllocBudget, res.N)
	}
}
