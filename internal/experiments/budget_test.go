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
