package route

import "testing"

// BenchmarkPlanGatherSweep measures the production planner on the
// gather-sweep routing instances: the planning step that takes nearly
// all of a gather-sweep job's execution time.
func BenchmarkPlanGatherSweep(b *testing.B) {
	probs := gatherSweepProblems()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			plan, err := (Prioritized{}).Plan(p)
			if err != nil {
				b.Fatal(err)
			}
			if !plan.Solved {
				b.Fatal("unsolved")
			}
		}
	}
}
