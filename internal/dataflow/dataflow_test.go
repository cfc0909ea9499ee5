package dataflow

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleStageSingleToken(t *testing.T) {
	res, err := Simulate([]StageSpec{{Name: "s", II: 1, Latency: 3}}, []Job{{Tokens: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 3 {
		t.Fatalf("total %d, want latency 3", res.TotalCycles)
	}
	if res.Tokens != 1 {
		t.Fatalf("tokens %d", res.Tokens)
	}
}

func TestPipelinedThroughput(t *testing.T) {
	// A full pipeline with II=1 processes n tokens in n-1 + total latency.
	stages := []StageSpec{
		{Name: "a", II: 1, Latency: 2},
		{Name: "b", II: 1, Latency: 5},
		{Name: "c", II: 1, Latency: 1},
	}
	const n = 100
	res, err := Simulate(stages, []Job{{Tokens: n}})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n - 1 + 2 + 5 + 1)
	if res.TotalCycles != want {
		t.Fatalf("total %d, want %d", res.TotalCycles, want)
	}
}

func TestBottleneckStageGovernsThroughput(t *testing.T) {
	// With a stage at II=4, steady-state throughput is one token per 4
	// cycles regardless of the other stages.
	stages := []StageSpec{
		{Name: "fast", II: 1, Latency: 1},
		{Name: "slow", II: 4, Latency: 2},
		{Name: "fast2", II: 1, Latency: 1},
	}
	const n = 50
	res, err := Simulate(stages, []Job{{Tokens: n}})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4*(n-1) + 1 + 2 + 1)
	if res.TotalCycles != want {
		t.Fatalf("total %d, want %d", res.TotalCycles, want)
	}
	// The slow stage should be near 100% utilized.
	util := res.Utilization()[1]
	if util < 0.95 {
		t.Fatalf("bottleneck utilization %.2f", util)
	}
}

func TestSerialJobBarrier(t *testing.T) {
	stages := []StageSpec{{Name: "s", II: 1, Latency: 10}}
	// Two serial single-token jobs: the second starts only after the first
	// exits, so total = 2 × latency.
	res, err := Simulate(stages, []Job{{Tokens: 1}, {Tokens: 1, Serial: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 20 {
		t.Fatalf("serial total %d, want 20", res.TotalCycles)
	}
	// Without Serial, the second token pipelines right behind the first.
	res, err = Simulate(stages, []Job{{Tokens: 1}, {Tokens: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 11 {
		t.Fatalf("pipelined total %d, want 11", res.TotalCycles)
	}
}

func TestStageIIOverride(t *testing.T) {
	stages := []StageSpec{{Name: "gather", II: 1, Latency: 1}}
	res, err := Simulate(stages, []Job{
		{Tokens: 10, StageII: map[string]int{"gather": 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(5*9 + 1)
	if res.TotalCycles != want {
		t.Fatalf("override total %d, want %d", res.TotalCycles, want)
	}
}

func TestTransparentStage(t *testing.T) {
	// II=0 normalizes to 1, Latency<0 to 0.
	stages := []StageSpec{{Name: "nop", II: 0, Latency: -3}}
	res, err := Simulate(stages, []Job{{Tokens: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 4 {
		t.Fatalf("transparent total %d, want 4", res.TotalCycles)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Simulate(nil, []Job{{Tokens: 1}}); !errors.Is(err, ErrNoStages) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Simulate([]StageSpec{{Name: "s", II: 1}}, []Job{{Tokens: 0}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("err = %v", err)
	}
}

func TestStallAccounting(t *testing.T) {
	// Tokens arriving faster than the slow stage accepts must accumulate
	// stall cycles there.
	stages := []StageSpec{
		{Name: "src", II: 1, Latency: 1},
		{Name: "slow", II: 3, Latency: 1},
	}
	res, err := Simulate(stages, []Job{{Tokens: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.StallCycles[1] == 0 {
		t.Fatal("no stalls recorded at the bottleneck")
	}
	if res.StallCycles[0] != 0 {
		t.Fatal("the first stage cannot stall")
	}
}

// utilizationBounded is the TestUtilizationBounded property: every stage's
// utilization lies in [0, 1], and the run takes time exactly when something
// in it does. A zero-latency stage is combinational, so a single token
// through only such stages leaves in cycle 0; any registered stage
// (Latency > 0) or a second token (issued an II later) makes TotalCycles
// positive.
func utilizationBounded(ii1, ii2, lat1, lat2, tokens uint8) bool {
	stages := []StageSpec{
		{Name: "a", II: int(ii1%5) + 1, Latency: int(lat1 % 8)},
		{Name: "b", II: int(ii2%5) + 1, Latency: int(lat2 % 8)},
	}
	n := int(tokens%40) + 1
	res, err := Simulate(stages, []Job{{Tokens: n}})
	if err != nil {
		return false
	}
	for _, u := range res.Utilization() {
		if u < 0 || u > 1.000001 {
			return false
		}
	}
	takesTime := stages[0].Latency > 0 || stages[1].Latency > 0 || n > 1
	return (res.TotalCycles > 0) == takesTime
}

func TestUtilizationBounded(t *testing.T) {
	if err := quick.Check(utilizationBounded, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationBoundedCombinationalToken pins the draw that used to fail
// the property: one token through two zero-latency stages takes 0 cycles.
func TestUtilizationBoundedCombinationalToken(t *testing.T) {
	if !utilizationBounded(0x3, 0x17, 0x70, 0x50, 0x78) {
		t.Fatal("one token through two combinational stages")
	}
	res, err := Simulate([]StageSpec{{Name: "a", II: 4}, {Name: "b", II: 4}}, []Job{{Tokens: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 0 {
		t.Fatalf("one combinational token took %d cycles", res.TotalCycles)
	}
}

func TestMonotoneInTokens(t *testing.T) {
	stages := []StageSpec{
		{Name: "a", II: 2, Latency: 3},
		{Name: "b", II: 1, Latency: 2},
	}
	prev := int64(0)
	for n := 1; n <= 20; n++ {
		res, err := Simulate(stages, []Job{{Tokens: n}})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCycles <= prev {
			t.Fatalf("not monotone at %d tokens: %d <= %d", n, res.TotalCycles, prev)
		}
		prev = res.TotalCycles
	}
}

func TestString(t *testing.T) {
	res, err := Simulate([]StageSpec{{Name: "gemm", II: 1, Latency: 1}}, []Job{{Tokens: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); !strings.Contains(s, "gemm") {
		t.Fatalf("String: %q", s)
	}
}

func TestManySerialJobsMatchSum(t *testing.T) {
	// k serial jobs of one token each over total latency L take k·L cycles.
	stages := []StageSpec{
		{Name: "a", II: 1, Latency: 2},
		{Name: "b", II: 1, Latency: 3},
	}
	jobs := make([]Job, 7)
	for i := range jobs {
		jobs[i] = Job{Tokens: 1, Serial: true}
	}
	res, err := Simulate(stages, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 7*5 {
		t.Fatalf("serial chain total %d, want 35", res.TotalCycles)
	}
}
