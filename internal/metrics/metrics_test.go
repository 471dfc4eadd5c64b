package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestRecall(t *testing.T) {
	tests := []struct {
		name       string
		got, truth []int
		want       float64
	}{
		{name: "perfect", got: []int{1, 2, 3}, truth: []int{1, 2, 3}, want: 1},
		{name: "order irrelevant", got: []int{3, 1, 2}, truth: []int{1, 2, 3}, want: 1},
		{name: "partial", got: []int{1, 9, 8}, truth: []int{1, 2, 3}, want: 1.0 / 3},
		{name: "disjoint", got: []int{7, 8}, truth: []int{1, 2}, want: 0},
		{name: "empty truth", got: []int{1}, truth: nil, want: 1},
		{name: "empty got", got: nil, truth: []int{1, 2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Recall(tt.got, tt.truth); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Recall = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRunCounters(t *testing.T) {
	r := &Run{Name: "test"}
	if r.HitRate() != 0 || r.Accuracy() != 0 || r.MeanRecall() != 0 {
		t.Error("zero-value run should report zeros")
	}
	r.RecordRetrieval(true, time.Microsecond, time.Microsecond)
	r.RecordRetrieval(false, 2*time.Microsecond, 100*time.Millisecond)
	r.RecordRetrieval(false, 3*time.Microsecond, 100*time.Millisecond)
	if r.queries != 3 || r.hits != 1 || r.DBCalls() != 2 {
		t.Errorf("counts: queries=%d hits=%d db=%d", r.queries, r.hits, r.DBCalls())
	}
	if got := r.HitRate(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("HitRate = %v", got)
	}
	if got := r.MeanCacheLookup(); got != 2*time.Microsecond {
		t.Errorf("MeanCacheLookup = %v", got)
	}
	wantMean := (time.Microsecond + 200*time.Millisecond) / 3
	if got := r.MeanRetrieval(); got != wantMean {
		t.Errorf("MeanRetrieval = %v, want %v", got, wantMean)
	}

	r.RecordAnswer(true)
	r.RecordAnswer(true)
	r.RecordAnswer(false)
	if got := r.Accuracy(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}

	r.RecordRecall(1)
	r.RecordRecall(0.5)
	if got := r.MeanRecall(); got != 0.75 {
		t.Errorf("MeanRecall = %v", got)
	}

	s := r.String()
	for _, part := range []string{"test", "queries=3"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q missing %q", s, part)
		}
	}
}

func TestAggregate(t *testing.T) {
	var agg Aggregate
	if agg.HitRate() != 0 || agg.Accuracy() != 0 || agg.Recall() != 0 || agg.MeanRetrieval() != 0 {
		t.Error("empty aggregate should report zeros")
	}
	for seed := 0; seed < 3; seed++ {
		r := &Run{}
		r.RecordRetrieval(true, time.Microsecond, time.Microsecond)
		r.RecordRetrieval(false, time.Microsecond, time.Millisecond)
		r.RecordAnswer(seed != 0) // accuracies 0, 1, 1
		r.RecordRecall(1)
		agg.Add(r)
	}
	if got := agg.HitRate(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("HitRate = %v", got)
	}
	if got := agg.Accuracy(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := agg.Recall(); got != 1 {
		t.Errorf("Recall = %v", got)
	}
}
