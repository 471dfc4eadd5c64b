package batch_test

import (
	"testing"

	"proximity/internal/batch"
	"proximity/internal/vec"
)

func TestConstructorValidation(t *testing.T) {
	ix := buildIVF(t, 20, 4, 1)
	if _, err := batch.NewCoalescer(nil, func(vec.Vector) uint32 { return 0 }); err == nil {
		t.Error("NewCoalescer(nil inner) should fail")
	}
	if _, err := batch.NewCoalescer(ix, nil); err == nil {
		t.Error("NewCoalescer(nil key) should fail")
	}
	if _, err := batch.New(nil, batch.Options{}); err == nil {
		t.Error("New(nil db) should fail")
	}
}

func TestQueueStatsMeanBatch(t *testing.T) {
	var s batch.QueueStats
	if s.MeanBatch() != 0 {
		t.Error("MeanBatch before any flush should be 0")
	}
	s = batch.QueueStats{Enqueued: 12, Flushes: 3}
	if got := s.MeanBatch(); got != 4 {
		t.Errorf("MeanBatch = %v, want 4", got)
	}
	var p batch.Stats
	if p.CoalesceRate() != 0 {
		t.Error("empty pipeline stats should report zeros")
	}
}
