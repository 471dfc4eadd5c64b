package batch_test

import (
	"strings"
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
	if _, err := batch.New(ix, batch.Options{Coalesce: batch.CoalesceMode(99)}); err == nil {
		t.Error("unknown coalesce mode should fail")
	}
}

func TestCoalesceModeString(t *testing.T) {
	cases := map[batch.CoalesceMode]string{
		batch.CoalesceExact: "exact",
		batch.CoalesceLSH:   "lsh",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(mode), got, want)
		}
	}
	if got := batch.CoalesceMode(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown mode string %q should carry the value", got)
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
