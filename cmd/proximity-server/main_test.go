package main

import (
	"strings"
	"testing"

	"proximity/internal/dataset"
)

func TestCorpusDocs(t *testing.T) {
	bench, err := dataset.NewMedRAG(dataset.MedRAGConfig{
		Questions: 3, Topics: 2, DocsPerTopic: 2, Dim: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := corpusDocs{bench}
	text, err := docs.Text(0)
	if err != nil || text == "" {
		t.Errorf("Text(0) = %q, %v", text, err)
	}
	if _, err := docs.Text(-1); err == nil {
		t.Error("negative id should error")
	}
	if _, err := docs.Text(bench.Corpus.Len()); err == nil {
		t.Error("out-of-range id should error")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-cache", "warp", "-dim", "16", "-topics", "2",
		"-docs-per-topic", "2", "-questions", "2"}); err == nil {
		t.Error("unknown cache kind should error")
	}
	if err := run([]string{"-policy", "mru"}); err == nil {
		t.Error("unknown policy should error")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should error")
	}
	// A threshold re-weights the router's ring; a local cache, sharded
	// or not, has nothing it acts on.
	small := []string{"-dim", "16", "-topics", "2", "-docs-per-topic", "2", "-questions", "2"}
	for _, flags := range [][]string{
		{"-shards", "2", "-rebalance-threshold", "1.5"},
		{"-cache", "lsh", "-rebalance-threshold", "1.5"},
	} {
		if err := run(append(flags, small...)); err == nil || !strings.Contains(err.Error(), "-peers") {
			t.Errorf("%v: error %v should name -peers", flags, err)
		}
	}
}
