package llm

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// The TTFT model below has no caller outside this file: the benchmarks
// report measured retrieval latency, not modelled TTFT.

// TTFTModel estimates Time To First Token, the end-to-end latency metric
// motivating the paper (§2.2): Shen et al. measure TTFT rising from
// 495 ms to 965 ms once RAG is deployed, with 71.8% of the increase spent
// in the vector-database lookup and the rest in the longer prefill caused
// by the retrieved passages. The model decomposes TTFT as
//
//	TTFT = Base (model prefill + generation of the first token)
//	     + PerDoc × retrievedDocs (longer prefill per passage)
//	     + retrieval (cache and/or database time, measured elsewhere)
//
// so experiments can report how much of the paper's headline TTFT saving
// a given cache configuration realizes.
type TTFTModel struct {
	// Base is the no-RAG time to first token.
	Base time.Duration
	// PerDoc is the extra prefill time per retrieved passage.
	PerDoc time.Duration
}

// ShenTTFT returns the model calibrated to the measurements the paper
// cites: 495 ms without RAG; with RAG (k = 4 passages) the non-retrieval
// overhead is 470 ms × (1 − 0.718) ≈ 132 ms, i.e. ≈ 33 ms per passage.
func ShenTTFT() TTFTModel {
	return TTFTModel{
		Base:   495 * time.Millisecond,
		PerDoc: 33 * time.Millisecond,
	}
}

// Estimate returns the modeled TTFT for a query whose retrieval took the
// given time and returned docs passages.
func (m TTFTModel) Estimate(docs int, retrieval time.Duration) (time.Duration, error) {
	if docs < 0 {
		return 0, fmt.Errorf("llm: negative document count %d", docs)
	}
	if retrieval < 0 {
		return 0, fmt.Errorf("llm: negative retrieval time %v", retrieval)
	}
	return m.Base + time.Duration(docs)*m.PerDoc + retrieval, nil
}

// RetrievalShare returns the fraction of TTFT spent on retrieval under
// this model — the quantity whose measured value (71.8% of the RAG
// overhead) motivates caching the retrieval step rather than the
// generation step.
func (m TTFTModel) RetrievalShare(docs int, retrieval time.Duration) (float64, error) {
	total, err := m.Estimate(docs, retrieval)
	if err != nil {
		return 0, err
	}
	if total == 0 {
		return 0, nil
	}
	return float64(retrieval) / float64(total), nil
}

func TestShenTTFTCalibration(t *testing.T) {
	m := ShenTTFT()
	// No RAG: 495 ms.
	got, err := m.Estimate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 495*time.Millisecond {
		t.Errorf("no-RAG TTFT = %v, want 495ms", got)
	}
	// With RAG: the paper cites 965 ms total, 71.8% of the 470 ms
	// increase in the database lookup (≈ 337 ms) and the rest in
	// prefill. Reconstruct with k=4 passages.
	retrieval := 337 * time.Millisecond
	got, err = m.Estimate(4, retrieval)
	if err != nil {
		t.Fatal(err)
	}
	if got < 950*time.Millisecond || got > 980*time.Millisecond {
		t.Errorf("RAG TTFT = %v, want ≈ 965ms", got)
	}
	share, err := m.RetrievalShare(4, retrieval)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(share-0.35) > 0.03 { // 337 of ≈964 ms
		t.Errorf("retrieval share = %.3f, want ≈ 0.35", share)
	}
}

func TestTTFTCacheSaving(t *testing.T) {
	// A cache hit turns the 337 ms lookup into microseconds; TTFT drops
	// back to within prefill distance of the no-RAG floor.
	m := ShenTTFT()
	hit, err := m.Estimate(4, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := m.Estimate(4, 337*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	saving := miss - hit
	if saving < 330*time.Millisecond {
		t.Errorf("cache hit saving = %v, want ≈ the whole lookup", saving)
	}
}

func TestTTFTValidation(t *testing.T) {
	m := ShenTTFT()
	if _, err := m.Estimate(-1, 0); err == nil {
		t.Error("negative docs should error")
	}
	if _, err := m.Estimate(0, -time.Second); err == nil {
		t.Error("negative retrieval should error")
	}
	if _, err := m.RetrievalShare(-1, 0); err == nil {
		t.Error("RetrievalShare must propagate errors")
	}
}

func TestTTFTZeroModel(t *testing.T) {
	var m TTFTModel
	share, err := m.RetrievalShare(0, 0)
	if err != nil || share != 0 {
		t.Errorf("zero model share = %v, %v", share, err)
	}
}
