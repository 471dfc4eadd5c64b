// Package llm provides the language-model substrates of the reproduction:
// a calibrated answer simulator standing in for LLaMA 3.1 Instruct (the
// paper's generator) and a deterministic rephraser standing in for the
// GPT-4o query rewriting used to build the MedRAG-Zipf workload (§4.2.2).
//
// The paper measures end-to-end test accuracy as a function of retrieved
// context quality: gold passages help, same-domain passages are neutral,
// and off-topic passages mislead (the τ=10 MedRAG accuracy collapse in
// Fig. 6a). The simulator reproduces exactly this causal structure with
// per-question deterministic difficulty draws, making accuracy a pure
// measurement of retrieval quality — the role it plays in the paper —
// while remaining reproducible across runs.
package llm

import (
	"fmt"
	"hash/fnv"
)

// ContextQuality classifies the retrieved passages for one question, in
// decreasing order of helpfulness.
type ContextQuality int

const (
	// ContextGold means at least one of the question's gold passages
	// was retrieved.
	ContextGold ContextQuality = iota + 1
	// ContextTopic means no gold passage, but at least one retrieved
	// passage shares the question's topic.
	ContextTopic
	// ContextMisleading means passages were retrieved but none match
	// the question's topic.
	ContextMisleading
	// ContextNone means no passages were retrieved (the no-RAG floor).
	ContextNone
)

// String implements fmt.Stringer.
func (c ContextQuality) String() string {
	switch c {
	case ContextGold:
		return "gold"
	case ContextTopic:
		return "topic"
	case ContextMisleading:
		return "misleading"
	case ContextNone:
		return "none"
	default:
		return fmt.Sprintf("quality(%d)", int(c))
	}
}

// Profile holds the per-benchmark answer probabilities. Values are
// calibrated to the endpoints the paper reports (§4.3.1).
type Profile struct {
	// PGold is accuracy with gold context (paper: RAG accuracy with
	// a perfect retriever).
	PGold float64
	// PTopic is accuracy with same-topic but non-gold context.
	PTopic float64
	// PNone is the no-RAG floor (paper: 48% MMLU, 57% MedRAG).
	PNone float64
	// PMisled is accuracy with off-topic context; below PNone when
	// wrong passages actively hurt (paper: 37% MedRAG at τ=10).
	PMisled float64
}

func (p Profile) validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"PGold", p.PGold}, {"PTopic", p.PTopic}, {"PNone", p.PNone}, {"PMisled", p.PMisled},
	} {
		if v.val < 0 || v.val > 1 {
			return fmt.Errorf("llm: %s must be a probability, got %v", v.name, v.val)
		}
	}
	return nil
}

// MMLUProfile matches the paper's MMLU econometrics endpoints: 50.2% with
// RAG, 48% without, and a mild penalty for wrong context (Fig. 6a top:
// accuracy stays near the floor even at τ=10).
func MMLUProfile() Profile {
	return Profile{PGold: 0.502, PTopic: 0.49, PNone: 0.48, PMisled: 0.47}
}

// MedRAGProfile matches the paper's MedRAG endpoints: 87.1% with RAG, 57%
// without, and a collapse to ~37% when misleading passages are injected
// (Fig. 6a bottom, τ=10).
func MedRAGProfile() Profile {
	return Profile{PGold: 0.871, PTopic: 0.78, PNone: 0.57, PMisled: 0.37}
}

// Answerer simulates multiple-choice answering. It is stateless and safe
// for concurrent use.
type Answerer struct {
	profile Profile
	seed    uint64
}

// NewAnswerer creates a simulator with the given profile and seed. The
// seed plays the role of the paper's per-run randomness: experiments
// average five seeds (§4.2.4).
func NewAnswerer(profile Profile, seed uint64) (*Answerer, error) {
	if err := profile.validate(); err != nil {
		return nil, err
	}
	return &Answerer{profile: profile, seed: seed}, nil
}

// Question is the minimal view of a benchmark question the simulator
// needs.
type Question struct {
	// ID identifies the question; difficulty draws key on it.
	ID int
	// Topic is the question's topic cluster.
	Topic int
	// Gold lists the passage IDs that answer the question.
	Gold []int
}

// Classify grades a retrieved context. docTopic resolves a passage ID to
// its topic cluster (return -1 for unclustered passages).
func Classify(q Question, docs []int, docTopic func(int) int) ContextQuality {
	if len(docs) == 0 {
		return ContextNone
	}
	gold := make(map[int]struct{}, len(q.Gold))
	for _, g := range q.Gold {
		gold[g] = struct{}{}
	}
	topical := false
	for _, d := range docs {
		if _, ok := gold[d]; ok {
			return ContextGold
		}
		if docTopic != nil && docTopic(d) == q.Topic {
			topical = true
		}
	}
	if topical {
		return ContextTopic
	}
	return ContextMisleading
}

// Correct reports whether the simulated model answers the question
// correctly given the retrieved passages. Deterministic for a fixed
// (question, seed): a question has one latent difficulty draw, so better
// context can only help — a question answered correctly with misleading
// context is also correct with gold context, mirroring how retrieval
// quality shifts aggregate accuracy without flipping easy questions.
func (a *Answerer) Correct(q Question, docs []int, docTopic func(int) int) bool {
	p := a.probability(Classify(q, docs, docTopic))
	return a.difficulty(q.ID) < p
}

func (a *Answerer) probability(quality ContextQuality) float64 {
	switch quality {
	case ContextGold:
		return a.profile.PGold
	case ContextTopic:
		return a.profile.PTopic
	case ContextMisleading:
		return a.profile.PMisled
	default:
		return a.profile.PNone
	}
}

// difficulty maps (question ID, seed) to a uniform draw in [0, 1).
func (a *Answerer) difficulty(questionID int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(questionID >> (8 * i))
		buf[8+i] = byte(a.seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}
