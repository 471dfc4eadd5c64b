// Package docstore generates and holds the synthetic passage corpora that
// stand in for the paper's document sources (wiki_dpr, 21M Wikipedia
// passages for MMLU; PubMed, 23.9M snippets for MedRAG). Documents are
// clustered around topics: each topic owns a set of keyword tokens, and a
// passage mixes topic keywords with passage-specific tokens, so passages
// about one topic embed near each other and far from other topics —
// exactly the cluster structure Fig. 3 of the paper observes in real query
// embeddings. Corpora are scaled down (thousands instead of millions of
// passages); the vectordb.LatencyModel restores production-scale service
// times.
package docstore

import (
	"fmt"
	"strings"

	"proximity/internal/vec"
)

// Lexicon deterministically generates unique pronounceable pseudo-words.
// All synthetic text in the reproduction (topics, passages, questions,
// synonym families) draws from one lexicon so token collisions between
// unrelated content are impossible by construction.
type Lexicon struct {
	rng  interface{ Uint64() uint64 }
	used map[string]struct{}
}

var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"pa", "pe", "pi", "po", "pu", "ra", "re", "ri", "ro", "ru",
	"sa", "se", "si", "so", "su", "ta", "te", "ti", "to", "tu",
	"va", "ve", "vi", "vo", "vu", "za", "ze", "zi", "zo", "zu",
}

// NewLexicon creates a lexicon seeded for deterministic word generation.
func NewLexicon(seed uint64) *Lexicon {
	return &Lexicon{
		rng:  vec.NewRand(seed),
		used: make(map[string]struct{}),
	}
}

// Word returns a fresh pseudo-word never returned before by this lexicon.
func (l *Lexicon) Word() string {
	for {
		n := 2 + int(l.rng.Uint64()%3) // 2-4 syllables
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(syllables[l.rng.Uint64()%uint64(len(syllables))])
		}
		w := b.String()
		if _, dup := l.used[w]; dup {
			continue
		}
		l.used[w] = struct{}{}
		return w
	}
}

// Words returns n fresh unique pseudo-words.
func (l *Lexicon) Words(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = l.Word()
	}
	return out
}

// SynonymGroup returns n fresh words intended to be registered as one
// synonym family in an embed.Thesaurus; the first element is the
// canonical form.
func (l *Lexicon) SynonymGroup(n int) []string {
	return l.Words(n)
}

// Sentence renders tokens as a capitalized, period-terminated sentence for
// more natural-looking passages.
func Sentence(words []string) string {
	if len(words) == 0 {
		return ""
	}
	s := strings.Join(words, " ")
	return strings.ToUpper(s[:1]) + s[1:] + "."
}

// validatePositive is a tiny helper for config checking.
func validatePositive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("docstore: %s must be positive, got %d", name, v)
	}
	return nil
}
