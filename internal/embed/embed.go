// Package embed provides the embedding-model substrate for the Proximity
// reproduction.
//
// The paper encodes queries and passages with MedCPT (MedRAG) and DPR
// (MMLU), both 768-dimensional neural encoders served outside the cache.
// Neither model is available in this offline, stdlib-only environment, so
// the package substitutes a deterministic token-hash encoder that
// preserves the two properties the paper's evaluation depends on:
//
//  1. semantically equivalent rephrasings of a query land a small L2
//     distance apart (they share canonical content tokens and differ only
//     in low-weight filler), and
//  2. distinct queries land far apart (disjoint content tokens produce
//     near-orthogonal sums in high dimension).
//
// Synonym knowledge — the part of a neural encoder that maps "treatment"
// and "therapy" nearby — is modeled explicitly with a Thesaurus that
// canonicalizes tokens before hashing. The resulting embedding geometry is
// calibrated by the dataset generators (token counts per question) so that
// the paper's tolerance grid τ ∈ {0.5 … 10} spans the same regimes:
// exact-only matching, variant matching, and false-positive-prone
// matching.
package embed

import (
	"hash/fnv"
	"strings"
	"sync"
	"unicode"

	"proximity/internal/vec"
)

// Embedder converts text into a dense vector. Implementations must be
// deterministic and safe for concurrent use; the same text must always map
// to the same vector, as the paper assumes a fixed encoder shared by the
// indexing and query paths (§2.1).
type Embedder interface {
	// Embed returns the embedding of the given text. The returned
	// vector is owned by the caller.
	Embed(text string) vec.Vector
	// Dim returns the embedding dimensionality.
	Dim() int
	// Name identifies the encoder (used in reports).
	Name() string
}

// Option configures a TokenHash embedder.
type Option interface {
	apply(*options)
}

type options struct {
	name      string
	thesaurus *Thesaurus
}

type nameOption string

func (n nameOption) apply(o *options) { o.name = string(n) }

// WithName sets the encoder name reported by Name().
func WithName(name string) Option { return nameOption(name) }

type thesaurusOption struct{ t *Thesaurus }

func (t thesaurusOption) apply(o *options) { o.thesaurus = t.t }

// WithThesaurus installs a synonym table; synonymous tokens share one
// embedding vector.
func WithThesaurus(t *Thesaurus) Option { return thesaurusOption{t: t} }

// TokenHash is the deterministic token-hash encoder. Each canonical token
// deterministically maps to a unit vector; a text embeds as the weighted
// sum of its token vectors. It is safe for concurrent use.
type TokenHash struct {
	dim       int
	seed      uint64
	name      string
	thesaurus *Thesaurus

	mu    sync.RWMutex
	cache map[string]vec.Vector // canonical token -> unit vector
}

var _ Embedder = (*TokenHash)(nil)

// NewTokenHash creates a token-hash encoder of the given dimensionality.
// Two encoders built with the same dim, seed, and thesaurus produce
// identical embeddings. The paper's encoders are 768-dimensional; use
// dataset.Dim768 for fidelity.
func NewTokenHash(dim int, seed uint64, opts ...Option) *TokenHash {
	o := options{name: "tokenhash"}
	for _, opt := range opts {
		opt.apply(&o)
	}
	return &TokenHash{
		dim:       dim,
		seed:      seed,
		name:      o.name,
		thesaurus: o.thesaurus,
		cache:     make(map[string]vec.Vector),
	}
}

// Dim returns the embedding dimensionality.
func (e *TokenHash) Dim() int { return e.dim }

// Name returns the configured encoder name.
func (e *TokenHash) Name() string { return e.name }

// Embed tokenizes, canonicalizes, and sums token vectors. Duplicate tokens
// in one text contribute once per occurrence, like a bag-of-words model.
func (e *TokenHash) Embed(text string) vec.Vector {
	out := make(vec.Vector, e.dim)
	for _, tok := range Tokenize(text) {
		canonical := tok
		if e.thesaurus != nil {
			canonical = e.thesaurus.Canonical(tok)
		}
		w := float32(1)
		if _, stop := stopwords[canonical]; stop {
			w = stopWeight
		}
		vec.AXPY(out, w, e.tokenVector(canonical))
	}
	return out
}

// tokenVector returns (building and caching on first use) the unit vector
// for a canonical token.
func (e *TokenHash) tokenVector(token string) vec.Vector {
	e.mu.RLock()
	v, ok := e.cache[token]
	e.mu.RUnlock()
	if ok {
		return v
	}

	h := fnv.New64a()
	// Writing to an fnv hash never fails.
	_, _ = h.Write([]byte(token))
	rng := vec.NewRand(h.Sum64() ^ e.seed)
	fresh := vec.RandomUnit(rng, e.dim)

	e.mu.Lock()
	defer e.mu.Unlock()
	if existing, ok := e.cache[token]; ok {
		return existing
	}
	e.cache[token] = fresh
	return fresh
}

// Tokenize lower-cases the text and splits it into maximal runs of letters
// and digits. Exported because the rephraser and dataset generators must
// agree with the encoder on token boundaries.
func Tokenize(text string) []string {
	var (
		tokens []string
		cur    strings.Builder
	)
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
			continue
		}
		flush()
	}
	flush()
	return tokens
}

// stopWeight is a stopword token's weight; content tokens weigh 1.
const stopWeight = 0.25

// stopwords is the low-weight token set. Filler words are what the
// workload rephraser perturbs, so they carry reduced weight — the
// mechanism by which rephrasings stay close in embedding space.
var stopwords = func() map[string]struct{} {
	words := []string{
		"a", "an", "the", "is", "are", "was", "were", "be", "been",
		"do", "does", "did", "what", "which", "who", "whom", "whose",
		"when", "where", "why", "how", "can", "could", "should",
		"would", "will", "shall", "may", "might", "must", "of", "in",
		"on", "at", "to", "for", "with", "about", "as", "by", "from",
		"that", "this", "these", "those", "it", "its", "and", "or",
		"not", "no", "yes", "me", "my", "you", "your", "we", "our",
		"they", "their", "he", "she", "his", "her", "them", "i",
		"please", "tell", "explain", "describe", "say", "regarding",
		"concerning", "question", "answer", "following", "best",
	}
	out := make(map[string]struct{}, len(words))
	for _, w := range words {
		out[w] = struct{}{}
	}
	return out
}()
