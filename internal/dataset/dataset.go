// Package dataset builds the three benchmark settings of the paper's
// evaluation (§4.2): MMLU (econometrics questions over a Wikipedia-scale
// corpus), MedRAG (PubMedQA questions over a PubMed-scale corpus), and
// TripClick (a skewed health-search query log). All three are synthetic
// stand-ins generated around topic-clustered corpora; token counts are
// chosen so the embedding geometry reproduces the matching regimes of the
// paper's tolerance grid:
//
//   - rephrased variants of one question embed within τ ≈ 1-3 of each
//     other (cache hits at moderate tolerance);
//   - distinct questions embed τ ≈ 4-7 apart (false-positive hits only at
//     high tolerance, where the paper's accuracy degrades);
//   - gold passages embed closer to their question than any other
//     passage (retrieval returns them, so answer accuracy measures
//     retrieval quality).
package dataset

import (
	"fmt"
	"strings"

	"proximity/internal/docstore"
	"proximity/internal/embed"
	"proximity/internal/llm"
)

// Question is one benchmark question.
type Question struct {
	// ID indexes the question within its benchmark.
	ID int
	// Topic is the corpus topic cluster the question belongs to.
	Topic int
	// Text is the canonical phrasing.
	Text string
	// Gold lists the corpus passage IDs that answer the question.
	Gold []int
}

// VariantStyle controls how query variants are produced, capturing the
// difference between the datasets' rephrasing depth: MMLU variants are
// mostly prefix chatter, while MedRAG variants reword content (which is
// why the paper's MedRAG needs a higher tolerance for the same hit rate).
type VariantStyle struct {
	// ParaphraseProb is the probability that a variant rewords content
	// instead of only prepending chatter.
	ParaphraseProb float64
	// MinSwaps/MaxSwaps bound the content-word inflections per
	// paraphrase.
	MinSwaps, MaxSwaps int
}

// Benchmark bundles a corpus, its questions, the shared encoder, the
// rephrasing machinery, and the calibrated LLM profile.
type Benchmark struct {
	// Name identifies the benchmark in reports ("mmlu", "medrag", ...).
	Name string
	// Corpus is the embedded passage collection.
	Corpus *docstore.Corpus
	// Questions are the canonical benchmark questions.
	Questions []Question
	// Profile is the calibrated answer-probability profile.
	Profile llm.Profile
	// Style controls variant generation.
	Style VariantStyle
	// DefaultK is the retrieval depth used by the paper-shaped
	// experiments.
	DefaultK int

	rephraser *llm.Rephraser
	seed      uint64
}

// Embedder returns the encoder shared by passages and queries.
func (b *Benchmark) Embedder() embed.Embedder { return b.Corpus.Embedder() }

// Dim returns the embedding dimensionality.
func (b *Benchmark) Dim() int { return b.Corpus.Dim() }

// DocTopic resolves a passage ID to its topic (-1 when out of range),
// matching the callback shape llm.Classify expects.
func (b *Benchmark) DocTopic(id int) int {
	if id < 0 || id >= b.Corpus.Len() {
		return -1
	}
	return b.Corpus.Docs[id].Topic
}

// LLMQuestion adapts a benchmark question for the answer simulator.
func (b *Benchmark) LLMQuestion(q Question) llm.Question {
	return llm.Question{ID: q.ID, Topic: q.Topic, Gold: q.Gold}
}

// VariantText returns the idx-th uniform-dataset variant of the question:
// variant 0 is the canonical phrasing; variants ≥ 1 are rephrasings per
// the benchmark's style (§4.2.2's "slight variations").
func (b *Benchmark) VariantText(q Question, idx int) string {
	if idx <= 0 {
		return q.Text
	}
	// Deterministic per (question, variant).
	h := hash3(b.seed, uint64(q.ID), uint64(idx))
	occ := q.ID*31 + idx // distinct chatter per question and variant
	if float64(h%1000)/1000 < b.Style.ParaphraseProb {
		swaps := b.Style.MinSwaps
		if span := b.Style.MaxSwaps - b.Style.MinSwaps; span > 0 {
			swaps += int(h/1000) % (span + 1)
		}
		return b.rephraser.Paraphrase(q.Text, occ, swaps)
	}
	return b.rephraser.PrefixVariant(q.Text, occ)
}

// ParaphraseText returns a globally unique paraphrase of the question for
// its occ-th appearance in a skewed workload (§4.2.2's GPT-4o rewriting;
// the occ counter must be unique across the whole workload).
func (b *Benchmark) ParaphraseText(q Question, occ int) string {
	h := hash3(b.seed, uint64(q.ID), uint64(occ))
	swaps := b.Style.MinSwaps
	if span := b.Style.MaxSwaps - b.Style.MinSwaps; span > 0 {
		swaps += int(h) % (span + 1)
	}
	return b.rephraser.Paraphrase(q.Text, occ, swaps)
}

// config is the shared benchmark-generation parameter set.
type config struct {
	name         string
	topics       int
	docsPerTopic int
	kwPerTopic   int // keywords owned by a topic
	kwPerDoc     int // topic keywords per passage
	docSpecific  int // passage-specific tokens
	questions    int
	qTopicKw     int // topic keywords per question
	qContent     int // question-specific content tokens
	goldPerQ     int // gold passages per question
	goldShared   int // question content tokens repeated in each gold passage
	dim          int
	seed         uint64
	style        VariantStyle
	profile      llm.Profile
	defaultK     int
	synonymFrac  float64 // fraction of question content words given synonym families
}

func (c config) validate() error {
	if c.questions <= 0 {
		return fmt.Errorf("dataset: questions must be positive, got %d", c.questions)
	}
	if c.topics <= 0 {
		return fmt.Errorf("dataset: topics must be positive, got %d", c.topics)
	}
	if c.dim <= 0 {
		return fmt.Errorf("dataset: dim must be positive, got %d", c.dim)
	}
	if c.qTopicKw > c.kwPerTopic {
		return fmt.Errorf("dataset: qTopicKw %d exceeds kwPerTopic %d", c.qTopicKw, c.kwPerTopic)
	}
	if c.goldShared > c.qContent {
		return fmt.Errorf("dataset: goldShared %d exceeds qContent %d", c.goldShared, c.qContent)
	}
	return nil
}

// questionStarters is flavor text drawn from the encoder's stopword list.
var questionStarters = []string{
	"what is", "which of the following is", "how does", "why is",
	"what should", "which is the best",
}

// build generates a benchmark from a config.
func build(c config) (*Benchmark, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	lex := docstore.NewLexicon(c.seed)
	th := embed.NewThesaurus()
	enc := embed.NewTokenHash(c.dim, c.seed, embed.WithThesaurus(th), embed.WithName(c.name+"-encoder"))
	corpus, err := docstore.Generate(docstore.Config{
		NumTopics:        c.topics,
		DocsPerTopic:     c.docsPerTopic,
		KeywordsPerTopic: c.kwPerTopic,
		KeywordsPerDoc:   c.kwPerDoc,
		SpecificPerDoc:   c.docSpecific,
		Seed:             c.seed + 1,
	}, lex, enc)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: corpus: %w", c.name, err)
	}

	b := &Benchmark{
		Name:      c.name,
		Corpus:    corpus,
		Profile:   c.profile,
		Style:     c.style,
		DefaultK:  c.defaultK,
		rephraser: llm.NewRephraser(th, c.seed+2),
		seed:      c.seed + 3,
	}

	rng := newRand(c.seed + 4)
	for id := 0; id < c.questions; id++ {
		topic := id % c.topics
		kw := corpus.Topics[topic].Keywords

		// Topic keywords carried by this question.
		qkw := make([]string, c.qTopicKw)
		perm := rng.Perm(len(kw))
		for i := 0; i < c.qTopicKw; i++ {
			qkw[i] = kw[perm[i]]
		}
		// Question-specific content words; some get synonym families
		// so the rephraser can swap surface forms without drift.
		content := make([]string, c.qContent)
		for i := range content {
			if rng.Float64() < c.synonymFrac {
				group := lex.SynonymGroup(3)
				th.Register(group...)
				content[i] = group[0]
			} else {
				content[i] = lex.Word()
			}
		}

		starter := questionStarters[rng.IntN(len(questionStarters))]
		text := starter + " " + strings.Join(qkw, " ") + " " + strings.Join(content, " ")

		// Gold passages: topic keywords + a slice of the question's
		// content words + fresh specifics, appended to the corpus.
		gold := make([]int, 0, c.goldPerQ)
		for g := 0; g < c.goldPerQ; g++ {
			words := make([]string, 0, c.kwPerDoc+c.goldShared+c.docSpecific/2)
			words = append(words, qkw...)
			words = append(words, content[:c.goldShared]...)
			words = append(words, lex.Words(c.docSpecific/2)...)
			docID, err := corpus.Append(docstore.Sentence(words), topic)
			if err != nil {
				return nil, fmt.Errorf("dataset %s: gold passage: %w", c.name, err)
			}
			gold = append(gold, docID)
		}
		b.Questions = append(b.Questions, Question{ID: id, Topic: topic, Text: text, Gold: gold})
	}
	return b, nil
}

// hash3 is a deterministic integer hash used for per-question variant
// decisions.
func hash3(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}
