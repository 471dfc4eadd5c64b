package docstore

import (
	"fmt"

	"proximity/internal/embed"
	"proximity/internal/vec"
)

// Document is one retrievable passage. Its ID is its index in
// Corpus.Docs.
type Document struct {
	Text  string
	Topic int // index into Corpus.Topics, -1 for topic-less appends
}

// Topic is a cluster of related passages; its keywords are the shared
// tokens that pull the cluster together in embedding space.
type Topic struct {
	Keywords []string
}

// Config parameterizes corpus generation. The token-count knobs control
// the embedding geometry: passages of the same topic differ in
// SpecificPerDoc tokens, passages of different topics additionally differ
// in their share of topic keywords.
type Config struct {
	NumTopics        int    // number of topic clusters
	DocsPerTopic     int    // passages generated per topic
	KeywordsPerTopic int    // keyword tokens owned by each topic (default 6)
	KeywordsPerDoc   int    // topic keywords included in each passage (default 4)
	SpecificPerDoc   int    // passage-specific tokens (default 8)
	Seed             uint64 // generation seed
}

func (c *Config) fillDefaults() {
	if c.KeywordsPerTopic == 0 {
		c.KeywordsPerTopic = 6
	}
	if c.KeywordsPerDoc == 0 {
		c.KeywordsPerDoc = 4
	}
	if c.SpecificPerDoc == 0 {
		c.SpecificPerDoc = 8
	}
}

func (c Config) validate() error {
	if err := validatePositive("NumTopics", c.NumTopics); err != nil {
		return err
	}
	if err := validatePositive("DocsPerTopic", c.DocsPerTopic); err != nil {
		return err
	}
	if c.KeywordsPerDoc > c.KeywordsPerTopic {
		return fmt.Errorf("docstore: KeywordsPerDoc (%d) exceeds KeywordsPerTopic (%d)",
			c.KeywordsPerDoc, c.KeywordsPerTopic)
	}
	return nil
}

// Corpus is an embedded document collection. It is the unit handed to a
// vector index for the indexing phase of the RAG workflow (Fig. 1, steps
// ➊-➋). Not safe for concurrent mutation; build fully, then share.
type Corpus struct {
	Docs       []Document
	Embeddings []vec.Vector // parallel to Docs
	Topics     []Topic

	embedder embed.Embedder
}

// Generate builds a topic-clustered corpus using words from the lexicon
// and embeddings from the embedder.
func Generate(cfg Config, lex *Lexicon, e embed.Embedder) (*Corpus, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := vec.NewRand(cfg.Seed)
	c := &Corpus{
		Docs:       make([]Document, 0, cfg.NumTopics*cfg.DocsPerTopic),
		Embeddings: make([]vec.Vector, 0, cfg.NumTopics*cfg.DocsPerTopic),
		Topics:     make([]Topic, cfg.NumTopics),
		embedder:   e,
	}
	for t := 0; t < cfg.NumTopics; t++ {
		// Draw one word and drop it: the lexicon's later words, and so
		// every generated corpus, depend on this draw.
		lex.Word()
		c.Topics[t] = Topic{Keywords: lex.Words(cfg.KeywordsPerTopic)}
		for d := 0; d < cfg.DocsPerTopic; d++ {
			words := make([]string, 0, cfg.KeywordsPerDoc+cfg.SpecificPerDoc)
			words = append(words, pickK(rng, c.Topics[t].Keywords, cfg.KeywordsPerDoc)...)
			words = append(words, lex.Words(cfg.SpecificPerDoc)...)
			c.appendDoc(Sentence(words), t)
		}
	}
	return c, nil
}

// Append embeds and adds a passage, returning its document ID. topic may
// be -1 for unclustered content; otherwise it must identify an existing
// topic.
func (c *Corpus) Append(text string, topic int) (int, error) {
	if topic >= len(c.Topics) {
		return 0, fmt.Errorf("docstore: topic %d out of range (have %d)", topic, len(c.Topics))
	}
	if topic < -1 {
		return 0, fmt.Errorf("docstore: invalid topic %d", topic)
	}
	return c.appendDoc(text, topic), nil
}

func (c *Corpus) appendDoc(text string, topic int) int {
	id := len(c.Docs)
	c.Docs = append(c.Docs, Document{Text: text, Topic: topic})
	c.Embeddings = append(c.Embeddings, c.embedder.Embed(text))
	return id
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.Docs) }

// Dim returns the embedding dimensionality.
func (c *Corpus) Dim() int { return c.embedder.Dim() }

// Embedder returns the encoder shared by documents and queries.
func (c *Corpus) Embedder() embed.Embedder { return c.embedder }

// Vector returns the embedding of document id. It implements the
// vectordb.VectorSource contract used by cache re-ranking.
func (c *Corpus) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= len(c.Embeddings) {
		return nil, fmt.Errorf("docstore: document %d out of range (have %d)", id, len(c.Embeddings))
	}
	return c.Embeddings[id], nil
}

// pickK samples k distinct elements from words in deterministic order
// derived from rng. k must be ≤ len(words) (validated by Config).
func pickK(rng interface{ Uint64() uint64 }, words []string, k int) []string {
	idx := make([]int, len(words))
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher-Yates: shuffle only the prefix we need.
	for i := 0; i < k; i++ {
		j := i + int(rng.Uint64()%uint64(len(idx)-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = words[idx[i]]
	}
	return out
}
