package docstore

import (
	"slices"
	"strings"
	"testing"

	"proximity/internal/embed"
	"proximity/internal/vec"
)

func TestLexiconUniqueness(t *testing.T) {
	lex := NewLexicon(1)
	seen := make(map[string]struct{})
	for i := 0; i < 5000; i++ {
		w := lex.Word()
		if _, dup := seen[w]; dup {
			t.Fatalf("duplicate word %q at iteration %d", w, i)
		}
		seen[w] = struct{}{}
	}
	if len(lex.used) != 5000 {
		t.Errorf("%d words recorded, want 5000", len(lex.used))
	}
}

func TestLexiconDeterminism(t *testing.T) {
	a, b := NewLexicon(7), NewLexicon(7)
	for i := 0; i < 100; i++ {
		if a.Word() != b.Word() {
			t.Fatal("same seed must generate the same word sequence")
		}
	}
	c := NewLexicon(8)
	if a.Word() == c.Word() {
		t.Log("note: different seeds coincidentally agreed once (allowed)")
	}
}

func TestLexiconWordsAndSynonymGroup(t *testing.T) {
	lex := NewLexicon(2)
	ws := lex.Words(5)
	if len(ws) != 5 {
		t.Fatalf("Words(5) returned %d", len(ws))
	}
	g := lex.SynonymGroup(3)
	if len(g) != 3 {
		t.Fatalf("SynonymGroup(3) returned %d", len(g))
	}
	all := append(append([]string{}, ws...), g...)
	seen := make(map[string]struct{})
	for _, w := range all {
		if _, dup := seen[w]; dup {
			t.Fatalf("duplicate %q across Words/SynonymGroup", w)
		}
		seen[w] = struct{}{}
	}
}

func TestSentenceAndJoin(t *testing.T) {
	if got := Sentence([]string{"alpha", "beta"}); got != "Alpha beta." {
		t.Errorf("Sentence = %q", got)
	}
	if got := Sentence(nil); got != "" {
		t.Errorf("Sentence(nil) = %q", got)
	}
	if got := Sentence([]string{"a", "b", "c"}); got != "A b c." {
		t.Errorf("Sentence joins words with single spaces: got %q", got)
	}
}

func testEmbedder() embed.Embedder {
	return embed.NewTokenHash(128, 99, embed.WithName("test"))
}

func TestGenerateValidation(t *testing.T) {
	lex := NewLexicon(3)
	e := testEmbedder()
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "zero topics", cfg: Config{NumTopics: 0, DocsPerTopic: 2}},
		{name: "zero docs", cfg: Config{NumTopics: 2, DocsPerTopic: 0}},
		{name: "keywords per doc too large", cfg: Config{NumTopics: 1, DocsPerTopic: 1, KeywordsPerTopic: 3, KeywordsPerDoc: 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg, lex, e); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	lex := NewLexicon(4)
	c, err := Generate(Config{NumTopics: 5, DocsPerTopic: 10, Seed: 1}, lex, testEmbedder())
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 50 {
		t.Errorf("Len = %d, want 50", c.Len())
	}
	if len(c.Topics) != 5 {
		t.Errorf("topics = %d", len(c.Topics))
	}
	if c.Dim() != 128 {
		t.Errorf("Dim = %d", c.Dim())
	}
	perTopic := make([]int, 5)
	for id, d := range c.Docs {
		if d.Topic < 0 || d.Topic >= 5 {
			t.Fatalf("doc %d: topic %d", id, d.Topic)
		}
		perTopic[d.Topic]++
	}
	for tid, n := range perTopic {
		if n != 10 {
			t.Errorf("topic %d has %d docs", tid, n)
		}
	}
}

func TestGenerateDocsContainTopicKeywords(t *testing.T) {
	lex := NewLexicon(5)
	c, err := Generate(Config{NumTopics: 3, DocsPerTopic: 4, KeywordsPerTopic: 6, KeywordsPerDoc: 4, Seed: 2}, lex, testEmbedder())
	if err != nil {
		t.Fatal(err)
	}
	for id, doc := range c.Docs {
		kw := c.Topics[doc.Topic].Keywords
		found := 0
		lower := strings.ToLower(doc.Text)
		for _, w := range kw {
			if strings.Contains(lower, w) {
				found++
			}
		}
		if found < 4 {
			t.Errorf("doc %d contains only %d topic keywords: %q", id, found, doc.Text)
		}
	}
}

func TestTopicClusterGeometry(t *testing.T) {
	// Same-topic passages must embed closer than cross-topic passages on
	// average — the cluster structure of Fig. 3.
	lex := NewLexicon(6)
	c, err := Generate(Config{NumTopics: 4, DocsPerTopic: 8, Seed: 3}, lex, testEmbedder())
	if err != nil {
		t.Fatal(err)
	}
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < c.Len(); i++ {
		for j := i + 1; j < c.Len(); j++ {
			d := float64(vec.L2(c.Embeddings[i], c.Embeddings[j]))
			if c.Docs[i].Topic == c.Docs[j].Topic {
				same += d
				nSame++
			} else {
				cross += d
				nCross++
			}
		}
	}
	same /= float64(nSame)
	cross /= float64(nCross)
	if same >= cross {
		t.Errorf("same-topic mean distance %v should be below cross-topic %v", same, cross)
	}
}

func TestAppend(t *testing.T) {
	lex := NewLexicon(7)
	c, err := Generate(Config{NumTopics: 2, DocsPerTopic: 2, Seed: 4}, lex, testEmbedder())
	if err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	id, err := c.Append("custom gold passage", 1)
	if err != nil {
		t.Fatal(err)
	}
	if id != n {
		t.Errorf("Append ID = %d, want %d", id, n)
	}
	if c.Len() != n+1 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Docs[id].Topic != 1 {
		t.Errorf("appended doc has topic %d, want 1", c.Docs[id].Topic)
	}

	topicless, err := c.Append("floating passage", -1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Docs[topicless].Topic != -1 {
		t.Error("topic-less append should record topic -1")
	}

	if _, err := c.Append("bad", 99); err == nil {
		t.Error("append to unknown topic should error")
	}
	if _, err := c.Append("bad", -2); err == nil {
		t.Error("append with invalid topic should error")
	}
}

// TestNewEmptyAndVector: a corpus built empty and filled only through
// Append serves its embeddings through Vector.
func TestNewEmptyAndVector(t *testing.T) {
	c := &Corpus{embedder: testEmbedder()}
	if c.Len() != 0 {
		t.Fatal("empty corpus should have no docs")
	}
	id, err := c.Append("hello world", -1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Vector(id)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v, c.Embedder().Embed("hello world")) {
		t.Error("stored embedding must match the encoder output")
	}
	if _, err := c.Vector(-1); err == nil {
		t.Error("Vector(-1) should error")
	}
	if _, err := c.Vector(5); err == nil {
		t.Error("Vector(out of range) should error")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	build := func() *Corpus {
		c, err := Generate(Config{NumTopics: 3, DocsPerTopic: 5, Seed: 11}, NewLexicon(11), testEmbedder())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Docs {
		if a.Docs[i].Text != b.Docs[i].Text {
			t.Fatalf("doc %d text differs", i)
		}
		if !slices.Equal(a.Embeddings[i], b.Embeddings[i]) {
			t.Fatalf("doc %d embedding differs", i)
		}
	}
}
