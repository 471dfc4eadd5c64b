package llm

import (
	"strings"
	"testing"
	"testing/quick"

	"proximity/internal/embed"
	"proximity/internal/vec"
)

func TestContextQualityString(t *testing.T) {
	tests := []struct {
		give ContextQuality
		want string
	}{
		{ContextGold, "gold"},
		{ContextTopic, "topic"},
		{ContextMisleading, "misleading"},
		{ContextNone, "none"},
		{ContextQuality(9), "quality(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestClassify(t *testing.T) {
	q := Question{ID: 1, Topic: 3, Gold: []int{10, 11}}
	docTopic := func(id int) int {
		if id >= 100 {
			return 3 // same topic
		}
		return 0 // other topic
	}
	tests := []struct {
		name string
		docs []int
		want ContextQuality
	}{
		{name: "empty", docs: nil, want: ContextNone},
		{name: "gold present", docs: []int{5, 11}, want: ContextGold},
		{name: "gold wins over topic", docs: []int{100, 10}, want: ContextGold},
		{name: "topical", docs: []int{100, 5}, want: ContextTopic},
		{name: "misleading", docs: []int{5, 6}, want: ContextMisleading},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Classify(q, tt.docs, docTopic); got != tt.want {
				t.Errorf("Classify = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClassifyNilDocTopic(t *testing.T) {
	q := Question{ID: 1, Topic: 3, Gold: []int{10}}
	if got := Classify(q, []int{5}, nil); got != ContextMisleading {
		t.Errorf("Classify with nil docTopic = %v, want misleading", got)
	}
}

func TestNewAnswererValidation(t *testing.T) {
	bad := Profile{PGold: 1.5}
	if _, err := NewAnswerer(bad, 1); err == nil {
		t.Error("invalid probability should error")
	}
	if _, err := NewAnswerer(Profile{PGold: -0.1}, 1); err == nil {
		t.Error("negative probability should error")
	}
	a, err := NewAnswerer(MedRAGProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.profile != MedRAGProfile() {
		t.Error("profile accessor wrong")
	}
}

func TestAnswererDeterminism(t *testing.T) {
	a, err := NewAnswerer(MedRAGProfile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	q := Question{ID: 7, Topic: 1, Gold: []int{3}}
	first := a.Correct(q, []int{3}, nil)
	for i := 0; i < 10; i++ {
		if a.Correct(q, []int{3}, nil) != first {
			t.Fatal("same question+context must answer identically")
		}
	}
}

// The monotonicity invariant: improving context quality can only turn
// wrong answers right, never the reverse.
func TestAnswererMonotoneInQuality(t *testing.T) {
	a, err := NewAnswerer(MedRAGProfile(), 3)
	if err != nil {
		t.Fatal(err)
	}
	order := []ContextQuality{ContextMisleading, ContextNone, ContextTopic, ContextGold}
	f := func(qid uint32) bool {
		q := Question{ID: int(qid % 100000)}
		prev := false
		for _, quality := range order {
			cur := a.CorrectWithQuality(q, quality)
			if prev && !cur {
				return false // quality improved but answer flipped to wrong
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Aggregate accuracies must approach the configured profile for a large
// question population — the calibration the harness relies on.
func TestAnswererAccuracyCalibration(t *testing.T) {
	profile := MedRAGProfile()
	a, err := NewAnswerer(profile, 9)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	counts := map[ContextQuality]int{}
	for id := 0; id < n; id++ {
		q := Question{ID: id}
		for _, quality := range []ContextQuality{ContextGold, ContextTopic, ContextNone, ContextMisleading} {
			if a.CorrectWithQuality(q, quality) {
				counts[quality]++
			}
		}
	}
	check := func(quality ContextQuality, want float64) {
		got := float64(counts[quality]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%v accuracy = %.3f, want ≈ %.3f", quality, got, want)
		}
	}
	check(ContextGold, profile.PGold)
	check(ContextTopic, profile.PTopic)
	check(ContextNone, profile.PNone)
	check(ContextMisleading, profile.PMisled)
}

func TestAnswererSeedsDiffer(t *testing.T) {
	a1, _ := NewAnswerer(MMLUProfile(), 1)
	a2, _ := NewAnswerer(MMLUProfile(), 2)
	diff := 0
	for id := 0; id < 500; id++ {
		q := Question{ID: id}
		if a1.CorrectWithQuality(q, ContextGold) != a2.CorrectWithQuality(q, ContextGold) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds should disagree on some questions")
	}
}

func TestProfiles(t *testing.T) {
	m := MMLUProfile()
	if m.PGold <= m.PNone {
		t.Error("MMLU gold context must beat the no-RAG floor")
	}
	r := MedRAGProfile()
	if r.PMisled >= r.PNone {
		t.Error("MedRAG misleading context must fall below the no-RAG floor")
	}
}

func TestPrefixVariant(t *testing.T) {
	r := NewRephraser(nil, 1)
	base := "kapori zutemi relados"
	if got := r.PrefixVariant(base, 0); got != base {
		t.Errorf("variant 0 should be the original, got %q", got)
	}
	v1 := r.PrefixVariant(base, 1)
	v2 := r.PrefixVariant(base, 2)
	if v1 == v2 || v1 == base {
		t.Error("variants must be distinct")
	}
	if !strings.HasSuffix(v1, base) {
		t.Errorf("prefix variant should retain the original text: %q", v1)
	}
	// Deterministic.
	if r.PrefixVariant(base, 1) != v1 {
		t.Error("variants must be deterministic")
	}
}

func TestPrefixVariantEmbeddingDrift(t *testing.T) {
	e := embed.NewTokenHash(128, 5)
	r := NewRephraser(nil, 5)
	base := "kapori zutemi relados mivuto sandor pelira"
	bv := e.Embed(base)
	for variant := 1; variant <= 4; variant++ {
		v := e.Embed(r.PrefixVariant(base, variant))
		d := float64(vec.L2(bv, v))
		if d <= 0 || d > 1.2 {
			t.Errorf("variant %d drift = %v, want small positive (stopword prefix)", variant, d)
		}
	}
}

func TestParaphraseUniqueness(t *testing.T) {
	r := NewRephraser(nil, 7)
	base := "kapori zutemi relados mivuto"
	seen := make(map[string]struct{})
	for occ := 0; occ < 2000; occ++ {
		p := r.Paraphrase(base, occ, 1)
		if _, dup := seen[p]; dup {
			t.Fatalf("duplicate paraphrase at occ %d: %q", occ, p)
		}
		seen[p] = struct{}{}
	}
}

func TestParaphraseDrift(t *testing.T) {
	e := embed.NewTokenHash(256, 9)
	r := NewRephraser(nil, 9)
	base := "kapori zutemi relados mivuto sandor pelira dezubo katrin"
	bv := e.Embed(base)
	for occ := 0; occ < 20; occ++ {
		// swaps=0: only chatter + rotation → drift below ~1.
		p0 := e.Embed(r.Paraphrase(base, occ, 0))
		if d := float64(vec.L2(bv, p0)); d > 1.2 {
			t.Errorf("occ %d swaps=0 drift %v too large", occ, d)
		}
		// swaps=2: two content inflections → drift ≈ sqrt(2·2)≈2 ±
		// chatter; must stay well below the distance to an unrelated
		// question (≈ sqrt(2·8) = 4).
		p2 := e.Embed(r.Paraphrase(base, occ, 2))
		d := float64(vec.L2(bv, p2))
		if d < 1.2 || d > 3.5 {
			t.Errorf("occ %d swaps=2 drift = %v, want in (1.2, 3.5)", occ, d)
		}
	}
}

func TestParaphraseSynonymsNoDrift(t *testing.T) {
	th := embed.NewThesaurus()
	th.Register("kapori", "kaporix", "kaporiy")
	e := embed.NewTokenHash(128, 11, embed.WithThesaurus(th))
	r := NewRephraser(th, 11)
	base := "kapori zutemi relados"
	bv := e.Embed(base)
	for occ := 0; occ < 10; occ++ {
		p := r.Paraphrase(base, occ, 0)
		d := float64(vec.L2(bv, e.Embed(p)))
		if d > 1.2 {
			t.Errorf("synonym paraphrase drift = %v, want chatter-only", d)
		}
	}
	// At least one occurrence should actually use a synonym surface form.
	found := false
	for occ := 0; occ < 10; occ++ {
		p := r.Paraphrase(base, occ, 0)
		if strings.Contains(p, "kaporix") || strings.Contains(p, "kaporiy") {
			found = true
			break
		}
	}
	if !found {
		t.Error("paraphrases never used a registered synonym")
	}
}

func TestParaphraseSwapsRespectTokenCount(t *testing.T) {
	// Asking for more swaps than content tokens must not panic and must
	// still produce unique output.
	r := NewRephraser(nil, 13)
	p := r.Paraphrase("kapori", 0, 10)
	if p == "" {
		t.Error("paraphrase of short text should not be empty")
	}
	if r.Paraphrase("", 0, 2) == "" {
		t.Error("paraphrase of empty text should still emit the unique prefix")
	}
}

// CorrectWithQuality is Correct for a context already classified, so a
// test can probe each quality band.
func (a *Answerer) CorrectWithQuality(q Question, quality ContextQuality) bool {
	return a.difficulty(q.ID) < a.probability(quality)
}
