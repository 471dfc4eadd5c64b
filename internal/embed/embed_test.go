package embed

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"proximity/internal/vec"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		give string
		want []string
	}{
		{name: "simple", give: "Hello World", want: []string{"hello", "world"}},
		{name: "punctuation", give: "what's best, doctor?", want: []string{"what", "s", "best", "doctor"}},
		{name: "digits", give: "top 10 drugs", want: []string{"top", "10", "drugs"}},
		{name: "empty", give: "", want: nil},
		{name: "whitespace only", give: "  \t\n", want: nil},
		{name: "unicode separators", give: "a—b", want: []string{"a", "b"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Tokenize(tt.give)
			if len(got) != len(tt.want) {
				t.Fatalf("Tokenize(%q) = %v, want %v", tt.give, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Tokenize(%q) = %v, want %v", tt.give, got, tt.want)
				}
			}
		})
	}
}

func TestEmbedDeterministic(t *testing.T) {
	e := NewTokenHash(64, 42)
	a := e.Embed("aspirin reduces cardiovascular risk")
	b := e.Embed("aspirin reduces cardiovascular risk")
	if !slices.Equal(a, b) {
		t.Error("same text must embed identically")
	}
	e2 := NewTokenHash(64, 42)
	if !slices.Equal(a, e2.Embed("aspirin reduces cardiovascular risk")) {
		t.Error("a fresh encoder with the same seed must agree")
	}
	e3 := NewTokenHash(64, 43)
	if slices.Equal(a, e3.Embed("aspirin reduces cardiovascular risk")) {
		t.Error("a different seed should produce different embeddings")
	}
}

func TestEmbedDim(t *testing.T) {
	e := NewTokenHash(32, 1, WithName("test-encoder"))
	if e.Dim() != 32 {
		t.Errorf("Dim = %d", e.Dim())
	}
	if e.Name() != "test-encoder" {
		t.Errorf("Name = %q", e.Name())
	}
	if got := len(e.Embed("hello")); got != 32 {
		t.Errorf("embedding length = %d", got)
	}
	if got := vec.Norm(e.Embed("")); got != 0 {
		t.Errorf("empty text should embed to the zero vector, norm=%v", got)
	}
}

func TestEmbedOrderInsensitiveForBagOfWords(t *testing.T) {
	// Word order changes are one of the paper's rephrasing modes ("best
	// treatment for asthma" vs "asthma best therapies"); a bag-of-words
	// encoder is exactly order-invariant.
	e := NewTokenHash(128, 7)
	a := e.Embed("best treatment for asthma")
	b := e.Embed("for asthma treatment best")
	// Summation order differs, so allow float rounding error.
	if d := vec.L2(a, b); d > 1e-5 {
		t.Errorf("reordering should not move the embedding, dist=%v", d)
	}
}

func TestSynonymsCollapseWithThesaurus(t *testing.T) {
	th := EnglishMedical()
	e := NewTokenHash(128, 7, WithThesaurus(th))
	a := e.Embed("best treatment for asthma")
	b := e.Embed("asthma best therapies")
	// Only the stopword "for" differs between the two phrasings, so the
	// residual distance is bounded by the stopword weight (0.25).
	if d := vec.L2(a, b); d > 0.3 {
		t.Errorf("paper's canonical rephrasing pair should nearly coincide, dist=%v", d)
	}

	// Without the thesaurus the same pair is far apart.
	plain := NewTokenHash(128, 7)
	if d := vec.L2(plain.Embed("best treatment for asthma"), plain.Embed("asthma best therapies")); d < 0.5 {
		t.Errorf("without synonym knowledge the pair should differ, dist=%v", d)
	}
}

func TestStopwordsCarryLowWeight(t *testing.T) {
	e := NewTokenHash(128, 9)
	base := e.Embed("aspirin dosage myocardial infarction")
	prefixed := e.Embed("please tell me about the aspirin dosage myocardial infarction")
	content := e.Embed("ibuprofen overdose renal failure")
	dPrefix := vec.L2(base, prefixed)
	dContent := vec.L2(base, content)
	if dPrefix >= dContent/2 {
		t.Errorf("prefix chatter moved the embedding too far: prefix=%v unrelated=%v", dPrefix, dContent)
	}
}

// TestStopWeightOption: embeddings are unnormalized sums of unit token
// vectors, so a stopword moves an embedding by exactly the stop weight
// and a content token by 1.
func TestStopWeightOption(t *testing.T) {
	e := NewTokenHash(64, 3)
	base := e.Embed("aspirin dosage")
	for _, tc := range []struct {
		text string
		want float64
	}{
		{"the aspirin dosage", stopWeight},
		{"zzz aspirin dosage", 1},
	} {
		if d := float64(vec.L2(base, e.Embed(tc.text))); math.Abs(d-tc.want) > 1e-5 {
			t.Errorf("L2(%q, %q) = %v, want %v", "aspirin dosage", tc.text, d, tc.want)
		}
	}
}

// TestWithStopwords: every word on the stopword list, in any case,
// carries less weight than an unknown content token.
func TestWithStopwords(t *testing.T) {
	e := NewTokenHash(64, 3)
	base := e.Embed("aspirin dosage")
	other := vec.L2(base, e.Embed("zzz aspirin dosage"))
	for w := range stopwords {
		for _, form := range []string{w, strings.ToUpper(w)} {
			if d := vec.L2(base, e.Embed(form+" aspirin dosage")); d >= other {
				t.Errorf("stopword %q moved the embedding %v, an unknown content token %v", form, d, other)
			}
		}
	}
}

func TestUnrelatedTextsAreFar(t *testing.T) {
	e := NewTokenHash(768, 5)
	a := e.Embed("aspirin dosage myocardial infarction prevention guidelines evidence")
	b := e.Embed("quantum chromodynamics lattice gauge simulation convergence theory")
	// Each text has ~6 content tokens of unit norm; near-orthogonal sums
	// put the distance near sqrt(12) ≈ 3.46.
	if d := float64(vec.L2(a, b)); d < 2.5 {
		t.Errorf("unrelated texts too close: %v", d)
	}
	// Norm of each should be near sqrt(#content tokens).
	if n := float64(vec.Norm(a)); math.Abs(n-math.Sqrt(6)) > 0.8 {
		t.Errorf("norm = %v, want ≈ %v", n, math.Sqrt(6))
	}
}

func TestEmbedConcurrentSafe(t *testing.T) {
	e := NewTokenHash(64, 11)
	texts := []string{
		"alpha beta gamma", "delta epsilon zeta", "eta theta iota",
		"alpha delta eta", "beta epsilon theta",
	}
	var wg sync.WaitGroup
	results := make([][]vec.Vector, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]vec.Vector, len(texts))
			for i, txt := range texts {
				out[i] = e.Embed(txt)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range texts {
			if !slices.Equal(results[0][i], results[g][i]) {
				t.Fatalf("goroutine %d produced different embedding for %q", g, texts[i])
			}
		}
	}
}

// Property: duplicating a text's tokens scales the embedding by 2 (bag of
// words linearity), and token-vector caching never changes results.
func TestEmbedLinearity(t *testing.T) {
	e := NewTokenHash(32, 13)
	f := func(seed uint64) bool {
		words := []string{"aaa", "bbb", "ccc", "ddd", "eee", "fff"}
		r := vec.NewRand(seed)
		n := 1 + int(r.Uint64()%5)
		var txt string
		for i := 0; i < n; i++ {
			txt += words[r.Uint64()%uint64(len(words))] + " "
		}
		single := e.Embed(txt)
		double := e.Embed(txt + " " + txt)
		scaled := vec.Scale(vec.Clone(single), 2)
		return vec.L2(double, scaled) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestThesaurus(t *testing.T) {
	th := NewThesaurus()
	th.Register("treatment", "therapy", "remedy")
	th.Register() // no-op
	if got := th.Canonical("therapy"); got != "treatment" {
		t.Errorf("Canonical(therapy) = %q", got)
	}
	if got := th.Canonical("TREATMENT"); got != "TREATMENT" {
		// Canonical receives already-lowercased tokens from Tokenize;
		// raw uppercase lookups miss by design.
		t.Errorf("Canonical(TREATMENT) = %q, want passthrough", got)
	}
	if got := th.Canonical("unregistered"); got != "unregistered" {
		t.Errorf("Canonical(unregistered) = %q", got)
	}
	syn := th.Synonyms("remedy")
	if len(syn) != 2 {
		t.Errorf("Synonyms(remedy) = %v, want 2 entries", syn)
	}
	if th.Len() != 3 {
		t.Errorf("Len = %d, want 3", th.Len())
	}
}

func TestEnglishMedicalThesaurus(t *testing.T) {
	th := EnglishMedical()
	if th.Canonical("therapies") != "treatment" {
		t.Error("therapies should canonicalize to treatment")
	}
	if th.Canonical("tumour") != th.Canonical("cancer") {
		t.Error("tumour and cancer should share a canonical form")
	}
}
