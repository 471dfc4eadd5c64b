// Package experiments reproduces every figure of the paper's evaluation
// (§4): one harness function per figure, each returning a typed result
// with a Render method that prints the same rows the paper reports.
package experiments

import "fmt"

// Config sizes the experiment suite. Default() follows the paper's
// parameters (with scaled-down corpora); Quick() shrinks
// everything for CI and unit tests.
type Config struct {
	// Dim is the embedding dimensionality (768 in the paper).
	Dim int
	// Seeds is the number of averaged runs (5 in the paper).
	Seeds int
	// Parallelism bounds concurrent grid cells (0 = GOMAXPROCS).
	Parallelism int

	// MMLU benchmark sizing (§4.2.2: 131 econometrics questions).
	MMLUQuestions    int
	MMLUTopics       int
	MMLUDocsPerTopic int

	// MedRAG benchmark sizing (§4.2.2: 500 PubMedQA questions, 200
	// sampled for the uniform workload).
	MedRAGQuestions    int
	MedRAGSubset       int
	MedRAGTopics       int
	MedRAGDocsPerTopic int

	// Variants is the uniform repetition factor (4 in the paper).
	Variants int

	// MedRAG-Zipf workload (§4.2.2: 10k draws, exponent 0.8, ρ=4).
	ZipfTotal        int
	ZipfExponent     float64
	ZipfRerank       int
	ZipfFlatCapacity int // FLAT capacity used in the Fig. 7 policy rows

	// Fig8Bits is the LSH signature width for the bucket-size sweep
	// (8 in the paper; smaller configs need fewer bits to create the
	// bucket contention the sweep studies).
	Fig8Bits int

	// TripClick log sizing (§2.3: 5.2M interactions, 700k unique;
	// scaled by default).
	TripClickUnique       int
	TripClickTotal        int
	TripClickTopics       int
	TripClickDocsPerTopic int

	// Fig. 3 projection sizing.
	TSNEPoints     int
	TSNEIterations int
	GridCells      int

	// Fig. 10 lookup-scaling sizing.
	Fig10Sizes   []int
	Fig10Lookups int
}

// Default returns the paper-shaped configuration.
func Default() Config {
	return Config{
		Dim:         768,
		Seeds:       3,
		Parallelism: 0,

		MMLUQuestions:    131,
		MMLUTopics:       57,
		MMLUDocsPerTopic: 30,

		MedRAGQuestions:    500,
		MedRAGSubset:       200,
		MedRAGTopics:       50,
		MedRAGDocsPerTopic: 30,

		Variants: 4,

		ZipfTotal:        8000,
		ZipfExponent:     0.8,
		ZipfRerank:       4,
		ZipfFlatCapacity: 200,
		Fig8Bits:         8,

		TripClickUnique:       20000,
		TripClickTotal:        100000,
		TripClickTopics:       40,
		TripClickDocsPerTopic: 30,

		TSNEPoints:     700,
		TSNEIterations: 250,
		GridCells:      100,

		Fig10Sizes:   []int{20, 200, 2000, 20000, 200000},
		Fig10Lookups: 30,
	}
}

// Quick returns a CI-sized configuration that exercises every code path
// in seconds.
func Quick() Config {
	return Config{
		Dim:         192,
		Seeds:       1,
		Parallelism: 0,

		MMLUQuestions:    36,
		MMLUTopics:       12,
		MMLUDocsPerTopic: 6,

		MedRAGQuestions:    60,
		MedRAGSubset:       40,
		MedRAGTopics:       10,
		MedRAGDocsPerTopic: 6,

		Variants: 4,

		ZipfTotal:        900,
		ZipfExponent:     0.8,
		ZipfRerank:       4,
		ZipfFlatCapacity: 60,
		Fig8Bits:         4,

		TripClickUnique:       200,
		TripClickTotal:        2000,
		TripClickTopics:       10,
		TripClickDocsPerTopic: 6,

		TSNEPoints:     120,
		TSNEIterations: 80,
		GridCells:      40,

		Fig10Sizes:   []int{20, 200, 2000, 20000},
		Fig10Lookups: 10,
	}
}

// Validate rejects nonsensical configurations early.
func (c Config) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("experiments: Dim must be positive, got %d", c.Dim)
	}
	if c.Seeds <= 0 {
		return fmt.Errorf("experiments: Seeds must be positive, got %d", c.Seeds)
	}
	if c.Variants <= 0 {
		return fmt.Errorf("experiments: Variants must be positive, got %d", c.Variants)
	}
	if c.ZipfTotal < c.MedRAGQuestions {
		return fmt.Errorf("experiments: ZipfTotal %d below MedRAG question count %d",
			c.ZipfTotal, c.MedRAGQuestions)
	}
	if c.TripClickTotal < c.TripClickUnique {
		return fmt.Errorf("experiments: TripClickTotal %d below unique count %d",
			c.TripClickTotal, c.TripClickUnique)
	}
	return nil
}
