// Package progs contains the 15 benchmark workloads of the paper's
// performance evaluation (§6.3): six SPEC-CPU-style programs and nine
// Olden-style programs. What matters for reproducing Figure 1 and
// Figure 2 is each program's *memory-operation mix*: the SPEC-style
// codes compute over scalar arrays and move almost no pointers, while
// the Olden codes traverse linked data structures where half or more of
// all memory operations load or store a pointer. Each workload is a
// faithful miniature of the original program's algorithm and data
// structures.
package progs

import (
	"fmt"
	"sort"
	"strings"
)

// Class tags the benchmark's provenance in the paper.
type Class int

// Benchmark classes.
const (
	SPEC Class = iota
	Olden
)

func (c Class) String() string {
	if c == SPEC {
		return "spec"
	}
	return "olden"
}

// Benchmark is one workload.
type Benchmark struct {
	Name  string
	Class Class
	// DefaultScale is the problem size used by the harness; tests use
	// smaller scales.
	DefaultScale int
	// source contains "@SCALE@" where the problem size is substituted.
	source string
}

// Source renders the program at the given scale (0 = default).
func (b Benchmark) Source(scale int) string {
	if scale <= 0 {
		scale = b.DefaultScale
	}
	return strings.ReplaceAll(b.source, "@SCALE@", fmt.Sprint(scale))
}

var benchmarks = map[string]Benchmark{}

func register(b Benchmark) {
	if _, dup := benchmarks[b.Name]; dup {
		panic("duplicate benchmark " + b.Name)
	}
	benchmarks[b.Name] = b
}

// Get returns a benchmark by name.
func Get(name string) (Benchmark, bool) {
	b, ok := benchmarks[name]
	return b, ok
}

// All returns every benchmark in the paper's Figure 1 presentation
// order (sorted by pointer-memory-operation frequency).
func All() []Benchmark {
	// Figure 1 order in the paper.
	order := []string{
		"go", "lbm", "hmmer", "compress", "ijpeg",
		"bh", "tsp", "libquantum", "perimeter", "health",
		"bisort", "mst", "li", "em3d", "treeadd",
	}
	out := make([]Benchmark, 0, len(order))
	for _, n := range order {
		b, ok := benchmarks[n]
		if !ok {
			panic("missing benchmark " + n)
		}
		out = append(out, b)
	}
	return out
}

// Names returns all benchmark names, sorted.
func Names() []string {
	names := make([]string, 0, len(benchmarks))
	for n := range benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
