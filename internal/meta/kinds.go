package meta

import (
	"fmt"
	"strings"
)

// kinds is the closed set of metadata schemes, sorted by name: the order
// of every benchmark matrix, report column and BENCH.json row.
var kinds = [...]Kind{KindHashTable, KindHashTableCETS, KindShadowCETS, KindShadowSpace}

// Kinds returns every metadata scheme, sorted by name.
func Kinds() []Kind { return append([]Kind(nil), kinds[:]...) }

// KindNames returns the scheme names in Kinds order.
func KindNames() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return names
}

// ParseKind resolves a scheme name (a Kind's String).
func ParseKind(name string) (Kind, error) {
	for _, k := range kinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("meta: unknown scheme %q (have %s)",
		name, strings.Join(KindNames(), ", "))
}

// ParseKinds resolves a comma-separated scheme list ("" = all), dropping
// blanks and repeats.
func ParseKinds(list string) ([]Kind, error) {
	if strings.TrimSpace(list) == "" {
		return Kinds(), nil
	}
	var out []Kind
	seen := make(map[Kind]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, err := ParseKind(name)
		if err != nil {
			return nil, err
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("meta: empty scheme list %q", list)
	}
	return out, nil
}

// Scheme is a Kind with its name and constructor.
//
// Deprecated: use Kind, Kinds and New. Scheme stays only because the
// sbperf harness (internal/perf) reads it, and that package is frozen
// with the benchmark it implements.
type Scheme struct {
	Kind Kind
	Name string
	New  func() Facility
}

// Schemes returns Kinds as Schemes.
//
// Deprecated: use Kinds. It stays only for internal/perf, as Scheme does.
func Schemes() []Scheme {
	out := make([]Scheme, len(kinds))
	for i, k := range kinds {
		out[i] = Scheme{Kind: k, Name: k.String(), New: func() Facility {
			f, _ := New(k) // every kind in the table constructs
			return f
		}}
	}
	return out
}
