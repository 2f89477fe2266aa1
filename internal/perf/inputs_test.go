package perf

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"softbound/internal/progs"
)

// opStream renders the first n operations of every workload for a seed:
// figure2's cell order over three passes, gen-oneshot's program and
// configuration per operation, and serve-mixed's request bodies.
func opStream(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	cfgs := configs()
	for pass := 0; pass < 3; pass++ {
		fmt.Fprintln(&b, permutation(mix(seed, uint64(pass)), len(progs.All())*len(cfgs)))
	}

	g := &oneshot{o: Options{Seed: seed}, cfgs: cfgs, pool: newPool(seed, poolSize)}
	for k := 0; k < n; k++ {
		e, c := g.op(k)
		fmt.Fprintf(&b, "%s %x %s\n", e.name, sha256.Sum256([]byte(e.src)), c.name)
	}

	s := &serveMixed{o: Options{Seed: seed}}
	s.hot, s.cold = splitHotCold(seed, g.pool, hotEntries(), cfgs)
	for k := 0; k < n; k++ {
		_, _, req := s.request(k)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(body, '\n'))
	}
	return b.Bytes()
}

func TestOpStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	a, again := opStream(t, DefaultSeed, 600), opStream(t, DefaultSeed, 600)
	if !bytes.Equal(a, again) {
		t.Fatal("the same seed gave different op streams")
	}
	if bytes.Equal(a, opStream(t, HeldOutSeed, 600)) {
		t.Fatal("a different seed gave the same op stream")
	}
}

func TestPoolAndCacheMix(t *testing.T) {
	pool := newPool(DefaultSeed, poolSize)
	planted := 0
	for i, e := range pool {
		if (e.plant != nil) != (i%4 == 3) {
			t.Fatalf("entry %d: planted=%v, want every fourth", i, e.plant != nil)
		}
		if e.plant != nil {
			planted++
		}
	}
	if planted != poolSize/4 {
		t.Fatalf("%d planted of %d, want three clean to one planted", planted, poolSize)
	}

	cfgs := configs()
	if len(cfgs) != 9 {
		t.Fatalf("%d configurations, want baseline + 4 schemes x 2 modes", len(cfgs))
	}
	hot, cold := splitHotCold(DefaultSeed, pool, hotEntries(), cfgs)
	if len(hot) != 16+len(hotPrograms) {
		t.Fatalf("hot set has %d programs, want 20", len(hot))
	}
	// Cold keys repeat only after the whole cycle, which must outlast
	// the 128-entry LRU cache so that they always miss.
	if len(cold) <= 2*128 {
		t.Fatalf("cold cycle of %d keys cannot always miss a 128-entry cache", len(cold))
	}
	isHot := map[*entry]bool{}
	for _, e := range hot {
		isHot[e] = true
	}
	plantedKeys := 0
	for _, ck := range cold {
		if isHot[ck.e] {
			t.Fatalf("hot program %s in the cold cycle", ck.e.name)
		}
		if ck.e.plant != nil {
			plantedKeys++
		}
	}
	if share := float64(plantedKeys) / float64(len(cold)); share < 0.09 || share > 0.11 {
		t.Fatalf("planted share of cold requests = %.3f, want 0.1", share)
	}
}
