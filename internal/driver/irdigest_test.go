package driver

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// The printed IR of every module in the libc-cache corpus, under every
// configuration of libcConfigs, is pinned as SHA-256 digests in
// testdata/ir_digests.txt. A change that claims to leave compilation's
// output alone proves it here: any byte of difference in any module
// changes its digest.

var updateIRDigests = flag.Bool("update", false, "rewrite testdata/ir_digests.txt from the current compiler")

const irDigestsFile = "testdata/ir_digests.txt"

// irDigests compiles the corpus under every configuration and returns
// one "digest program config" line per module, sorted. A compile error
// is digested by its message.
func irDigests() []string {
	cfgs := libcConfigs()
	var lines []string
	for _, p := range libcCorpus() {
		src := []Source{{Name: "main.c", Text: p.src}}
		for name, cfg := range cfgs {
			var text string
			if mod, _, err := CompileWithStats(src, cfg); err != nil {
				text = "error: " + err.Error()
			} else {
				text = mod.String()
			}
			lines = append(lines, fmt.Sprintf("%x %s %s", sha256.Sum256([]byte(text)), p.name, name))
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		return lines[i][sha256.Size*2:] < lines[j][sha256.Size*2:]
	})
	return lines
}

func TestIRDigestsMatchGolden(t *testing.T) {
	got := irDigests()
	if *updateIRDigests {
		if err := os.WriteFile(irDigestsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(irDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d modules compiled, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("printed IR differs from the golden digest:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d modules differ in all", bad)
	}
}
