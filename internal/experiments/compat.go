package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"softbound/internal/bench"
	"softbound/internal/driver"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/vm"
)

// §6.4 source-compatibility case study. The paper applies SoftBound to
// two unmodified network daemons (an FTP server and a multithreaded HTTP
// server) built from many modules. Network and threads do not exist in
// the simulated substrate, so the case study is reproduced with its
// essential ingredients intact: a multi-module server-shaped program —
// request parsing, routing, header tables, and response formatting over
// C strings — compiled module-by-module (separate compilation), linked
// against the instrumented libc, driven by a batch of synthetic
// requests, and executed unmodified under both checking modes.

// serverUtilC: string/table helpers module.
const serverUtilC = `
/* util.c: header table and helpers. */
struct header {
    char name[32];
    char value[96];
    struct header* next;
};

struct header* header_add(struct header* list, char* name, char* value) {
    struct header* h = (struct header*)malloc(sizeof(struct header));
    strncpy(h->name, name, 31);
    h->name[31] = 0;
    strncpy(h->value, value, 95);
    h->value[95] = 0;
    h->next = list;
    return h;
}

char* header_get(struct header* list, char* name) {
    while (list) {
        if (strcmp(list->name, name) == 0)
            return list->value;
        list = list->next;
    }
    return (char*)0;
}

void header_free(struct header* list) {
    while (list) {
        struct header* n = list->next;
        free(list);
        list = n;
    }
}

int url_decode(char* dst, char* src, int max) {
    int i = 0;
    while (*src && i < max - 1) {
        if (*src == '+') {
            dst[i++] = ' ';
            src++;
        } else if (*src == '%' && src[1] && src[2]) {
            int hi = src[1] >= 'a' ? src[1] - 'a' + 10 : src[1] - '0';
            int lo = src[2] >= 'a' ? src[2] - 'a' + 10 : src[2] - '0';
            dst[i++] = (char)(hi * 16 + lo);
            src += 3;
        } else {
            dst[i++] = *src++;
        }
    }
    dst[i] = 0;
    return i;
}`

// serverParserC: request-line and header parsing module.
const serverParserC = `
/* parser.c: HTTP-ish request parsing. */
struct header;
struct header* header_add(struct header* list, char* name, char* value);

struct request {
    char method[8];
    char path[64];
    struct header* headers;
    int ok;
};

int token_until(char* dst, char* src, int max, char stop) {
    int i = 0;
    while (src[i] && src[i] != stop && i < max - 1) {
        dst[i] = src[i];
        i++;
    }
    dst[i] = 0;
    return i;
}

struct request* parse_request(char* raw) {
    struct request* r = (struct request*)malloc(sizeof(struct request));
    char line[128];
    int n, off;
    r->headers = (struct header*)0;
    r->ok = 0;
    n = token_until(r->method, raw, 8, ' ');
    off = n + 1;
    n = token_until(r->path, raw + off, 64, ' ');
    off += n + 1;
    /* Skip protocol token. */
    n = token_until(line, raw + off, 128, 10);
    off += n + 1;
    /* Headers: name:value separated by newlines, empty line ends. */
    for (;;) {
        char name[32];
        char* colon;
        n = token_until(line, raw + off, 128, 10);
        off += n + 1;
        if (n == 0)
            break;
        colon = strchr(line, ':');
        if (!colon)
            continue;
        *colon = 0;
        strncpy(name, line, 31);
        name[31] = 0;
        r->headers = header_add(r->headers, name, colon + 1);
        if (raw[off - 1] == 0)
            break;
    }
    r->ok = 1;
    return r;
}`

// serverMainC: routing and the synthetic-traffic driver module.
const serverMainC = `
/* server.c: routing and response generation. */
struct header;
struct request {
    char method[8];
    char path[64];
    struct header* headers;
    int ok;
};
struct request* parse_request(char* raw);
char* header_get(struct header* list, char* name);
void header_free(struct header* list);
int url_decode(char* dst, char* src, int max);

char response[256];

int handle(struct request* r) {
    char decoded[64];
    char* agent;
    int len = 0;
    url_decode(decoded, r->path, 64);
    agent = header_get(r->headers, "Agent");
    if (strcmp(r->method, "GET") == 0) {
        strcpy(response, "200 ");
        strcat(response, decoded);
        len = 200;
    } else if (strcmp(r->method, "POST") == 0) {
        strcpy(response, "201 created ");
        strcat(response, decoded);
        len = 201;
    } else {
        strcpy(response, "405 nope");
        len = 405;
    }
    if (agent) {
        strcat(response, " via ");
        strcat(response, agent);
    }
    return len;
}

char reqbuf[256];

void build_request(int i) {
    /* Alternate methods, paths with %-escapes, and a header. */
    if (i % 3 == 0)
        strcpy(reqbuf, "GET /index%2ehtml HTTP/1.0");
    else if (i % 3 == 1)
        strcpy(reqbuf, "POST /form+data HTTP/1.0");
    else
        strcpy(reqbuf, "PUT /nope HTTP/1.0");
    strcat(reqbuf, "\nAgent:sb-bench\nHost:localhost\n\n");
}

int main(void) {
    int i;
    long status_sum = 0;
    int requests = 200;
    for (i = 0; i < requests; i++) {
        struct request* r;
        build_request(i);
        r = parse_request(reqbuf);
        if (r->ok)
            status_sum += handle(r);
        header_free(r->headers);
        free(r);
    }
    printf("served %d status_sum %ld last %s\n", requests, status_sum, response);
    return 0;
}`

// CompatResult summarizes the §6.4 case study for one daemon.
type CompatResult struct {
	Daemon         string
	Modules        int
	Lines          int
	Output         string
	FalsePositives map[string]bool // per mode: true if a violation fired
	OutputsMatch   bool
}

// compatDaemons mirrors the paper's two case-study programs: an HTTP-ish
// multithreaded server (nhttpd) and an FTP server (tinyftp), both
// reproduced as multi-module command processors over synthetic traffic.
func compatDaemons() map[string][]driver.Source {
	return map[string][]driver.Source{
		"nhttpd": {
			{Name: "util.c", Text: serverUtilC},
			{Name: "parser.c", Text: serverParserC},
			{Name: "server.c", Text: serverMainC},
		},
		"tinyftp": {
			{Name: "fs.c", Text: ftpdFsC},
			{Name: "session.c", Text: ftpdSessionC},
			{Name: "ftpd.c", Text: ftpdMainC},
		},
	}
}

// Compat runs both multi-module daemons under none/store/full and
// reports whether the unmodified sources run identically with no false
// positives.
func Compat() ([]*CompatResult, error) {
	var results []*CompatResult
	for _, name := range []string{"nhttpd", "tinyftp"} {
		sources := compatDaemons()[name]
		lines := 0
		for _, s := range sources {
			lines += strings.Count(s.Text, "\n")
		}
		out := &CompatResult{
			Daemon:         name,
			Modules:        len(sources),
			Lines:          lines,
			FalsePositives: make(map[string]bool),
			OutputsMatch:   true,
		}
		var ref string
		for _, mode := range []driver.Mode{driver.ModeNone, driver.ModeStoreOnly, driver.ModeFull} {
			res, err := driver.Run(sources, driver.DefaultConfig(mode))
			if err != nil {
				return nil, fmt.Errorf("%s mode %v: %w", name, mode, err)
			}
			out.FalsePositives[mode.String()] = res.Err != nil
			if ref == "" {
				ref = res.Output
				out.Output = res.Output
			} else if res.Output != ref {
				out.OutputsMatch = false
			}
		}
		results = append(results, out)
	}
	return results, nil
}

// FormatCompat renders the case-study summary.
func FormatCompat(rs []*CompatResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "§6.4 case study %s: %d modules, %d lines, separate compilation\n",
			r.Daemon, r.Modules, r.Lines)
		for _, mode := range []string{"none", "store-only", "full"} {
			fmt.Fprintf(&b, "  mode %-10s false positives: %v\n", mode, r.FalsePositives[mode])
		}
		fmt.Fprintf(&b, "  outputs identical across modes: %v\n", r.OutputsMatch)
		fmt.Fprintf(&b, "  output: %s", r.Output)
	}
	return b.String()
}

// ------------------------------------------------------------- §6.5

// RelatedRow compares SoftBound against an MSCC-style cost model on one
// benchmark.
type RelatedRow struct {
	Bench     string
	SoftBound float64
	MSCC      float64
}

// relatedPrograms are the benchmarks of the §6.5 comparison.
var relatedPrograms = []string{"go", "compress", "bisort", "em3d"}

// RelatedCells selects what §6.5 reads: each of its programs' baseline,
// hashtable-full and shadowspace-full runs.
func RelatedCells(scale int) bench.Config {
	return bench.Config{Workers: runtime.NumCPU(), Scale: scale, Programs: relatedPrograms,
		Schemes: []meta.Kind{meta.KindHashTable, meta.KindShadowSpace},
		Modes:   []driver.Mode{driver.ModeFull}}
}

// MSCC's costs (paper §6.5): its linked shadow structures make a metadata
// lookup or update 14 instructions, and its check sequence is 6.
const (
	msccMetaCost  = 14
	msccCheckCost = 6
)

// msccSimInsts prices a hashtable-full run under MSCC's costs. MSCC keeps
// disjoint per-pointer metadata too, so it executes the same checks and
// metadata operations (memcpy's per-word lookups included); only their
// price differs.
func msccSimInsts(ht metrics.Report) uint64 {
	return ht.SimInsts +
		(msccMetaCost-meta.HashTableCost)*(ht.MetaLoads+ht.MetaStores+ht.MetaCopyWords) +
		(msccCheckCost-vm.CheckCost)*ht.Checks
}

// Related reproduces the §6.5 comparison shape: MSCC's overhead is
// uniformly higher than SoftBound's (shadowspace-full).
func Related(rep *bench.Report) ([]RelatedRow, error) {
	var out []RelatedRow
	for _, p := range relatedPrograms {
		sb, err := overhead(rep, p, "shadowspace-full")
		if err != nil {
			return nil, err
		}
		base, err := cell(rep, p, "baseline")
		if err != nil {
			return nil, err
		}
		ht, err := cell(rep, p, "hashtable-full")
		if err != nil {
			return nil, err
		}
		mscc := float64(msccSimInsts(ht.Stats))/float64(base.Stats.SimInsts) - 1
		out = append(out, RelatedRow{Bench: p, SoftBound: sb, MSCC: mscc})
	}
	return out, nil
}

// FormatRelated renders the §6.5 comparison.
func FormatRelated(rows []RelatedRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6.5 comparison with MSCC-style checking (overhead %%)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "bench", "SoftBound", "MSCC-like")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.1f%% %9.1f%%\n", r.Bench, 100*r.SoftBound, 100*r.MSCC)
	}
	return b.String()
}
