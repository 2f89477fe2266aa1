package experiments

import (
	"fmt"
	"strings"
)

// The second §6.4 daemon: an FTP-style command interpreter (the paper's
// tinyftp-0.2 counterpart). A session state machine processes a scripted
// command stream — USER/PASS authentication, CWD path normalization with
// ".." handling, LIST over an in-memory directory tree, RETR/STOR byte
// accounting — exercising the string handling and buffer management an
// FTP server actually does.
//
// The daemon exists in two forms built from the same fragments:
//
//   - The three-unit compat experiment (fs.c / session.c / ftpd.c with a
//     fixed script), exercising separate compilation.
//   - FtpdSession: a single-unit request program with a caller-supplied
//     command script, the request-driven workload the session soak
//     POSTs through sbserve (each distinct script is one cacheable
//     program; the live server ages across thousands of them).

// ftpdFsC: the in-memory filesystem module.
const ftpdFsC = `
/* fs.c: a tiny in-memory directory tree. */
struct fsnode {
    char name[24];
    int is_dir;
    int size;
    struct fsnode* child;    /* first child (dirs) */
    struct fsnode* sibling;  /* next entry in parent */
};

struct fsnode* fs_new(char* name, int is_dir, int size) {
    struct fsnode* n = (struct fsnode*)malloc(sizeof(struct fsnode));
    strncpy(n->name, name, 23);
    n->name[23] = 0;
    n->is_dir = is_dir;
    n->size = size;
    n->child = (struct fsnode*)0;
    n->sibling = (struct fsnode*)0;
    return n;
}

void fs_add(struct fsnode* dir, struct fsnode* entry) {
    entry->sibling = dir->child;
    dir->child = entry;
}

struct fsnode* fs_find(struct fsnode* dir, char* name) {
    struct fsnode* c;
    for (c = dir->child; c; c = c->sibling)
        if (strcmp(c->name, name) == 0)
            return c;
    return (struct fsnode*)0;
}

struct fsnode* fs_build_root(void) {
    struct fsnode* root = fs_new("/", 1, 0);
    struct fsnode* pub = fs_new("pub", 1, 0);
    struct fsnode* docs = fs_new("docs", 1, 0);
    fs_add(root, pub);
    fs_add(root, docs);
    fs_add(root, fs_new("welcome.msg", 0, 128));
    fs_add(pub, fs_new("paper.pdf", 0, 4096));
    fs_add(pub, fs_new("data.tar", 0, 9000));
    fs_add(docs, fs_new("readme.txt", 0, 640));
    return root;
}`

// ftpdSessionHdrC repeats the fsnode shape and the fs_find prototype, as
// a header would supply them to a separately-compiled session.c.
const ftpdSessionHdrC = `
/* session.c: one control-connection state machine.
   (struct fsnode repeats here as a header would supply it.) */
struct fsnode {
    char name[24];
    int is_dir;
    int size;
    struct fsnode* child;
    struct fsnode* sibling;
};
struct fsnode* fs_find(struct fsnode* dir, char* name);
`

// ftpdSessionBodyC: the session state machine proper, composable into a
// unit that already defines struct fsnode.
const ftpdSessionBodyC = `
struct session {
    int authed;
    char user[16];
    struct fsnode* root;
    struct fsnode* cwd;
    struct fsnode* dirstack[8];  /* for ".." */
    int depth;
    long bytes_out;
    long bytes_in;
};

void sess_init(struct session* s, struct fsnode* root) {
    s->authed = 0;
    s->user[0] = 0;
    s->root = root;
    s->cwd = root;
    s->depth = 0;
    s->bytes_out = 0;
    s->bytes_in = 0;
}

/* Returns an FTP-ish status code. */
int cmd_user(struct session* s, char* arg) {
    strncpy(s->user, arg, 15);
    s->user[15] = 0;
    return 331;
}

int cmd_pass(struct session* s, char* arg) {
    /* anonymous only, like tinyftp */
    if (strcmp(s->user, "anonymous") == 0 && strlen(arg) > 0) {
        s->authed = 1;
        return 230;
    }
    return 530;
}

int cmd_cwd(struct session* s, char* arg) {
    struct fsnode* next;
    if (!s->authed)
        return 530;
    if (strcmp(arg, "..") == 0) {
        if (s->depth > 0)
            s->cwd = s->dirstack[--s->depth];
        return 250;
    }
    if (strcmp(arg, "/") == 0) {
        s->cwd = s->root;
        s->depth = 0;
        return 250;
    }
    next = fs_find(s->cwd, arg);
    if (!next)
        return 550;
    if (s->depth < 8)
        s->dirstack[s->depth++] = s->cwd;
    s->cwd = next;
    return 250;
}

int cmd_retr(struct session* s, char* arg) {
    struct fsnode* f;
    if (!s->authed)
        return 530;
    f = fs_find(s->cwd, arg);
    if (!f)
        return 550;
    s->bytes_out += f->size;
    return 226;
}

int cmd_stor(struct session* s, char* arg, int size) {
    if (!s->authed)
        return 530;
    s->bytes_in += size;
    return 226;
}`

// ftpdSessionC: the session/state-machine module (separate-compilation
// form).
const ftpdSessionC = ftpdSessionHdrC + ftpdSessionBodyC

// ftpdMainHdrC re-declares the shapes ftpd.c needs from the other units.
const ftpdMainHdrC = `
/* ftpd.c: parse and dispatch a scripted command stream. */
struct fsnode;
struct fsnode* fs_build_root(void);
struct session {
    int authed;
    char user[16];
    struct fsnode* root;
    struct fsnode* cwd;
    struct fsnode* dirstack[8];
    int depth;
    long bytes_out;
    long bytes_in;
};
void sess_init(struct session* s, struct fsnode* root);
int cmd_user(struct session* s, char* arg);
int cmd_pass(struct session* s, char* arg);
int cmd_cwd(struct session* s, char* arg);
int cmd_retr(struct session* s, char* arg);
int cmd_stor(struct session* s, char* arg, int size);
`

// ftpdDispatchC: split a command line and route it, shared by both
// forms of the daemon.
const ftpdDispatchC = `
int dispatch(struct session* s, char* line) {
    char cmd[8];
    char arg[32];
    int i = 0;
    int j = 0;
    while (line[i] && line[i] != ' ' && i < 7) {
        cmd[i] = line[i];
        i++;
    }
    cmd[i] = 0;
    if (line[i] == ' ')
        i++;
    while (line[i] && j < 31)
        arg[j++] = line[i++];
    arg[j] = 0;

    if (strcmp(cmd, "USER") == 0) return cmd_user(s, arg);
    if (strcmp(cmd, "PASS") == 0) return cmd_pass(s, arg);
    if (strcmp(cmd, "CWD") == 0)  return cmd_cwd(s, arg);
    if (strcmp(cmd, "RETR") == 0) return cmd_retr(s, arg);
    if (strcmp(cmd, "STOR") == 0) return cmd_stor(s, arg, 512);
    if (strcmp(cmd, "QUIT") == 0) return 221;
    return 500;
}
`

// ftpdFixedScriptC: the compat experiment's fixed 14-command script and
// driver loop.
const ftpdFixedScriptC = `
char* script[14];

void load_script(void) {
    script[0]  = "USER anonymous";
    script[1]  = "PASS guest@";
    script[2]  = "CWD pub";
    script[3]  = "RETR paper.pdf";
    script[4]  = "RETR data.tar";
    script[5]  = "CWD ..";
    script[6]  = "CWD docs";
    script[7]  = "RETR readme.txt";
    script[8]  = "RETR missing.bin";
    script[9]  = "STOR upload.log";
    script[10] = "CWD /";
    script[11] = "RETR welcome.msg";
    script[12] = "CWD nosuchdir";
    script[13] = "QUIT";
}

int main(void) {
    struct session sess;
    long codes = 0;
    int i, sessions;
    load_script();
    for (sessions = 0; sessions < 25; sessions++) {
        sess_init(&sess, fs_build_root());
        for (i = 0; i < 14; i++)
            codes += dispatch(&sess, script[i]);
    }
    printf("ftpd codes %ld out %ld in %ld\n", codes, sess.bytes_out, sess.bytes_in);
    return 0;
}`

// ftpdMainC: the command-stream driver module (separate-compilation
// form).
const ftpdMainC = ftpdMainHdrC + ftpdDispatchC + ftpdFixedScriptC

// FtpdSession renders the FTP daemon as one self-contained translation
// unit that processes the given command script `sessions` times and
// prints the usual "ftpd codes ..." accounting line. This is the
// request-driven form: a soak client renders one program per generated
// script and POSTs it to a live sbserve, so the server's compile cache
// and metadata tables age across an arbitrarily long stream of
// distinct-but-similar requests.
//
// Commands must fit dispatch's fixed fields: ≤7 command chars and ≤31
// argument chars. Quotes and backslashes are escaped into the C string
// literal; control characters are not supported.
func FtpdSession(script []string, sessions int) string {
	if sessions < 1 {
		sessions = 1
	}
	var b strings.Builder
	b.WriteString(ftpdFsC)
	b.WriteString(ftpdSessionBodyC)
	b.WriteString(ftpdDispatchC)
	fmt.Fprintf(&b, "\nchar* script[%d];\n\nvoid load_script(void) {\n", len(script))
	for i, cmd := range script {
		fmt.Fprintf(&b, "    script[%d] = \"%s\";\n", i, escapeC(cmd))
	}
	b.WriteString("}\n")
	fmt.Fprintf(&b, `
int main(void) {
    struct session sess;
    long codes = 0;
    int i;
    int sessions;
    load_script();
    for (sessions = 0; sessions < %d; sessions = sessions + 1) {
        sess_init(&sess, fs_build_root());
        for (i = 0; i < %d; i = i + 1)
            codes += dispatch(&sess, script[i]);
    }
    printf("ftpd codes %%ld out %%ld in %%ld\\n", codes, sess.bytes_out, sess.bytes_in);
    return 0;
}
`, sessions, len(script))
	return b.String()
}

func escapeC(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
