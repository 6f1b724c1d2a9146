/* Compiled cover-search kernel: _cover_py written in C.
 *
 * The same layer rule builds the balls (layer_runs) and the same search
 * walks the tree (expand at every node, the root and the last picks
 * included; the root's bans alone grow, with its children's mirrors, and
 * the node count and the budget are settled only at children that pass
 * the counting bound and at a loop's end, which a last pick with no full
 * child never reaches), so the tables (balls, coverers, max_ball) and
 * every search's (status, witness, nodes) are _cover_py's, the status
 * by the same names ("found", "absent", "inconclusive"), which the module
 * constants FOUND, ABSENT and INCONCLUSIVE hold.  The parity tests pin
 * the outputs.  As there, a child whose ball's vertices from the
 * branching vertex up (cov_high, built the first time a search branches on
 * that vertex) cannot lift the node's covered count to the counting bound
 * is skipped before its popcount, since every vertex below the branching
 * one is covered.  Two things differ where they cost differently in C: a
 * ban is one bit, so it is tested before that skip and the bound's
 * popcount, and the children so far are counted in a register rather than
 * from a coverer mask.
 *
 * Balls are bitsets of ceil(n / 64) 64-bit words, vertex v at bit v % 64 of
 * word v / 64; coverers are stored as one CSR array (cov_idx, cov_dat),
 * with cov_high beside cov_dat.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__GNUC__) || defined(__clang__)
#define CTZ64(x) __builtin_ctzll(x)
#else  /* portable fallback; needs x != 0 */
static int CTZ64(uint64_t x)
{ int c = 0; for (; !(x & 1); x >>= 1) c++; return c; }
#endif
/* Bit-parallel count, inline on every compiler: without a popcount
 * instruction (x86-64 below -mpopcnt) gcc's builtin is a libgcc call. */
static inline int POPCNT64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return (int)((x * 0x0101010101010101u) >> 56);
}

#define BIT(v) ((uint64_t)1 << ((v) & 63))

enum { DEBRUIJN = 0, KAUTZ = 1 };
enum { FOUND = 0, ABSENT = 1, INCONCLUSIVE = 2 };
/* a search's status by the names _cover_py's constants hold */
static const char *const status_names[] = {
    [FOUND] = "found", [ABSENT] = "absent", [INCONCLUSIVE] = "inconclusive",
};

typedef struct {
    PyObject_HEAD
    int family, n, d, k, max_ball, words;
    uint64_t *balls;   /* n rows of `words` words */
    int32_t *sizes;    /* n ball sizes */
    Py_ssize_t *cov_idx;  /* n + 1 offsets into cov_dat and cov_high */
    int32_t *cov_dat;
    int32_t *cov_high;  /* beside each coverer u of v: |ball(u) from v up| */
    /* n flags: v's cov_high is written.  Not char: a char store may alias
     * any word, and with one in expand gcc 12 (x86-64) made the search of
     * Kautz 500/2/6 and de Bruijn 1000/3/5 2-8 % slower. */
    int32_t *high_ready;
} KernelTable;

/* Per-search state: covered/banned bitsets for each depth, the chosen
 * vertex at each depth, and the node counter. */
typedef struct {
    const KernelTable *t;
    uint64_t *cov_stack, *ban_stack;
    int32_t *chosen;
    int64_t nodes, budget;
    int found_len;
} Search;

/* Layer runs of v, by _cover_py.KernelTable's rule: layer j is the cyclic
 * run of m = min(d**j, n) vertices from m*v mod n, or from m*(n-1-v) mod n
 * at an odd j of a Kautz table, up to layer k or the first whole ring.
 * Fills start[] and len[] and returns the number of runs: m grows d >= 2
 * times a layer, so n < 2**31 allows at most 33. */
#define MAX_RUNS 33
static int layer_runs(const KernelTable *t, int v, int64_t *start,
                      int64_t *len)
{
    int64_t n = t->n, m = 1;  /* m * n < 2**62 */
    for (int layer = 0;; layer++) {
        int flip = t->family == KAUTZ && layer % 2 == 1;
        start[layer] = m * (flip ? n - 1 - v : v) % n;
        len[layer] = m;
        if (m == n || layer == t->k)
            return layer + 1;
        m = m * t->d < n ? m * t->d : n;
    }
}

/* Radius-k balls from layer runs.  Each vertex is set once and counted in
 * cov_idx as it is set.  Returns the total of all ball sizes. */
static Py_ssize_t build_balls(KernelTable *t)
{
    int64_t start[MAX_RUNS], len[MAX_RUNS];
    Py_ssize_t total = 0;
    for (int v = 0; v < t->n; v++) {
        uint64_t *row = t->balls + (size_t)v * t->words;
        int runs = layer_runs(t, v, start, len), size = 0;
        for (int r = 0; r < runs; r++) {
            for (int64_t i = 0, y = start[r]; i < len[r]; i++) {
                if (!(row[y >> 6] & BIT(y))) {
                    row[y >> 6] |= BIT(y);
                    t->cov_idx[y + 1]++;
                    size++;
                }
                if (++y == t->n)
                    y = 0;
            }
        }
        t->sizes[v] = size;
        if (size > t->max_ball)
            t->max_ball = size;
        total += size;
    }
    return total;
}

/* Transpose of the ball table, from the per-vertex counts build_balls left
 * in cov_idx: the layer runs are walked again with u ascending, so the
 * coverers of v come out ascending, and the last coverer written for v is
 * its stamp: v met twice in ball(u) is written once. */
static void build_coverers(KernelTable *t, Py_ssize_t *cursor)
{
    int64_t start[MAX_RUNS], len[MAX_RUNS];
    for (int v = 0; v < t->n; v++) {
        t->cov_idx[v + 1] += t->cov_idx[v];
        cursor[v] = t->cov_idx[v];
    }
    for (int u = 0; u < t->n; u++) {
        int runs = layer_runs(t, u, start, len);
        for (int r = 0; r < runs; r++) {
            for (int64_t i = 0, v = start[r]; i < len[r]; i++) {
                if (cursor[v] == t->cov_idx[v]
                        || t->cov_dat[cursor[v] - 1] != u)
                    t->cov_dat[cursor[v]++] = u;
                if (++v == t->n)
                    v = 0;
            }
        }
    }
}

/* Beside each coverer u of v, the vertices of ball(u) from v up: its size
 * less those below v, the words up to v's, which are few as a search
 * branches on its lowest uncovered vertex.  Written the first time a
 * search branches on v. */
static void build_high(const KernelTable *t, int v)
{
    int top = v >> 6;
    for (Py_ssize_t i = t->cov_idx[v]; i < t->cov_idx[v + 1]; i++) {
        int u = t->cov_dat[i];
        const uint64_t *row = t->balls + (size_t)u * t->words;
        int h = t->sizes[u] - POPCNT64(row[top] & (BIT(v) - 1));
        for (int w = 0; w < top; w++)
            h -= POPCNT64(row[w]);
        t->cov_high[i] = h;
    }
    t->high_ready[v] = 1;
}

static void KernelTable_dealloc(KernelTable *self)
{
    free(self->balls);
    free(self->sizes);
    free(self->cov_idx);
    free(self->cov_dat);
    free(self->cov_high);
    free(self->high_ready);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *KernelTable_new(PyTypeObject *type, PyObject *args,
                                 PyObject *kwds)
{
    static char *kwlist[] = {"family", "n", "d", "k", NULL};
    int family, n, d, k;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iiii", kwlist,
                                     &family, &n, &d, &k))
        return NULL;
    if (family != DEBRUIJN && family != KAUTZ)
        return PyErr_Format(PyExc_ValueError, "unknown family code %d",
                            family);
    if (n < 1 || d < 2 || k < 0)
        return PyErr_Format(PyExc_ValueError, "need n >= 1, d >= 2, k >= 0");
    if (d > n)
        return PyErr_Format(PyExc_ValueError,
                            "need d <= n, got n=%d, d=%d", n, d);
    KernelTable *self = (KernelTable *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->family = family;
    self->n = n;
    self->d = d;
    self->k = k;
    self->words = (n + 63) >> 6;
    Py_ssize_t *cursor = malloc((size_t)n * sizeof(Py_ssize_t));
    self->balls = calloc((size_t)n * self->words, sizeof(uint64_t));
    self->sizes = malloc((size_t)n * sizeof(int32_t));
    self->cov_idx = calloc((size_t)n + 1, sizeof(Py_ssize_t));
    if (cursor != NULL && self->balls != NULL && self->sizes != NULL
            && self->cov_idx != NULL) {
        size_t total = (size_t)build_balls(self);
        self->cov_dat = malloc(total * sizeof(int32_t));
        self->cov_high = malloc(total * sizeof(int32_t));
        self->high_ready = calloc((size_t)n, sizeof(int32_t));
        if (self->cov_dat != NULL && self->cov_high != NULL
                && self->high_ready != NULL)
            build_coverers(self, cursor);
    }
    free(cursor);
    if (self->cov_dat == NULL || self->cov_high == NULL
            || self->high_ready == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

/* Vertex argument of ball_mask/coverer_list, or -1 with an exception. */
static int vertex_arg(const KernelTable *self, PyObject *arg)
{
    int overflow;
    long v = PyLong_AsLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 0 || v >= self->n) {
        PyErr_Format(PyExc_ValueError, "vertex %S out of range [0, %d)",
                     arg, self->n);
        return -1;
    }
    return (int)v;
}

static PyObject *int_list(const int32_t *items, Py_ssize_t len)
{
    PyObject *out = PyList_New(len);
    for (Py_ssize_t i = 0; out != NULL && i < len; i++) {
        PyObject *item = PyLong_FromLong(items[i]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static PyObject *KernelTable_ball_mask(KernelTable *self, PyObject *arg)
{
    int v = vertex_arg(self, arg);
    if (v < 0)
        return NULL;
    const uint64_t *row = self->balls + (size_t)v * self->words;
    PyObject *mask = PyLong_FromLong(0), *shift = PyLong_FromLong(64);
    for (int w = self->words - 1; w >= 0 && mask != NULL; w--) {
        PyObject *hi = shift ? PyNumber_Lshift(mask, shift) : NULL;
        PyObject *lo = PyLong_FromUnsignedLongLong(row[w]);
        Py_SETREF(mask, hi && lo ? PyNumber_Or(hi, lo) : NULL);
        Py_XDECREF(hi);
        Py_XDECREF(lo);
    }
    Py_XDECREF(shift);
    return mask;
}

static PyObject *KernelTable_coverer_list(KernelTable *self, PyObject *arg)
{
    int v = vertex_arg(self, arg);
    if (v < 0)
        return NULL;
    return int_list(self->cov_dat + self->cov_idx[v],
                    self->cov_idx[v + 1] - self->cov_idx[v]);
}

/* The lowest vertex of a node that is short of the whole ring and not in
 * its covered set. */
static int lowest_uncovered(const uint64_t *covered)
{
    int w = 0;
    while (covered[w] == ~(uint64_t)0)
        w++;
    return (w << 6) + CTZ64(~covered[w]);
}

/* Whether the node count has passed the budget; a count settled past it
 * is cut back to budget + 1, the node at which a search that checks the
 * budget at every child stops. */
static int over_budget(Search *s)
{
    if (s->nodes <= s->budget)
        return 0;
    s->nodes = s->budget + 1;
    return 1;
}

/* _cover_py's expand, at the node at `depth` with `remaining` >= 1 picks
 * and `count` covered vertices: branch on its lowest uncovered vertex v
 * over the coverers in ascending order.  A child's subtree also bans the
 * non-banned siblings before it, which child_ban gathers as the loop
 * passes them.  Below the root a sibling bans only itself, so the node's
 * banned set is fixed over the loop; at the root (depth 0, whose bans are
 * its own to write) a passed child also bans its mirror n - 1 - u in the
 * node and in child_ban (root reflection), so a later mirror is no child.
 * Every vertex below v is covered, so a child covers at most count plus
 * its cov_high, and one below the counting bound that way is a leaf with
 * no word read; otherwise its popcount of covered | ball is tested
 * against the bound with nothing copied, and one that fails is a leaf.
 * Only at a child that passes are the node count and the budget settled
 * and the words copied, and once more at the loop's end.  A last pick
 * (one pick left) is such a node too: only a full child passes its
 * bound, so the first full, non-banned one ends the search, and with none
 * it is a leaf whose children are not counted. */
static int expand(Search *s, int depth, int remaining, int count)
{
    const KernelTable *t = s->t;
    int words = t->words, left = remaining - 1;
    const uint64_t *covered = s->cov_stack + (size_t)depth * words;
    uint64_t *banned = s->ban_stack + (size_t)depth * words;
    uint64_t *child_cov = s->cov_stack + (size_t)(depth + 1) * words;
    uint64_t *child_ban = s->ban_stack + (size_t)(depth + 1) * words;
    int v = lowest_uncovered(covered);
    if (!t->high_ready[v])
        build_high(t, v);
    /* the counting bound: with `left` picks to go a child needs this many
     * covered vertices; a full child always has them */
    int64_t need = t->n - (int64_t)left * t->max_ball;
    /* the nodes outside this loop's children, and the children so far */
    int64_t counted = s->nodes, at = 0;
    for (int w = 0; w < words; w++)
        child_ban[w] = banned[w];
    for (Py_ssize_t i = t->cov_idx[v]; i < t->cov_idx[v + 1]; i++) {
        int u = t->cov_dat[i];
        if (banned[u >> 6] & BIT(u))
            continue;
        at++;
        if (count + t->cov_high[i] >= need) {
            const uint64_t *row = t->balls + (size_t)u * words;
            int cnt = 0;
            for (int w = 0; w < words; w++)
                cnt += POPCNT64(covered[w] | row[w]);
            if (cnt >= need) {
                s->nodes = counted + at;
                if (over_budget(s))
                    return INCONCLUSIVE;
                s->chosen[depth] = u;
                if (cnt == t->n) {
                    s->found_len = depth + 1;
                    return FOUND;
                }
                for (int w = 0; w < words; w++)
                    child_cov[w] = covered[w] | row[w];
                int r = expand(s, depth + 1, left, cnt);
                if (r != ABSENT)
                    return r;
                counted = s->nodes - at;
            }
        }
        child_ban[u >> 6] |= BIT(u);
        if (depth == 0) {
            int m = t->n - 1 - u;
            banned[m >> 6] |= BIT(m);
            child_ban[m >> 6] |= BIT(m);
        }
    }
    if (left == 0)
        return ABSENT;  /* a last pick with no full child: a leaf */
    s->nodes = counted + at;
    return over_budget(s) ? INCONCLUSIVE : ABSENT;
}

static PyObject *KernelTable_search(KernelTable *self, PyObject *args,
                                    PyObject *kwds)
{
    static char *kwlist[] = {"size", "max_nodes", NULL};
    int size;
    PyObject *max_nodes = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "i|O", kwlist,
                                     &size, &max_nodes))
        return NULL;
    if (size < 0)
        return PyErr_Format(PyExc_ValueError, "size must be >= 0, got %d",
                            size);
    Search s = {self, NULL, NULL, NULL, 1, INT64_MAX, 0};  /* 1: the root */
    if (max_nodes != Py_None) {
        /* past 2**63 the node count is never reached, and a negative
         * budget is no budget */
        int overflow;
        long long budget = PyLong_AsLongLongAndOverflow(max_nodes, &overflow);
        if (budget == -1 && PyErr_Occurred())
            return NULL;
        if (!overflow && budget >= 0)
            s.budget = budget;
    }
    if (s.budget < 1)
        return Py_BuildValue("(sOi)", status_names[INCONCLUSIVE], Py_None,
                             1);
    if (size == 0 || (int64_t)size * self->max_ball < self->n)
        return Py_BuildValue("(sOi)", status_names[ABSENT], Py_None, 1);
    /* every chosen vertex covers a new one, so depth never exceeds n */
    size_t levels = (size_t)(size < self->n ? size : self->n) + 1;
    size_t stack = levels * self->words * sizeof(uint64_t);
    PyObject *result = NULL;
    s.cov_stack = calloc(1, stack);
    s.ban_stack = calloc(1, stack);
    s.chosen = malloc(levels * sizeof(int32_t));
    if (s.cov_stack == NULL || s.ban_stack == NULL || s.chosen == NULL) {
        PyErr_NoMemory();
    } else {
        int status = expand(&s, 0, size, 0);
        PyObject *witness = Py_NewRef(Py_None);
        if (status == FOUND) {
            Py_SETREF(witness, int_list(s.chosen, s.found_len));
            if (witness != NULL && PyList_Sort(witness) < 0)
                Py_CLEAR(witness);
        }
        if (witness != NULL)
            result = Py_BuildValue("(sNL)", status_names[status], witness,
                                   (long long)s.nodes);
    }
    free(s.cov_stack);
    free(s.ban_stack);
    free(s.chosen);
    return result;
}

static PyMethodDef KernelTable_methods[] = {
    {"ball_mask", (PyCFunction)KernelTable_ball_mask, METH_O,
     "Radius-k ball of vertex v as an int bitmask."},
    {"coverer_list", (PyCFunction)KernelTable_coverer_list, METH_O,
     "Ascending list of the vertices whose ball contains v."},
    {"search", (PyCFunction)(void (*)(void))KernelTable_search,
     METH_VARARGS | METH_KEYWORDS,
     "search(size, max_nodes=None) -> (status, witness, nodes); same "
     "contract as the pure kernel."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef KernelTable_members[] = {
    {"family", T_INT, offsetof(KernelTable, family), READONLY, NULL},
    {"n", T_INT, offsetof(KernelTable, n), READONLY, NULL},
    {"d", T_INT, offsetof(KernelTable, d), READONLY, NULL},
    {"k", T_INT, offsetof(KernelTable, k), READONLY, NULL},
    {"max_ball", T_INT, offsetof(KernelTable, max_ball), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject KernelTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "dbkdom._cover_ext.KernelTable",
    .tp_basicsize = sizeof(KernelTable),
    .tp_dealloc = (destructor)KernelTable_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Coverage table plus search state for one (family, n, d, k) "
              "instance.",
    .tp_methods = KernelTable_methods,
    .tp_members = KernelTable_members,
    .tp_new = KernelTable_new,
};

static int cover_ext_exec(PyObject *m)
{
    if (PyType_Ready(&KernelTableType) < 0
            || PyModule_AddObjectRef(m, "KernelTable",
                                     (PyObject *)&KernelTableType) < 0
            || PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0
            || PyModule_AddIntConstant(m, "DEBRUIJN", DEBRUIJN) < 0
            || PyModule_AddIntConstant(m, "KAUTZ", KAUTZ) < 0
            || PyModule_AddStringConstant(m, "FOUND", status_names[FOUND]) < 0
            || PyModule_AddStringConstant(m, "ABSENT",
                                          status_names[ABSENT]) < 0
            || PyModule_AddStringConstant(m, "INCONCLUSIVE",
                                          status_names[INCONCLUSIVE]) < 0)
        return -1;
    return 0;
}

static PyModuleDef_Slot cover_ext_slots[] = {
    {Py_mod_exec, cover_ext_exec},
    {0, NULL},
};

/* multi-phase init, so loading the module from a file path leaves
 * sys.modules alone */
static struct PyModuleDef cover_ext_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_cover_ext",
    .m_doc = "Compiled cover-search kernel; mirror of dbkdom._cover_py.",
    .m_size = 0,
    .m_slots = cover_ext_slots,
};

PyMODINIT_FUNC PyInit__cover_ext(void)
{
    return PyModuleDef_Init(&cover_ext_module);
}
