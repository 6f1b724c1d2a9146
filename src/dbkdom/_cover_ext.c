/* Compiled cover-search kernel.
 *
 * Returns what _cover_py returns: identical tables (balls, coverers,
 * max_ball), built by the same rule, the layer runs of each vertex, and,
 * for every search, the identical (status, witness, nodes), from the same
 * branching order, prunings (counting bound, root reflection, last pick)
 * and node accounting.  The parity tests pin the outputs.
 *
 * Balls are bitsets of ceil(n / 64) 64-bit words, vertex v at bit v % 64 of
 * word v / 64; coverers are stored as one CSR array (cov_idx, cov_dat).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPCNT64(x) __builtin_popcountll(x)
#define CTZ64(x) __builtin_ctzll(x)
#else  /* portable fallbacks; CTZ64 needs x != 0 */
static int POPCNT64(uint64_t x)
{ int c = 0; for (; x; x &= x - 1) c++; return c; }
static int CTZ64(uint64_t x)
{ int c = 0; for (; !(x & 1); x >>= 1) c++; return c; }
#endif

#define BIT(v) ((uint64_t)1 << ((v) & 63))

enum { DEBRUIJN = 0, KAUTZ = 1 };
enum { FOUND = 0, ABSENT = 1, INCONCLUSIVE = 2 };

typedef struct {
    PyObject_HEAD
    int family, n, d, k, max_ball, words;
    uint64_t *balls;   /* n rows of `words` words */
    Py_ssize_t *cov_idx;  /* n + 1 offsets into cov_dat */
    int32_t *cov_dat;
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

/* Layer runs of v, as _cover_py.KernelTable._balls builds balls from
 * them: layer 0 is the run [v, v+1) and each layer the image run of the one
 * before, [d*s, d*s + d*m) de Bruijn, [-d*(s+m), -d*s) Kautz, mod n, until
 * layer k or the first layer of n or more vertices, which is the whole
 * ring.  Fills start[] and len[] and returns the number of runs: a run
 * grows d >= 2 times a layer, so n < 2**31 allows at most 33. */
#define MAX_RUNS 33
static int layer_runs(const KernelTable *t, int v, int64_t *start,
                      int64_t *len)
{
    int64_t n = t->n, d = t->d, s = v, m = 1;  /* d * (s + m) < 2n * n */
    for (int layer = 0;; layer++) {
        if (m >= n)
            s = 0, m = n;
        start[layer] = s;
        len[layer] = m;
        if (m == n || layer == t->k)
            return layer + 1;
        s = (t->family == DEBRUIJN ? d * s : -d * (s + m)) % n;
        if (s < 0)
            s += n;
        m *= d;
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

static void KernelTable_dealloc(KernelTable *self)
{
    free(self->balls);
    free(self->cov_idx);
    free(self->cov_dat);
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
    self->cov_idx = calloc((size_t)n + 1, sizeof(Py_ssize_t));
    if (cursor != NULL && self->balls != NULL && self->cov_idx != NULL) {
        self->cov_dat = malloc((size_t)build_balls(self) * sizeof(int32_t));
        if (self->cov_dat != NULL)
            build_coverers(self, cursor);
    }
    free(cursor);
    if (self->cov_dat == NULL) {
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

/* Last pick, at a node past the root with one pick left: its children are
 * the non-banned coverers of v, its lowest uncovered vertex, and the first
 * whose ball covers every uncovered vertex ends the search after as many
 * nodes as children tried.  Without one the node is a leaf. */
static int last_pick(Search *s, int depth, int v)
{
    const KernelTable *t = s->t;
    int words = t->words;
    const uint64_t *covered = s->cov_stack + (size_t)depth * words;
    const uint64_t *banned = s->ban_stack + (size_t)depth * words;
    /* the bits of the last word that are vertices */
    uint64_t tail = ~(uint64_t)0 >> ((64 - (t->n & 63)) & 63);
    int64_t tried = 0;
    for (Py_ssize_t i = t->cov_idx[v]; i < t->cov_idx[v + 1]; i++) {
        int u = t->cov_dat[i], w = 0;
        if (banned[u >> 6] & BIT(u))
            continue;
        tried++;
        const uint64_t *row = t->balls + (size_t)u * words;
        while (w < words - 1 && (covered[w] | row[w]) == ~(uint64_t)0)
            w++;
        if (w < words - 1 || (covered[w] | row[w]) != tail)
            continue;
        s->nodes += tried;
        if (s->budget >= 0 && s->nodes > s->budget) {
            s->nodes = s->budget + 1;
            return INCONCLUSIVE;
        }
        s->chosen[depth] = u;
        s->found_len = depth + 1;
        return FOUND;
    }
    return ABSENT;
}

/* Branch on the lowest uncovered vertex over its coverers in ascending
 * order; coverers already tried at a node are banned in the sibling
 * subtrees, so no subset is explored twice.  At the root a tried coverer's
 * mirror n - 1 - u is banned too (root reflection). */
static int dfs(Search *s, int depth, int remaining)
{
    const KernelTable *t = s->t;
    int words = t->words, cnt = 0, v = -1;
    uint64_t *covered = s->cov_stack + (size_t)depth * words;
    uint64_t *banned = s->ban_stack + (size_t)depth * words;
    uint64_t *child_cov = covered + words, *child_ban = banned + words;
    s->nodes++;
    if (s->budget >= 0 && s->nodes > s->budget)
        return INCONCLUSIVE;
    for (int w = 0; w < words; w++)
        cnt += POPCNT64(covered[w]);
    if (cnt == t->n) {
        s->found_len = depth;
        return FOUND;
    }
    if (remaining == 0)
        return ABSENT;
    if ((int64_t)remaining * t->max_ball < t->n - cnt)
        return ABSENT;
    for (int w = 0; w < words; w++) {
        if (~covered[w]) {
            v = (w << 6) + CTZ64(~covered[w]);
            break;
        }
    }
    /* cnt < n guarantees v is a real vertex; at the root the counting
     * bound with one pick left already means a full ball, so the root
     * takes the general path, which skips mirrors */
    if (remaining == 1 && depth > 0)
        return last_pick(s, depth, v);
    for (Py_ssize_t i = t->cov_idx[v]; i < t->cov_idx[v + 1]; i++) {
        int u = t->cov_dat[i];
        if (banned[u >> 6] & BIT(u))
            continue;
        const uint64_t *row = t->balls + (size_t)u * words;
        for (int w = 0; w < words; w++) {
            child_cov[w] = covered[w] | row[w];
            child_ban[w] = banned[w];
        }
        child_ban[u >> 6] |= BIT(u);
        s->chosen[depth] = u;
        int r = dfs(s, depth + 1, remaining - 1);
        if (r != ABSENT)
            return r;
        banned[u >> 6] |= BIT(u);
        if (depth == 0) {
            int m = t->n - 1 - u;
            banned[m >> 6] |= BIT(m);
        }
    }
    return ABSENT;
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
    Search s = {self, NULL, NULL, NULL, 0, -1, 0};
    if (max_nodes != Py_None) {
        /* past 2**63 the node count is never reached, and below -2**63 a
         * budget is negative: either way there is no budget */
        int overflow;
        s.budget = PyLong_AsLongLongAndOverflow(max_nodes, &overflow);
        if (s.budget == -1 && PyErr_Occurred())
            return NULL;
        if (overflow)
            s.budget = -1;
    }
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
        int status = dfs(&s, 0, size);
        PyObject *witness = Py_NewRef(Py_None);
        if (status == FOUND) {
            Py_SETREF(witness, int_list(s.chosen, s.found_len));
            if (witness != NULL && PyList_Sort(witness) < 0)
                Py_CLEAR(witness);
        }
        if (witness != NULL)
            result = Py_BuildValue("(iNL)", status, witness,
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
            || PyModule_AddIntConstant(m, "FOUND", FOUND) < 0
            || PyModule_AddIntConstant(m, "ABSENT", ABSENT) < 0
            || PyModule_AddIntConstant(m, "INCONCLUSIVE", INCONCLUSIVE) < 0)
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
