/*
 * Native kernel of the ROBDD manager (repro.bdd).
 *
 * Owns node storage, the unique table, the computed tables and the hot
 * apply loops.  It is a transcription of the pure-Python kernel in
 * repro/bdd/kernel.py and must stay one: same canonical rules, same
 * iterative two-phase stack, same push order and the same insertion
 * order in every table, so node ids, the per-operation counters and the
 * computed-table tape come out identical to the Python kernel's.  The
 * Python kernel is the equivalence oracle in tests/test_bdd_kernel.py.
 *
 * Layout:
 *   - nodes: one flat array of {level, low, high, next}; a node id is
 *     index << 1 | complement, the stored high edge is always regular,
 *     freed nodes carry level -1 and sit on a LIFO free list;
 *   - `next` threads each level's nodes in insertion order, which is
 *     the order the Python kernel's per-level dicts sweep in, so a
 *     collection frees (and later reuses) indices in the same order;
 *   - unique table: open addressing over node indices, keyed by
 *     (level, low, high);
 *   - computed tables (AND shared with OR through De Morgan, XOR on
 *     complement-stripped operands, ITE): an insertion-ordered entry
 *     array plus an open-addressing index of entry positions, the
 *     layout of a compact dict.
 *
 * Errors never crash: a failed allocation raises MemoryError, the
 * node-index limit raises the manager's BDDError, and both leave every
 * table holding only true facts.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TERMINAL_LEVEL INT32_MAX
#define FREED_LEVEL (-1)
#define DEFAULT_MAX_INDEX (1u << 29)

#define CT_AND 0
#define CT_XOR 1
#define CT_ITE 2

#define ST_AND 0
#define ST_OR 1
#define ST_XOR 2
#define ST_ITE 3

#define INITIAL_NODES 1024
#define INITIAL_SLOTS 1024
#define INITIAL_ENTRIES 512

static PyObject *bdd_error; /* repro.bdd.BDDError, installed by set_error */
static PyObject *op_names[3];

typedef struct {
    int32_t level;  /* variable level; FREED_LEVEL on the free list */
    uint32_t low;   /* low edge id (may carry the complement bit) */
    uint32_t high;  /* high edge id (always regular) */
    uint32_t next;  /* next index in this level's insertion list, 0 = end */
} Node;

/* A hash-table slot: the entry position + 1 or the node index; 0 is
 * empty. */
typedef uint32_t Slot;

typedef struct {
    uint32_t *e;     /* entries, `width` words each: operands..., result */
    Slot *slots;     /* open addressing over entry positions */
    size_t n;        /* entries in use */
    size_t cap;      /* entries allocated */
    size_t mask;     /* slot count - 1 */
    int shift;       /* 64 - log2(slot count) */
    int width;       /* 3 (two operands) or 4 (three operands) */
} CTable;

typedef struct {
    uint32_t a, b;           /* the subproblem, i.e. its table key */
    uint32_t a0, b0, a1, b1; /* cofactor subproblems (combine frames) */
    int32_t lo, hi;          /* resolved children, -1 while pending */
    int32_t lvl;             /* -1 for an expand frame */
    uint32_t lp, hp;         /* XOR: parity re-applied to cached children */
} Frame;

typedef struct {
    PyObject_HEAD
    Node *nodes;
    size_t nnodes;    /* allocated indices, terminal included */
    size_t nodes_cap;
    Slot *uslots;     /* unique table: open addressing over node indices */
    size_t umask;
    int ushift;
    size_t ucount;
    uint32_t *freel;
    size_t nfree, free_cap;
    uint32_t *lhead, *ltail; /* per-level insertion lists */
    size_t nlevels, levels_cap;
    CTable ct[3];
    unsigned long long st[4][3]; /* hits, misses, entries per operation */
    Frame *stack;
    size_t stack_cap;
    size_t max_index;
} Kernel;

/* ------------------------------------------------------------------ */
/* Hashing                                                             */
/* ------------------------------------------------------------------ */

/* 64-bit key hashes: the top bits pick the slot. */
static inline uint64_t
hash2(uint32_t a, uint32_t b)
{
    uint64_t x = (((uint64_t)a << 32) | b) * 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    return x * 0xBF58476D1CE4E5B9ull;
}

static inline uint64_t
hash3(uint32_t a, uint32_t b, uint32_t c)
{
    uint64_t x = (((uint64_t)a << 32) | b) * 0x9E3779B97F4A7C15ull;
    x ^= (uint64_t)c * 0xC2B2AE3D27D4EB4Full;
    x ^= x >> 29;
    return x * 0xBF58476D1CE4E5B9ull;
}

static int
log2_size(size_t n)
{
    int b = 0;
    while (((size_t)1 << b) < n)
        b++;
    return b;
}

/* ------------------------------------------------------------------ */
/* Computed tables                                                     */
/* ------------------------------------------------------------------ */

static int
ct_init(CTable *t, int width)
{
    t->width = width;
    t->n = 0;
    t->cap = INITIAL_ENTRIES;
    t->mask = INITIAL_SLOTS - 1;
    t->shift = 64 - log2_size(INITIAL_SLOTS);
    t->e = PyMem_RawMalloc(t->cap * width * sizeof(uint32_t));
    t->slots = PyMem_RawCalloc(INITIAL_SLOTS, sizeof(Slot));
    if (!t->e || !t->slots) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
ct_free(CTable *t)
{
    PyMem_RawFree(t->e);
    PyMem_RawFree(t->slots);
    t->e = NULL;
    t->slots = NULL;
}

static inline uint64_t
ct_hash(const CTable *t, const uint32_t *k)
{
    return t->width == 3 ? hash2(k[0], k[1]) : hash3(k[0], k[1], k[2]);
}

/* Re-index every entry into `slots` (zeroed, mask+1 long). */
static void
ct_reindex(CTable *t)
{
    int w = t->width;
    for (size_t pos = 0; pos < t->n; pos++) {
        uint64_t x = ct_hash(t, t->e + pos * w);
        size_t i = (size_t)(x >> t->shift);
        while (t->slots[i])
            i = (i + 1) & t->mask;
        t->slots[i] = (Slot)(pos + 1);
    }
}

static int
ct_grow_slots(CTable *t)
{
    size_t nslots = (t->mask + 1) * 2;
    Slot *slots = PyMem_RawCalloc(nslots, sizeof(Slot));
    if (!slots) {
        PyErr_NoMemory();
        return -1;
    }
    PyMem_RawFree(t->slots);
    t->slots = slots;
    t->mask = nslots - 1;
    t->shift = 64 - log2_size(nslots);
    ct_reindex(t);
    return 0;
}

static inline int64_t
ct_get2(const CTable *t, uint32_t a, uint32_t b)
{
    uint64_t x = hash2(a, b);
    size_t i = (size_t)(x >> t->shift);
    for (;;) {
        Slot s = t->slots[i];
        if (!s)
            return -1;
        const uint32_t *e = t->e + (size_t)(s - 1) * 3;
        if (e[0] == a && e[1] == b)
            return e[2];
        i = (i + 1) & t->mask;
    }
}

static inline int64_t
ct_get3(const CTable *t, uint32_t a, uint32_t b, uint32_t c)
{
    uint64_t x = hash3(a, b, c);
    size_t i = (size_t)(x >> t->shift);
    for (;;) {
        Slot s = t->slots[i];
        if (!s)
            return -1;
        const uint32_t *e = t->e + (size_t)(s - 1) * 4;
        if (e[0] == a && e[1] == b && e[2] == c)
            return e[3];
        i = (i + 1) & t->mask;
    }
}

/* Insert (or overwrite) key -> r; appends new keys in insertion order. */
static int
ct_put(CTable *t, const uint32_t *key, uint32_t r)
{
    int w = t->width;
    if ((t->n + 1) * 2 > t->mask + 1 && ct_grow_slots(t) < 0)
        return -1;
    uint64_t x = ct_hash(t, key);
    size_t i = (size_t)(x >> t->shift);
    for (;;) {
        Slot s = t->slots[i];
        if (!s)
            break;
        uint32_t *e = t->e + (size_t)(s - 1) * w;
        if (memcmp(e, key, (w - 1) * sizeof(uint32_t)) == 0) {
            e[w - 1] = r;
            return 0;
        }
        i = (i + 1) & t->mask;
    }
    if (t->n == t->cap) {
        size_t cap = t->cap * 2;
        uint32_t *e = PyMem_RawRealloc(t->e, cap * w * sizeof(uint32_t));
        if (!e) {
            PyErr_NoMemory();
            return -1;
        }
        t->e = e;
        t->cap = cap;
    }
    uint32_t *e = t->e + t->n * w;
    memcpy(e, key, (w - 1) * sizeof(uint32_t));
    e[w - 1] = r;
    t->n++;
    t->slots[i] = (Slot)t->n;
    return 0;
}

static inline int
ct_put2(CTable *t, uint32_t a, uint32_t b, uint32_t r)
{
    uint32_t key[2] = {a, b};
    return ct_put(t, key, r);
}

/* Drop every entry, releasing memory back to the initial size. */
static int
ct_reset(CTable *t)
{
    int w = t->width;
    CTable fresh;
    if (ct_init(&fresh, w) < 0) {
        ct_free(&fresh);
        return -1;
    }
    ct_free(t);
    *t = fresh;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Node storage and the unique table                                   */
/* ------------------------------------------------------------------ */

static inline uint64_t
unique_hash(int32_t lvl, uint32_t lo, uint32_t hi)
{
    return hash3(lo, hi, (uint32_t)lvl);
}

static void
unique_reindex(Kernel *k)
{
    Node *N = k->nodes;
    for (size_t idx = 1; idx < k->nnodes; idx++) {
        if (N[idx].level == FREED_LEVEL)
            continue;
        uint64_t x = unique_hash(N[idx].level, N[idx].low, N[idx].high);
        size_t i = (size_t)(x >> k->ushift);
        while (k->uslots[i])
            i = (i + 1) & k->umask;
        k->uslots[i] = idx;
    }
}

static int
unique_grow(Kernel *k)
{
    size_t nslots = (k->umask + 1) * 2;
    Slot *slots = PyMem_RawCalloc(nslots, sizeof(Slot));
    if (!slots) {
        PyErr_NoMemory();
        return -1;
    }
    PyMem_RawFree(k->uslots);
    k->uslots = slots;
    k->umask = nslots - 1;
    k->ushift = 64 - log2_size(nslots);
    unique_reindex(k);
    return 0;
}

static int
nodes_grow(Kernel *k)
{
    size_t cap = k->nodes_cap * 2;
    Node *nodes = PyMem_RawRealloc(k->nodes, cap * sizeof(Node));
    if (!nodes) {
        PyErr_NoMemory();
        return -1;
    }
    k->nodes = nodes;
    k->nodes_cap = cap;
    return 0;
}

/* The node (lvl, lo, hi), interned; returns its id or -1 (error set). */
static int64_t
k_mk(Kernel *k, int32_t lvl, uint32_t lo, uint32_t hi)
{
    if (lo == hi)
        return lo;
    /* Canonical form: the stored high edge is always regular. */
    uint32_t c = hi & 1;
    lo ^= c;
    hi ^= c;
    if ((k->ucount + 1) * 2 > k->umask + 1 && unique_grow(k) < 0)
        return -1;
    Node *N = k->nodes;
    uint64_t x = unique_hash(lvl, lo, hi);
    size_t i = (size_t)(x >> k->ushift);
    for (;;) {
        Slot s = k->uslots[i];
        if (!s)
            break;
        if (N[s].low == lo && N[s].high == hi && N[s].level == lvl)
            return ((int64_t)s << 1) | c;
        i = (i + 1) & k->umask;
    }
    uint32_t idx;
    if (k->nfree) {
        idx = k->freel[--k->nfree];
    }
    else {
        if (k->nnodes >= k->max_index) {
            /* Beyond this index the packed ids would overflow the key
             * space the manager promises; in a verification kernel that
             * must be a loud failure. */
            PyErr_Format(bdd_error,
                         "unique table exceeded %zu nodes; packed table "
                         "keys would no longer be collision-free",
                         k->max_index);
            return -1;
        }
        if (k->nnodes == k->nodes_cap && nodes_grow(k) < 0)
            return -1;
        idx = (uint32_t)k->nnodes++;
        N = k->nodes;
    }
    N[idx].level = lvl;
    N[idx].low = lo;
    N[idx].high = hi;
    N[idx].next = 0;
    if (k->ltail[lvl])
        N[k->ltail[lvl]].next = idx;
    else
        k->lhead[lvl] = idx;
    k->ltail[lvl] = idx;
    k->uslots[i] = idx;
    k->ucount++;
    return ((int64_t)idx << 1) | c;
}

static inline Frame *
push_frame(Kernel *k, size_t *sp)
{
    if (*sp == k->stack_cap) {
        size_t cap = k->stack_cap ? k->stack_cap * 2 : 64;
        Frame *s = PyMem_RawRealloc(k->stack, cap * sizeof(Frame));
        if (!s) {
            PyErr_NoMemory();
            return NULL;
        }
        k->stack = s;
        k->stack_cap = cap;
    }
    return &k->stack[(*sp)++];
}

/* ------------------------------------------------------------------ */
/* The shared AND/OR kernel                                            */
/*                                                                     */
/* An expand frame resolves both cofactor children through the terminal */
/* rules or the computed table; a combine frame builds the node once   */
/* they are available.  Children are pushed after their combine frame, */
/* so LIFO order guarantees the combine frame finds them in the table. */
/* ------------------------------------------------------------------ */

/* Resolve one AND child: its id, or -1 when it must be computed (the
 * operands are left sorted for the table key). */
static inline int64_t
and_child(const CTable *t, uint32_t *pa, uint32_t *pb,
          unsigned long long *hits)
{
    uint32_t a = *pa, b = *pb;
    if (a > b) {
        uint32_t tmp = a;
        a = b;
        b = tmp;
        *pa = a;
        *pb = b;
    }
    if (a == b)
        return a;
    if (a < 2)
        return a ? b : 0;
    if (b == (a ^ 1))
        return 0;
    int64_t r = ct_get2(t, a, b);
    if (r >= 0)
        ++*hits;
    return r;
}

static int64_t
k_and(Kernel *k, uint32_t f, uint32_t g, unsigned long long *st)
{
    if (f == g)
        return f;
    if (f > g) {
        uint32_t t = f;
        f = g;
        g = t;
    }
    if (f < 2)
        return f ? g : 0;
    if (g == (f ^ 1))
        return 0;
    CTable *t = &k->ct[CT_AND];
    int64_t r = ct_get2(t, f, g);
    if (r >= 0) {
        st[0]++;
        return r;
    }
    unsigned long long hits = 0, misses = 0;
    size_t sp = 0;
    Frame *fp = push_frame(k, &sp);
    if (!fp)
        return -1;
    fp->a = f;
    fp->b = g;
    fp->lvl = -1;
    while (sp) {
        Frame fr = k->stack[--sp];
        int64_t lo, hi;
        int32_t lvl;
        if (fr.lvl < 0) {
            uint32_t a = fr.a, b = fr.b;
            if (ct_get2(t, a, b) >= 0)
                continue;
            const Node *N = k->nodes;
            const Node *na = &N[a >> 1], *nb = &N[b >> 1];
            uint32_t a0, a1, b0, b1;
            if (na->level <= nb->level) {
                lvl = na->level;
                uint32_t ca = a & 1;
                a0 = na->low ^ ca;
                a1 = na->high ^ ca;
                if (na->level == nb->level) {
                    uint32_t cb = b & 1;
                    b0 = nb->low ^ cb;
                    b1 = nb->high ^ cb;
                }
                else {
                    b0 = b1 = b;
                }
            }
            else {
                lvl = nb->level;
                a0 = a1 = a;
                uint32_t cb = b & 1;
                b0 = nb->low ^ cb;
                b1 = nb->high ^ cb;
            }
            lo = and_child(t, &a0, &b0, &hits);
            hi = and_child(t, &a1, &b1, &hits);
            if (lo < 0 || hi < 0) {
                fp = push_frame(k, &sp);
                if (!fp)
                    return -1;
                fp->a = a;
                fp->b = b;
                fp->a0 = a0;
                fp->b0 = b0;
                fp->a1 = a1;
                fp->b1 = b1;
                fp->lo = (int32_t)lo;
                fp->hi = (int32_t)hi;
                fp->lvl = lvl;
                if (lo < 0) {
                    if (!(fp = push_frame(k, &sp)))
                        return -1;
                    fp->a = a0;
                    fp->b = b0;
                    fp->lvl = -1;
                }
                if (hi < 0) {
                    if (!(fp = push_frame(k, &sp)))
                        return -1;
                    fp->a = a1;
                    fp->b = b1;
                    fp->lvl = -1;
                }
                continue;
            }
        }
        else {
            lvl = fr.lvl;
            lo = fr.lo >= 0 ? fr.lo : ct_get2(t, fr.a0, fr.b0);
            hi = fr.hi >= 0 ? fr.hi : ct_get2(t, fr.a1, fr.b1);
            if (lo < 0 || hi < 0) {
                PyErr_SetString(PyExc_SystemError,
                                "BDD kernel: AND child missing at combine");
                return -1;
            }
        }
        misses++;
        int64_t id = k_mk(k, lvl, (uint32_t)lo, (uint32_t)hi);
        if (id < 0 || ct_put2(t, fr.a, fr.b, (uint32_t)id) < 0)
            return -1;
    }
    st[0] += hits;
    st[1] += misses;
    st[2] += misses;
    return ct_get2(t, f, g);
}

static inline int64_t
k_or(Kernel *k, uint32_t f, uint32_t g)
{
    /* De Morgan onto the AND kernel, with OR's own counters. */
    int64_t r = k_and(k, f ^ 1, g ^ 1, k->st[ST_OR]);
    return r < 0 ? r : r ^ 1;
}

/* ------------------------------------------------------------------ */
/* XOR: ~f ^ g == ~(f ^ g), so the table is keyed on regular operands  */
/* and the parity is re-applied to the result.                         */
/* ------------------------------------------------------------------ */

static inline int64_t
xor_child(const CTable *t, uint32_t *pa, uint32_t *pb, uint32_t p,
          unsigned long long *hits)
{
    uint32_t a = *pa & ~1u, b = *pb & ~1u;
    if (a > b) {
        uint32_t tmp = a;
        a = b;
        b = tmp;
    }
    *pa = a;
    *pb = b;
    if (a == b)
        return p;
    if (a == 0)
        return b ^ p;
    int64_t r = ct_get2(t, a, b);
    if (r >= 0) {
        ++*hits;
        r ^= p;
    }
    return r;
}

static int64_t
k_xor(Kernel *k, uint32_t f, uint32_t g)
{
    uint32_t parity = (f ^ g) & 1;
    f &= ~1u;
    g &= ~1u;
    if (f == g)
        return parity;
    if (f > g) {
        uint32_t t = f;
        f = g;
        g = t;
    }
    if (f == 0)
        return g ^ parity;
    CTable *t = &k->ct[CT_XOR];
    int64_t r = ct_get2(t, f, g);
    if (r >= 0) {
        k->st[ST_XOR][0]++;
        return r ^ parity;
    }
    unsigned long long hits = 0, misses = 0;
    size_t sp = 0;
    Frame *fp = push_frame(k, &sp);
    if (!fp)
        return -1;
    fp->a = f;
    fp->b = g;
    fp->lvl = -1;
    while (sp) {
        Frame fr = k->stack[--sp];
        int64_t lo, hi;
        int32_t lvl;
        if (fr.lvl < 0) {
            uint32_t a = fr.a, b = fr.b;
            if (ct_get2(t, a, b) >= 0)
                continue;
            const Node *N = k->nodes;
            const Node *na = &N[a >> 1], *nb = &N[b >> 1];
            uint32_t a0, a1, b0, b1;
            /* Both operands are regular: no complement to push. */
            if (na->level < nb->level) {
                lvl = na->level;
                a0 = na->low;
                a1 = na->high;
                b0 = b1 = b;
            }
            else if (nb->level < na->level) {
                lvl = nb->level;
                a0 = a1 = a;
                b0 = nb->low;
                b1 = nb->high;
            }
            else {
                lvl = na->level;
                a0 = na->low;
                a1 = na->high;
                b0 = nb->low;
                b1 = nb->high;
            }
            uint32_t lp = (a0 ^ b0) & 1, hp = (a1 ^ b1) & 1;
            lo = xor_child(t, &a0, &b0, lp, &hits);
            hi = xor_child(t, &a1, &b1, hp, &hits);
            if (lo < 0 || hi < 0) {
                fp = push_frame(k, &sp);
                if (!fp)
                    return -1;
                fp->a = a;
                fp->b = b;
                fp->a0 = a0;
                fp->b0 = b0;
                fp->a1 = a1;
                fp->b1 = b1;
                fp->lo = (int32_t)lo;
                fp->hi = (int32_t)hi;
                fp->lp = lp;
                fp->hp = hp;
                fp->lvl = lvl;
                if (lo < 0) {
                    if (!(fp = push_frame(k, &sp)))
                        return -1;
                    fp->a = a0;
                    fp->b = b0;
                    fp->lvl = -1;
                }
                if (hi < 0) {
                    if (!(fp = push_frame(k, &sp)))
                        return -1;
                    fp->a = a1;
                    fp->b = b1;
                    fp->lvl = -1;
                }
                continue;
            }
        }
        else {
            lvl = fr.lvl;
            lo = fr.lo;
            hi = fr.hi;
            if (lo < 0) {
                lo = ct_get2(t, fr.a0, fr.b0);
                if (lo >= 0)
                    lo ^= fr.lp;
            }
            if (hi < 0) {
                hi = ct_get2(t, fr.a1, fr.b1);
                if (hi >= 0)
                    hi ^= fr.hp;
            }
            if (lo < 0 || hi < 0) {
                PyErr_SetString(PyExc_SystemError,
                                "BDD kernel: XOR child missing at combine");
                return -1;
            }
        }
        int64_t id = k_mk(k, lvl, (uint32_t)lo, (uint32_t)hi);
        if (id < 0 || ct_put2(t, fr.a, fr.b, (uint32_t)id) < 0)
            return -1;
        misses++;
    }
    k->st[ST_XOR][0] += hits;
    k->st[ST_XOR][1] += misses;
    return ct_get2(t, f, g) ^ parity;
}

/* ------------------------------------------------------------------ */
/* ITE: normalised to the direct ops whenever an operand is constant,  */
/* repeated or a complement of another; genuine selects recurse.       */
/* ------------------------------------------------------------------ */

static inline int32_t
level_of_id(const Kernel *k, uint32_t id)
{
    return id < 2 ? TERMINAL_LEVEL : k->nodes[id >> 1].level;
}

static inline void
cofactors(const Kernel *k, uint32_t id, int32_t lvl, uint32_t *c0,
          uint32_t *c1)
{
    const Node *n = &k->nodes[id >> 1];
    if (id < 2 || n->level != lvl) {
        *c0 = *c1 = id;
        return;
    }
    uint32_t c = id & 1;
    *c0 = n->low ^ c;
    *c1 = n->high ^ c;
}

static int64_t
k_ite(Kernel *k, uint32_t f, uint32_t g, uint32_t h)
{
    if (f == 1)
        return g;
    if (f == 0)
        return h;
    if (g == h)
        return g;
    if (f & 1) {
        /* ite(~f, g, h) == ite(f, h, g): keep the select regular. */
        uint32_t t = g;
        f ^= 1;
        g = h;
        h = t;
    }
    if (g == f)
        g = 1;
    else if (g == (f ^ 1))
        g = 0;
    if (h == f)
        h = 0;
    else if (h == (f ^ 1))
        h = 1;
    if (g == h)
        return g;
    if (g == 1) {
        if (h == 0)
            return f;
        return k_or(k, f, h);
    }
    if (g == 0) {
        if (h == 1)
            return f ^ 1;
        return k_and(k, f ^ 1, h, k->st[ST_AND]);
    }
    if (h == 0)
        return k_and(k, f, g, k->st[ST_AND]);
    if (h == 1)
        return k_or(k, f ^ 1, g);
    /* Canonical table form: regular then-branch
     * (ite(f, ~g, ~h) == ~ite(f, g, h)). */
    uint32_t n = g & 1;
    g ^= n;
    h ^= n;
    CTable *t = &k->ct[CT_ITE];
    int64_t r = ct_get3(t, f, g, h);
    if (r >= 0) {
        k->st[ST_ITE][0]++;
        return r ^ n;
    }
    int32_t lvl = level_of_id(k, f), l;
    if ((l = level_of_id(k, g)) < lvl)
        lvl = l;
    if ((l = level_of_id(k, h)) < lvl)
        lvl = l;
    uint32_t f0, f1, g0, g1, h0, h1;
    cofactors(k, f, lvl, &f0, &f1);
    cofactors(k, g, lvl, &g0, &g1);
    cofactors(k, h, lvl, &h0, &h1);
    int64_t low = k_ite(k, f0, g0, h0);
    if (low < 0)
        return -1;
    int64_t high = k_ite(k, f1, g1, h1);
    if (high < 0)
        return -1;
    r = k_mk(k, lvl, (uint32_t)low, (uint32_t)high);
    if (r < 0)
        return -1;
    uint32_t key[3] = {f, g, h};
    if (ct_put(t, key, (uint32_t)r) < 0)
        return -1;
    k->st[ST_ITE][1]++;
    return r ^ n;
}

/* ------------------------------------------------------------------ */
/* Python object                                                       */
/* ------------------------------------------------------------------ */

static void
Kernel_dealloc(Kernel *k)
{
    PyMem_RawFree(k->nodes);
    PyMem_RawFree(k->uslots);
    PyMem_RawFree(k->freel);
    PyMem_RawFree(k->lhead);
    PyMem_RawFree(k->ltail);
    for (int i = 0; i < 3; i++)
        ct_free(&k->ct[i]);
    PyMem_RawFree(k->stack);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

/* All storage is allocated here, so every method can rely on it; the
 * initialiser only sets the node-index limit. */
static PyObject *
Kernel_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
           PyObject *Py_UNUSED(kwds))
{
    Kernel *k = (Kernel *)type->tp_alloc(type, 0);
    if (!k)
        return NULL;
    k->max_index = DEFAULT_MAX_INDEX;
    k->nodes_cap = INITIAL_NODES;
    k->nodes = PyMem_RawMalloc(k->nodes_cap * sizeof(Node));
    k->umask = INITIAL_SLOTS - 1;
    k->ushift = 64 - log2_size(INITIAL_SLOTS);
    k->uslots = PyMem_RawCalloc(INITIAL_SLOTS, sizeof(Slot));
    int ok = k->nodes && k->uslots;
    for (int i = 0; ok && i < 3; i++)
        ok = ct_init(&k->ct[i], i == CT_ITE ? 4 : 3) == 0;
    if (!ok) {
        Py_DECREF(k);
        return PyErr_NoMemory();
    }
    /* Index 0 is the one terminal; FALSE is id 0 and TRUE id 1. */
    k->nodes[0].level = TERMINAL_LEVEL;
    k->nodes[0].low = 0;
    k->nodes[0].high = 0;
    k->nodes[0].next = 0;
    k->nnodes = 1;
    return (PyObject *)k;
}

static int
Kernel_init(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"max_index", NULL};
    Py_ssize_t max_index = DEFAULT_MAX_INDEX;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|n", kwlist, &max_index))
        return -1;
    if (max_index < 1 || (size_t)max_index > DEFAULT_MAX_INDEX) {
        PyErr_Format(PyExc_ValueError, "max_index must be in [1, %u]",
                     DEFAULT_MAX_INDEX);
        return -1;
    }
    k->max_index = (size_t)max_index;
    return 0;
}

static inline int
arg_id(Kernel *k, PyObject *o, uint32_t *out)
{
    unsigned long v = PyLong_AsUnsignedLong(o);
    if (v == (unsigned long)-1 && PyErr_Occurred())
        return -1;
    if ((v >> 1) >= k->nnodes || k->nodes[v >> 1].level == FREED_LEVEL) {
        PyErr_Format(bdd_error, "%lu is not a live node id", v);
        return -1;
    }
    *out = (uint32_t)v;
    return 0;
}

static inline int
arg_index(Kernel *k, PyObject *o, size_t *out)
{
    Py_ssize_t v = PyLong_AsSsize_t(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || (size_t)v >= k->nnodes) {
        PyErr_Format(PyExc_IndexError, "node index %zd out of range", v);
        return -1;
    }
    *out = (size_t)v;
    return 0;
}

static inline PyObject *
id_result(int64_t r)
{
    return r < 0 ? NULL : PyLong_FromLong((long)r);
}

#define CHECK_NARGS(n)                                                    \
    if (nargs != (n)) {                                                   \
        PyErr_Format(PyExc_TypeError, "expected %d arguments, got %zd",   \
                     (n), nargs);                                         \
        return NULL;                                                      \
    }

static PyObject *
Kernel_and(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t f, g;
    CHECK_NARGS(2);
    if (arg_id(k, args[0], &f) < 0 || arg_id(k, args[1], &g) < 0)
        return NULL;
    return id_result(k_and(k, f, g, k->st[ST_AND]));
}

static PyObject *
Kernel_or(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t f, g;
    CHECK_NARGS(2);
    if (arg_id(k, args[0], &f) < 0 || arg_id(k, args[1], &g) < 0)
        return NULL;
    return id_result(k_or(k, f, g));
}

static PyObject *
Kernel_xor(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t f, g;
    CHECK_NARGS(2);
    if (arg_id(k, args[0], &f) < 0 || arg_id(k, args[1], &g) < 0)
        return NULL;
    return id_result(k_xor(k, f, g));
}

static PyObject *
Kernel_ite(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t f, g, h;
    CHECK_NARGS(3);
    if (arg_id(k, args[0], &f) < 0 || arg_id(k, args[1], &g) < 0
        || arg_id(k, args[2], &h) < 0)
        return NULL;
    return id_result(k_ite(k, f, g, h));
}

static PyObject *
Kernel_mk(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t lo, hi;
    CHECK_NARGS(3);
    Py_ssize_t lvl = PyLong_AsSsize_t(args[0]);
    if (lvl == -1 && PyErr_Occurred())
        return NULL;
    if (lvl < 0 || (size_t)lvl >= k->nlevels) {
        PyErr_Format(bdd_error, "no variable at level %zd", lvl);
        return NULL;
    }
    if (arg_id(k, args[1], &lo) < 0 || arg_id(k, args[2], &hi) < 0)
        return NULL;
    return id_result(k_mk(k, (int32_t)lvl, lo, hi));
}

static PyObject *
Kernel_add_level(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    if (k->nlevels == k->levels_cap) {
        size_t cap = k->levels_cap ? k->levels_cap * 2 : 64;
        uint32_t *head = PyMem_RawRealloc(k->lhead, cap * sizeof(uint32_t));
        if (!head)
            return PyErr_NoMemory();
        k->lhead = head;
        uint32_t *tail = PyMem_RawRealloc(k->ltail, cap * sizeof(uint32_t));
        if (!tail)
            return PyErr_NoMemory();
        k->ltail = tail;
        k->levels_cap = cap;
    }
    k->lhead[k->nlevels] = 0;
    k->ltail[k->nlevels] = 0;
    return PyLong_FromSize_t(k->nlevels++);
}

static PyObject *
Kernel_level(Kernel *k, PyObject *arg)
{
    size_t idx;
    if (arg_index(k, arg, &idx) < 0)
        return NULL;
    return PyLong_FromLong(k->nodes[idx].level);
}

static PyObject *
Kernel_node(Kernel *k, PyObject *arg)
{
    size_t idx;
    if (arg_index(k, arg, &idx) < 0)
        return NULL;
    const Node *n = &k->nodes[idx];
    return Py_BuildValue("(lkk)", (long)n->level, (unsigned long)n->low,
                         (unsigned long)n->high);
}

static PyObject *
Kernel_num_nodes(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSize_t(k->nnodes - k->nfree);
}

static PyObject *
Kernel_capacity(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSize_t(k->nnodes);
}

static PyObject *
Kernel_stats(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("(KKKKKKKKKK)", k->st[ST_AND][0], k->st[ST_AND][1],
                         k->st[ST_AND][2], k->st[ST_OR][0], k->st[ST_OR][1],
                         k->st[ST_OR][2], k->st[ST_XOR][0],
                         k->st[ST_XOR][1], k->st[ST_ITE][0],
                         k->st[ST_ITE][1]);
}

static PyObject *
Kernel_computed_sizes(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("(nnn)", (Py_ssize_t)k->ct[CT_AND].n,
                         (Py_ssize_t)k->ct[CT_XOR].n,
                         (Py_ssize_t)k->ct[CT_ITE].n);
}

static PyObject *
Kernel_clear_caches(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    for (int i = 0; i < 3; i++)
        if (ct_reset(&k->ct[i]) < 0)
            return NULL;
    k->st[ST_AND][2] = 0;
    k->st[ST_OR][2] = 0;
    Py_RETURN_NONE;
}

/* Mark from the given root ids, sweep every unmarked node onto the free
 * list (level by level, in insertion order), and drop the computed
 * entries that touch a swept node.  Returns the number freed.  All
 * memory is acquired before the first mutation, so a MemoryError leaves
 * the kernel untouched. */
static PyObject *
Kernel_collect(Kernel *k, PyObject *roots)
{
    PyObject *seq = PySequence_Fast(roots, "collect() needs a sequence");
    if (!seq)
        return NULL;
    size_t nroots = (size_t)PySequence_Fast_GET_SIZE(seq);
    if (k->free_cap < k->nnodes) {
        /* Every index but the terminal may end up on the free list. */
        uint32_t *fl = PyMem_RawRealloc(k->freel,
                                        k->nnodes * sizeof(uint32_t));
        if (!fl) {
            Py_DECREF(seq);
            return PyErr_NoMemory();
        }
        k->freel = fl;
        k->free_cap = k->nnodes;
    }
    /* Each node is marked once and pushes two children. */
    size_t stack_cap = nroots + 2 * k->nnodes + 1;
    uint8_t *marked = PyMem_RawCalloc(k->nnodes, 1);
    uint32_t *stack = PyMem_RawMalloc(stack_cap * sizeof(uint32_t));
    if (!marked || !stack) {
        PyMem_RawFree(marked);
        PyMem_RawFree(stack);
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    size_t sp = 0;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (size_t i = 0; i < nroots; i++) {
        unsigned long v = PyLong_AsUnsignedLong(items[i]);
        if (v == (unsigned long)-1 && PyErr_Occurred()) {
            PyMem_RawFree(marked);
            PyMem_RawFree(stack);
            Py_DECREF(seq);
            return NULL;
        }
        if ((v >> 1) >= k->nnodes) {
            PyMem_RawFree(marked);
            PyMem_RawFree(stack);
            Py_DECREF(seq);
            PyErr_Format(bdd_error, "root %lu is not a node id", v);
            return NULL;
        }
        stack[sp++] = (uint32_t)v;
    }
    Py_DECREF(seq);
    Node *N = k->nodes;
    marked[0] = 1;
    while (sp) {
        uint32_t idx = stack[--sp] >> 1;
        if (marked[idx])
            continue;
        marked[idx] = 1;
        stack[sp++] = N[idx].low;
        stack[sp++] = N[idx].high;
    }
    PyMem_RawFree(stack);
    size_t freed = 0;
    for (size_t lvl = 0; lvl < k->nlevels; lvl++) {
        uint32_t idx = k->lhead[lvl], prev = 0;
        k->lhead[lvl] = 0;
        while (idx) {
            uint32_t next = N[idx].next;
            if (marked[idx]) {
                if (prev)
                    N[prev].next = idx;
                else
                    k->lhead[lvl] = idx;
                prev = idx;
            }
            else {
                N[idx].level = FREED_LEVEL;
                N[idx].next = 0;
                k->freel[k->nfree++] = idx;
                freed++;
            }
            idx = next;
        }
        if (prev)
            N[prev].next = 0;
        k->ltail[lvl] = prev;
    }
    k->ucount -= freed;
    memset(k->uslots, 0, (k->umask + 1) * sizeof(Slot));
    unique_reindex(k);
    for (int i = 0; i < 3; i++) {
        CTable *t = &k->ct[i];
        int w = t->width;
        size_t kept = 0;
        for (size_t pos = 0; pos < t->n; pos++) {
            uint32_t *e = t->e + pos * w;
            int live = 1;
            for (int j = 0; j < w; j++)
                live &= marked[e[j] >> 1];
            if (live) {
                if (kept != pos)
                    memmove(t->e + kept * w, e, w * sizeof(uint32_t));
                kept++;
            }
        }
        t->n = kept;
        memset(t->slots, 0, (t->mask + 1) * sizeof(Slot));
        ct_reindex(t);
    }
    PyMem_RawFree(marked);
    /* Surviving shared-table entries are attributed to AND. */
    k->st[ST_AND][2] = k->ct[CT_AND].n;
    k->st[ST_OR][2] = 0;
    return PyLong_FromSize_t(freed);
}

/* ------------------------------------------------------------------ */
/* The computed-table tape                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Kernel *k;
    int table;
    size_t pos;
    size_t start[3];
} TapeIter;

static PyTypeObject TapeIter_Type;

static void
TapeIter_dealloc(TapeIter *it)
{
    Py_XDECREF(it->k);
    PyObject_Free(it);
}

static PyObject *
TapeIter_next(TapeIter *it)
{
    while (it->table < 3) {
        CTable *t = &it->k->ct[it->table];
        if (it->pos < t->n) {
            const uint32_t *e = t->e + it->pos * t->width;
            it->pos++;
            PyObject *operands =
                t->width == 3
                    ? Py_BuildValue("(kk)", (unsigned long)e[0],
                                    (unsigned long)e[1])
                    : Py_BuildValue("(kkk)", (unsigned long)e[0],
                                    (unsigned long)e[1], (unsigned long)e[2]);
            if (!operands)
                return NULL;
            return Py_BuildValue("(ONk)", op_names[it->table], operands,
                                 (unsigned long)e[t->width - 1]);
        }
        it->table++;
        if (it->table < 3)
            it->pos = it->start[it->table];
    }
    return NULL;
}

static PyTypeObject TapeIter_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._native.TapeIter",
    .tp_basicsize = sizeof(TapeIter),
    .tp_dealloc = (destructor)TapeIter_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)TapeIter_next,
};

static PyObject *
Kernel_computed_entries(Kernel *k, PyObject *start)
{
    size_t offsets[3] = {0, 0, 0};
    if (start != Py_None) {
        if (!PyArg_ParseTuple(start, "nnn", &offsets[0], &offsets[1],
                              &offsets[2]))
            return NULL;
    }
    TapeIter *it = PyObject_New(TapeIter, &TapeIter_Type);
    if (!it)
        return NULL;
    Py_INCREF(k);
    it->k = k;
    it->table = 0;
    memcpy(it->start, offsets, sizeof(offsets));
    it->pos = offsets[0];
    return (PyObject *)it;
}

static PyMethodDef Kernel_methods[] = {
    {"and_", (PyCFunction)(void (*)(void))Kernel_and, METH_FASTCALL,
     "and_(f, g): id of f & g"},
    {"or_", (PyCFunction)(void (*)(void))Kernel_or, METH_FASTCALL,
     "or_(f, g): id of f | g"},
    {"xor", (PyCFunction)(void (*)(void))Kernel_xor, METH_FASTCALL,
     "xor(f, g): id of f ^ g"},
    {"ite", (PyCFunction)(void (*)(void))Kernel_ite, METH_FASTCALL,
     "ite(f, g, h): id of f & g | ~f & h"},
    {"mk", (PyCFunction)(void (*)(void))Kernel_mk, METH_FASTCALL,
     "mk(level, low, high): the interned node id"},
    {"add_level", (PyCFunction)Kernel_add_level, METH_NOARGS,
     "add a variable level below the existing ones; returns it"},
    {"level", (PyCFunction)Kernel_level, METH_O,
     "level(index): the node's level (-1 when freed)"},
    {"node", (PyCFunction)Kernel_node, METH_O,
     "node(index): (level, low, high) as stored"},
    {"num_nodes", (PyCFunction)Kernel_num_nodes, METH_NOARGS,
     "live nodes, terminal included"},
    {"capacity", (PyCFunction)Kernel_capacity, METH_NOARGS,
     "allocated node indices, terminal included"},
    {"stats", (PyCFunction)Kernel_stats, METH_NOARGS,
     "(and hits, misses, entries, or hits, misses, entries, xor hits, "
     "misses, ite hits, misses)"},
    {"computed_sizes", (PyCFunction)Kernel_computed_sizes, METH_NOARGS,
     "(and, xor, ite) computed-table sizes"},
    {"computed_entries", (PyCFunction)Kernel_computed_entries, METH_O,
     "computed_entries(start): iterator over (op, operands, result)"},
    {"clear_caches", (PyCFunction)Kernel_clear_caches, METH_NOARGS,
     "drop every computed-table entry"},
    {"collect", (PyCFunction)Kernel_collect, METH_O,
     "collect(root_ids): mark, sweep, filter; returns nodes freed"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Kernel_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._native.Kernel",
    .tp_doc = "Native node storage, tables and apply loops of a BDDManager.",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Kernel_new,
    .tp_init = (initproc)Kernel_init,
    .tp_methods = Kernel_methods,
};

static PyObject *
set_error(PyObject *Py_UNUSED(module), PyObject *cls)
{
    if (!PyExceptionClass_Check(cls)) {
        PyErr_SetString(PyExc_TypeError, "set_error needs an exception class");
        return NULL;
    }
    Py_INCREF(cls);
    Py_XSETREF(bdd_error, cls);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"set_error", set_error, METH_O,
     "install the exception class raised on structural misuse"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Native ROBDD kernel (see repro/bdd/kernel.py for its oracle).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    if (PyType_Ready(&Kernel_Type) < 0 || PyType_Ready(&TapeIter_Type) < 0)
        return NULL;
    static const char *names[3] = {"and", "xor", "ite"};
    for (int i = 0; i < 3; i++) {
        if (!op_names[i] && !(op_names[i] = PyUnicode_InternFromString(names[i])))
            return NULL;
    }
    if (!bdd_error) {
        bdd_error = PyExc_RuntimeError;
        Py_INCREF(bdd_error);
    }
    PyObject *m = PyModule_Create(&native_module);
    if (!m)
        return NULL;
    Py_INCREF(&Kernel_Type);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&Kernel_Type) < 0) {
        Py_DECREF(&Kernel_Type);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
