/* Compiled tick kernel: the per-instruction scheduling shell of
 * OutOfOrderCore.run, with everything a run that fits it touches native:
 * the branch unit, the whole stock memory hierarchy (every demand access,
 * miss, write-back, MSHR / write-buffer / DRAM-queue operation, BOP
 * training step and wrong-path polluting load) and the declared hook
 * models (a DLA hint unit with its prefetch-hint installs, T1's table,
 * B-Fetch's walker, CRE's table, the commit and load-miss logs), all on
 * the model objects' own arrays.  The loop calls no Python: a run that
 * does not fit (core/compile/plan.py) goes to the reference interpreter
 * instead.  Mirrors core/pipeline.py and memory/ (and the hint unit, T1,
 * B-Fetch and CRE mirror dla/hints.py, dla/t1.py and baselines/)
 * statement-for-statement; bit-identity, int/float types included, is
 * enforced by the golden, A/B and differential suites.  Also hosts
 * warm-up replay (replay_warmup) over the same memory path, the hint
 * verdict draws (draw_verdicts), the functional emulator and the passes
 * over its trace columns: decode (gather_decoded), the look-ahead
 * selection (select_rows) and training-run profiling (profile_columns). */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <math.h>

/* decoded static flags (must match core/compile/decoded.py) */
#define F_BRANCH  1
#define F_MEM     2
#define F_LOAD    4
#define F_STORE   8
#define F_CONTROL 16
#define F_FP      32
#define F_WRITES  64
#define F_SKIPPABLE 128
#define F_TAKEN   256
#define F_CALL    512
#define F_RET     1024

/* trace flag bits (must match emulator/trace.py) */
#define T_HAS_RESULT 1
#define T_HAS_EA     2
#define T_CONTROL    4
#define T_TAKEN      8

/* counter slots (must match core/compile/driver.py) */
enum {
    C_L1I_ACC, C_L1I_MISS, C_L1D_ACC, C_L1D_MISS, C_L2_MISS, C_DRAM,
    C_DECODED, C_EXECUTED, C_COMMITTED, C_FETCH_BOUND,
    C_VALID_SKIP, C_VP_USED, C_VP_MISS, C_SB_SKIP, C_SB_VALID,
    C_BRANCHES, C_BR_MISPRED, C_HINT_MISPRED, C_BTB_MISS,
    C_TICKS, C_NATIVE_HITS, C_LOG_BRANCHES, C_LOG_PCS, C_NATIVE_MISSES,
    C_T1_COMMITS, C_BFETCH_FETCHES, C_CRE_STEPS, C_COUNT
};

/* ------------------------------------------------------------------ */
/* Native branch unit: TAGE-lite predictor, BTB and RAS operating on  */
/* the Python objects' own flat arrays (zero-copy, state persists     */
/* across runs exactly as in the interpreter).  Each function mirrors */
/* its Python counterpart statement-for-statement.                    */

static inline uint64_t
fold_u(uint64_t value, int bits)
{
    uint64_t mask = (1ULL << bits) - 1;
    uint64_t folded = 0;
    while (value) {
        folded ^= value & mask;
        value >>= bits;
    }
    return folded;
}

#define TAGE_ARRAYS 7
typedef struct {
    int64_t *base;                 /* bimodal base counters */
    int64_t base_n, base_thresh, base_max;
    int8_t *present;               /* tagged tables, [table][index] flat */
    int64_t *tags, *ctr, *useful;
    uint64_t *hist;                /* single-element history register */
    uint64_t *masks;               /* per-table history masks */
    int64_t nt, te, tag_mask;
    Py_buffer views[TAGE_ARRAYS];
} tage_t;

/* Mirrors TageLitePredictor.predict_update. */
static int
tage_predict_update(tage_t *tg, int64_t pc_, int taken)
{
    uint64_t history = tg->hist[0];
    uint64_t pc_hash = (uint64_t)pc_ ^ ((uint64_t)pc_ >> 5);
    int64_t provider = -1, slot = -1;
    for (int64_t t = tg->nt - 1; t >= 0; t--) {
        uint64_t h = history & tg->masks[t];
        int64_t index = (int64_t)(((uint64_t)pc_ ^ fold_u(h, 10)
                                   ^ (uint64_t)(t * 0x9E37)) % (uint64_t)tg->te);
        int64_t k = t * tg->te + index;
        if (tg->present[k]) {
            int64_t tag = (int64_t)((pc_hash ^ fold_u(h, 7)
                                     ^ (uint64_t)(t * 0x1F3)) & (uint64_t)tg->tag_mask);
            if (tg->tags[k] == tag) {
                provider = t;
                slot = k;
                break;
            }
        }
    }
    int predicted;
    if (provider >= 0) {
        predicted = tg->ctr[slot] >= 0;
        int64_t c = tg->ctr[slot] + (taken ? 1 : -1);
        if (c > 3) c = 3;
        if (c < -4) c = -4;
        tg->ctr[slot] = c;
        if (predicted == taken) {
            if (tg->useful[slot] < 3) tg->useful[slot]++;
        } else {
            if (tg->useful[slot] > 0) tg->useful[slot]--;
        }
    } else {
        predicted = tg->base[pc_ % tg->base_n] >= tg->base_thresh;
    }
    {   /* base.update */
        int64_t idx = pc_ % tg->base_n;
        int64_t c = tg->base[idx];
        if (taken) { if (c < tg->base_max) c++; }
        else { if (c > 0) c--; }
        tg->base[idx] = c;
    }
    if (predicted != taken) {
        int64_t start = provider >= 0 ? provider + 1 : 0;
        for (int64_t t = start; t < tg->nt; t++) {
            uint64_t h = history & tg->masks[t];
            int64_t index = (int64_t)(((uint64_t)pc_ ^ fold_u(h, 10)
                                       ^ (uint64_t)(t * 0x9E37)) % (uint64_t)tg->te);
            int64_t k = t * tg->te + index;
            if (!tg->present[k] || tg->useful[k] == 0) {
                tg->present[k] = 1;
                tg->tags[k] = (int64_t)((pc_hash ^ fold_u(h, 7)
                                         ^ (uint64_t)(t * 0x1F3)) & (uint64_t)tg->tag_mask);
                tg->ctr[k] = taken ? 0 : -1;
                tg->useful[k] = 0;
                break;
            }
        }
    }
    tg->hist[0] = (history << 1) | (uint64_t)(taken != 0);
    return predicted;
}

typedef struct {
    int64_t *tag, *target, *use, *count;
    int64_t sets, assoc;
} btb_t;

static inline int
btb_contains(btb_t *b, int64_t pc_)
{
    int64_t s = pc_ % b->sets, tag = pc_ / b->sets;
    int64_t base = s * b->assoc, c = b->count[s];
    for (int64_t k = 0; k < c; k++)
        if (b->tag[base + k] == tag)
            return 1;
    return 0;
}

/* Mirrors BranchTargetBuffer.update: insertion-order sets, update of an
 * existing way keeps its position, victim = first way with minimal use. */
static void
btb_update(btb_t *b, int64_t pc_, int64_t target, int64_t now)
{
    int64_t s = pc_ % b->sets, tag = pc_ / b->sets;
    int64_t base = s * b->assoc, c = b->count[s];
    for (int64_t k = 0; k < c; k++) {
        if (b->tag[base + k] == tag) {
            b->target[base + k] = target;
            b->use[base + k] = now;
            return;
        }
    }
    if (c >= b->assoc) {
        int64_t victim = 0;
        for (int64_t k = 1; k < c; k++)
            if (b->use[base + k] < b->use[base + victim])
                victim = k;
        for (int64_t k = victim; k < c - 1; k++) {
            b->tag[base + k] = b->tag[base + k + 1];
            b->target[base + k] = b->target[base + k + 1];
            b->use[base + k] = b->use[base + k + 1];
        }
        c--;
    }
    b->tag[base + c] = tag;
    b->target[base + c] = target;
    b->use[base + c] = now;
    b->count[s] = c + 1;
}

typedef struct {
    int64_t *stack;
    int64_t *st;    /* [len, pushes, pops, overflows, underflows] */
    int64_t depth;
} ras_t;

static inline void
ras_push(ras_t *r, int64_t addr)
{
    r->st[1]++;
    int64_t len = r->st[0];
    if (len >= r->depth) {
        r->st[3]++;
        memmove(r->stack, r->stack + 1, (size_t)(len - 1) * sizeof(int64_t));
        len--;
    }
    r->stack[len++] = addr;
    r->st[0] = len;
}

static inline int
ras_pop(ras_t *r, int64_t *out)
{
    r->st[2]++;
    int64_t len = r->st[0];
    if (len == 0) {
        r->st[4]++;
        return 0;
    }
    *out = r->stack[len - 1];
    r->st[0] = len - 1;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Native memory hierarchy: CoreMemorySystem's demand, prefetch and     */
/* TLB paths, the shared L3 and DRAM, the MSHR files, write buffers and */
/* DRAM queues, and BOP training, over the model objects' own arrays    */
/* (layouts in memory/cache.py, tlb.py, resources.py, dram.py and       */
/* prefetch/best_offset.py), mutated in place so Python callers see the */
/* same state.  Each function transcribes its Python counterpart        */
/* statement for statement.  Integer stats counters are counted into    */
/* per-run arrays the driver credits afterwards; float and high-water   */
/* stats are read and written in the stats objects' own __dict__.       */

#define LINE_DIRTY 1
#define LINE_FROM_PREFETCH 2
#define LINE_PREFETCH_USED 4
#define PF_STATE (LINE_FROM_PREFETCH | LINE_PREFETCH_USED)

/* A time or stall as the model holds it: its value and whether it is a
 * Python float (1) or int (0).  Int op int stays an int and anything with
 * a float is a float, as in Python; ints stay exact below 2**53. */
typedef struct { double v; int f; } num_t;

static const num_t NUM_ZERO_F = {0.0, 1};

static inline num_t
num_i(double v)
{
    num_t r = {v, 0};
    return r;
}

static inline num_t
num_add(num_t a, num_t b)
{
    num_t r = {a.v + b.v, a.f | b.f};
    return r;
}

static inline num_t
num_sub(num_t a, num_t b)
{
    num_t r = {a.v - b.v, a.f | b.f};
    return r;
}

/* Python's // and % for a positive divisor. */
static inline int64_t
pdiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

static inline int64_t
pmod(int64_t a, int64_t b)
{
    int64_t r = a % b;
    return r < 0 ? r + b : r;
}

/* cache stats counters (must match driver._CACHE_COUNTS) */
enum {
    CS_ACC, CS_HITS, CS_MISSES, CS_PF_HITS, CS_LATE_PF_HITS, CS_PF_ISSUED,
    CS_PF_USELESS, CS_WRITEBACKS, CS_EVICTIONS, CS_MSHR_STALLS,
    CS_MSHR_ALLOC, CS_MSHR_COALESCED, CS_PF_DROPPED, CS_BANK_CONFLICTS,
    CS_WB_ENQ, CS_WB_STALLS, CS_COUNT
};
/* TLB stats counters (must match driver._TLB_COUNTS) */
enum { TS_ACC, TS_HITS, TS_MISSES, TS_PREFILLS, TS_COUNT };
/* DRAM stats counters (must match driver._DRAM_COUNTS) */
enum {
    DS_READS, DS_WRITES, DS_WB_WRITES, DS_PF_READS, DS_ROW_HITS,
    DS_ROW_MISSES, DS_QUEUE_STALLS, DS_COUNT
};
/* DRAM traffic sources (DramModel.access's ``source``) */
enum { SRC_DEMAND, SRC_WRITEBACK, SRC_PREFETCH };

/* Interned names of the fields kept in the objects' __dict__. */
static PyObject *K_MSHR_STALL_CYCLES, *K_BANK_CONFLICT_CYCLES;
static PyObject *K_WB_STALL_CYCLES, *K_MSHR_PEAK, *K_WB_PEAK;
static PyObject *K_BUSY_DELAY, *K_QUEUE_STALL_CYCLES, *K_QUEUE_PEAK;
static PyObject *K_DYN_ENERGY, *K_LAST_ACCESS, *ZERO;

static int
intern_keys(void)
{
    PyObject **slots[] = {
        &K_MSHR_STALL_CYCLES, &K_BANK_CONFLICT_CYCLES, &K_WB_STALL_CYCLES,
        &K_MSHR_PEAK, &K_WB_PEAK, &K_BUSY_DELAY, &K_QUEUE_STALL_CYCLES,
        &K_QUEUE_PEAK, &K_DYN_ENERGY, &K_LAST_ACCESS,
    };
    const char *names[] = {
        "mshr_stall_cycles", "mshr_bank_conflict_cycles", "wb_stall_cycles",
        "mshr_peak_occupancy", "wb_peak_occupancy", "busy_delay_cycles",
        "queue_stall_cycles", "queue_peak_occupancy", "_dynamic_energy",
        "_last_access_cycle",
    };
    for (size_t k = 0; k < sizeof(names) / sizeof(names[0]); k++) {
        *slots[k] = PyUnicode_InternFromString(names[k]);
        if (*slots[k] == NULL)
            return -1;
    }
    ZERO = PyLong_FromLong(0);
    return ZERO == NULL ? -1 : 0;
}

/* Error state of one run's memory model: a failed Python API call sets
 * ``err`` and every later helper returns at once; callers check it after
 * each top-level operation. */
typedef struct { int err; } merr_t;

static num_t
num_of(merr_t *e, PyObject *o)
{
    num_t r = {0.0, 0};
    if (PyFloat_CheckExact(o)) {
        r.v = PyFloat_AS_DOUBLE(o);
        r.f = 1;
    } else if (PyLong_Check(o)) {
        long long x = PyLong_AsLongLong(o);
        if (x == -1 && PyErr_Occurred())
            e->err = 1;
        r.v = (double)x;
    } else if (PyFloat_Check(o)) {
        r.v = PyFloat_AsDouble(o);
        r.f = 1;
    } else {
        PyErr_SetString(PyExc_TypeError, "memory model time is not a number");
        e->err = 1;
    }
    return r;
}

/* The last object num_obj built per type: a time is usually stored in
 * several places in a row (a line's fill and last use, one cycle's
 * accesses), and sharing one object, as Python assignments do, keeps the
 * lists as small as the model's. */
static PyObject *recent_obj[2];
static double recent_val[2];

static PyObject *
num_obj(num_t x)
{
    int f = x.f != 0;
    if (recent_obj[f] != NULL && memcmp(&recent_val[f], &x.v, sizeof(double)) == 0)
        return Py_NewRef(recent_obj[f]);
    PyObject *obj = f ? PyFloat_FromDouble(x.v)
                      : PyLong_FromLongLong((long long)x.v);
    if (obj != NULL) {
        Py_XSETREF(recent_obj[f], Py_NewRef(obj));
        recent_val[f] = x.v;
    }
    return obj;
}

static inline num_t
num_get(merr_t *e, PyObject *list, Py_ssize_t k)
{
    return num_of(e, PyList_GET_ITEM(list, k));
}

static void
num_put(merr_t *e, PyObject *list, Py_ssize_t k, num_t x)
{
    if (e->err)
        return;
    PyObject *obj = num_obj(x);
    if (obj == NULL) {
        e->err = 1;
        return;
    }
    PyObject *old = PyList_GET_ITEM(list, k);
    PyList_SET_ITEM(list, k, obj);
    Py_DECREF(old);
}

static num_t
dict_num(merr_t *e, PyObject *dict, PyObject *key)
{
    num_t zero = {0.0, 0};
    if (e->err)
        return zero;
    PyObject *o = PyDict_GetItemWithError(dict, key);
    if (o == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, key);
        e->err = 1;
        return zero;
    }
    return num_of(e, o);
}

static void
dict_put(merr_t *e, PyObject *dict, PyObject *key, num_t x)
{
    if (e->err)
        return;
    PyObject *obj = num_obj(x);
    if (obj == NULL || PyDict_SetItem(dict, key, obj) < 0)
        e->err = 1;
    Py_XDECREF(obj);
}

/* ``dict[key] += x`` */
static inline void
dict_add(merr_t *e, PyObject *dict, PyObject *key, num_t x)
{
    dict_put(e, dict, key, num_add(dict_num(e, dict, key), x));
}

static int
buffer_of(PyObject *obj, Py_buffer *view, void **ptr)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE) < 0)
        return -1;
    *ptr = view->buf;
    return 0;
}

static int
view_error(const char *what)
{
    PyErr_Format(PyExc_ValueError, "%s view does not match its geometry", what);
    return -1;
}

/* ---- occupancy resources (OccupancyResource and its clients) ---- */
/* Lane ``l`` owns slots l * (cap + 1) onwards; its live entries are the
 * first len[l], in admission order. */
typedef struct {
    int on;
    int64_t *keys, *len;
    PyObject *done;         /* list: completion per slot (int or float) */
    int64_t cap, lanes;
    Py_buffer v_keys, v_len;
} nres_t;

/* spec: None or (keys, completions, lengths, capacity, lanes). */
static int
nres_open(PyObject *spec, nres_t *r)
{
    memset(r, 0, sizeof(*r));
    if (spec == Py_None)
        return 0;
    PyObject *keys, *len;
    long long cap, lanes;
    if (!PyArg_ParseTuple(spec, "OO!OLL", &keys, &PyList_Type, &r->done, &len,
                          &cap, &lanes))
        return -1;
    r->cap = cap;
    r->lanes = lanes;
    if (buffer_of(keys, &r->v_keys, (void **)&r->keys) < 0 ||
        buffer_of(len, &r->v_len, (void **)&r->len) < 0)
        return -1;
    Py_INCREF(r->done);
    r->on = 1;
    if (cap < 1 || lanes < 1 ||
        r->v_keys.len < (Py_ssize_t)(lanes * (cap + 1) * 8) ||
        PyList_GET_SIZE(r->done) < lanes * (cap + 1) ||
        r->v_len.len < (Py_ssize_t)(lanes * 8))
        return view_error("occupancy resource");
    return 0;
}

static void
nres_close(nres_t *r)
{
    if (r->v_keys.obj) PyBuffer_Release(&r->v_keys);
    if (r->v_len.obj) PyBuffer_Release(&r->v_len);
    if (r->on)
        Py_DECREF(r->done);
    r->on = 0;
}

static inline int64_t
res_base(const nres_t *r, int64_t lane)
{
    return lane * (r->cap + 1);
}

static int64_t
res_find(const nres_t *r, int64_t lane, int64_t key)
{
    int64_t base = res_base(r, lane), end = base + r->len[lane];
    for (int64_t k = base; k < end; k++)
        if (r->keys[k] == key)
            return k;
    return -1;
}

/* OccupancyResource._delete */
static void
res_delete(nres_t *r, int64_t lane, int64_t slot)
{
    int64_t end = res_base(r, lane) + r->len[lane] - 1;
    PyObject **items = ((PyListObject *)r->done)->ob_item;
    PyObject *gone = items[slot];
    memmove(r->keys + slot, r->keys + slot + 1,
            (size_t)(end - slot) * sizeof(int64_t));
    memmove(items + slot, items + slot + 1,
            (size_t)(end - slot) * sizeof(PyObject *));
    items[end] = Py_NewRef(ZERO);
    Py_DECREF(gone);
    r->len[lane]--;
}

/* OccupancyResource._earliest: first entry with the minimal completion. */
static int64_t
res_earliest(merr_t *e, nres_t *r, int64_t lane)
{
    int64_t base = res_base(r, lane), end = base + r->len[lane], best = base;
    double best_v = num_get(e, r->done, base).v;
    for (int64_t k = base + 1; k < end; k++) {
        double v = num_get(e, r->done, k).v;
        if (v < best_v) {
            best_v = v;
            best = k;
        }
    }
    return best;
}

/* OccupancyResource._append */
static void
res_append(merr_t *e, nres_t *r, int64_t lane, int64_t key, num_t completion)
{
    int64_t n = r->len[lane], slot = res_base(r, lane) + n;
    r->keys[slot] = key;
    num_put(e, r->done, slot, completion);
    r->len[lane] = n + 1;
    if (n + 1 > r->cap)
        res_delete(r, lane, res_earliest(e, r, lane));
}

/* OccupancyResource._retire: drop every entry completed by ``now``. */
static void
res_retire(merr_t *e, nres_t *r, int64_t lane, num_t now)
{
    int64_t n = r->len[lane];
    if (n == 0 || e->err)
        return;
    int64_t base = res_base(r, lane), w = base;
    PyObject **items = ((PyListObject *)r->done)->ob_item;
    for (int64_t k = base; k < base + n; k++) {
        if (num_get(e, r->done, k).v > now.v) {
            if (w != k) {
                r->keys[w] = r->keys[k];
                items[w] = items[k];
                items[k] = NULL;
            }
            w++;
        } else {
            PyObject *gone = items[k];
            items[k] = NULL;
            Py_DECREF(gone);
        }
    }
    for (int64_t k = w; k < base + n; k++)
        items[k] = Py_NewRef(ZERO);
    r->len[lane] = w - base;
}

static int
res_available(merr_t *e, nres_t *r, int64_t lane, num_t now)
{
    if (r->len[lane] < r->cap)
        return 1;
    res_retire(e, r, lane, now);
    return r->len[lane] < r->cap;
}

/* OccupancyResource._full_delay */
static num_t
res_full_delay(merr_t *e, nres_t *r, int64_t lane, num_t now)
{
    if (r->len[lane] < r->cap)
        return NUM_ZERO_F;
    res_retire(e, r, lane, now);
    if (r->len[lane] < r->cap || e->err)
        return NUM_ZERO_F;
    int64_t slot = res_earliest(e, r, lane);
    num_t earliest = num_get(e, r->done, slot);
    res_delete(r, lane, slot);
    return num_sub(earliest, now);
}

/* OccupancyResource.acquire_delay */
static num_t
res_acquire_delay(merr_t *e, nres_t *r, int64_t lane, int64_t key, num_t now)
{
    int64_t slot = res_find(r, lane, key);
    if (slot >= 0) {
        if (num_get(e, r->done, slot).v > now.v)
            return NUM_ZERO_F;
        res_delete(r, lane, slot);
    }
    return res_full_delay(e, r, lane, now);
}

/* OccupancyResource.admit: 1 for a fresh admission. */
static int
res_admit(merr_t *e, nres_t *r, int64_t lane, int64_t key, num_t completion)
{
    int64_t slot = res_find(r, lane, key);
    if (slot >= 0) {
        if (completion.v < num_get(e, r->done, slot).v)
            num_put(e, r->done, slot, completion);
        return 0;
    }
    res_append(e, r, lane, key, completion);
    return 1;
}

/* probe_peak over one lane, or every lane (a banked file) for lane -1;
 * ``now`` NULL measures the lazy size.  Updates ``dict[key]``. */
static void
res_probe_peak(merr_t *e, nres_t *r, int64_t lane, const num_t *now,
               PyObject *dict, PyObject *key)
{
    int64_t lo = lane < 0 ? 0 : lane, hi = lane < 0 ? r->lanes : lane + 1;
    int64_t size = 0;
    for (int64_t l = lo; l < hi; l++)
        size += r->len[l];
    num_t recorded = dict_num(e, dict, key);
    if ((double)size <= recorded.v || e->err)
        return;
    int64_t occupancy = size;
    if (now != NULL) {
        occupancy = 0;
        for (int64_t l = lo; l < hi; l++) {
            res_retire(e, r, l, *now);
            occupancy += r->len[l];
        }
    }
    if ((double)occupancy > recorded.v)
        dict_put(e, dict, key, num_i((double)occupancy));
}

/* ---- caches (memory.cache.Cache) ---- */
typedef struct {
    int on;
    int64_t *tag;           /* per slot; -1 = empty */
    int64_t *stamp;         /* per slot insertion stamp */
    int64_t *count;         /* per set: lines = the set's first count slots */
    int64_t *clock;         /* next stamp */
    int64_t *cnt;           /* CS_* counters, credited after the run */
    uint8_t *flags;         /* LINE_* bits */
    PyObject *fill;         /* list: per-slot fill time (int or float) */
    PyObject *last_use;     /* list: per-slot last use (int or float) */
    PyObject *stats;        /* the CacheStats __dict__ */
    int64_t sets, assoc, block;
    num_t latency;
    int lookahead;          /* Cache.lookahead_mode */
    nres_t mshr;            /* lanes = banks */
    nres_t wb;
    Py_buffer v_tag, v_stamp, v_count, v_clock, v_cnt, v_flags;
} ncache_t;

/* spec: (tags, fill, last_use, flags, stamp, count, clock, counters,
 * stats_dict, num_sets, associativity, block_bytes, latency,
 * lookahead_mode, mshr, write_buffer). */
static int
ncache_open(PyObject *spec, ncache_t *c)
{
    memset(c, 0, sizeof(*c));
    PyObject *tag, *flags, *stamp, *count, *clock, *cnt, *latency, *mshr, *wb;
    long long sets, assoc, block;
    if (!PyArg_ParseTuple(spec, "OO!O!OOOOOO!LLLOiOO", &tag, &PyList_Type,
                          &c->fill, &PyList_Type, &c->last_use, &flags, &stamp,
                          &count, &clock, &cnt, &PyDict_Type, &c->stats, &sets,
                          &assoc, &block, &latency, &c->lookahead, &mshr, &wb))
        return -1;
    c->sets = sets;
    c->assoc = assoc;
    c->block = block;
    Py_INCREF(c->fill);
    Py_INCREF(c->last_use);
    Py_INCREF(c->stats);
    c->on = 1;
    merr_t e = {0};
    c->latency = num_of(&e, latency);
    if (e.err ||
        buffer_of(tag, &c->v_tag, (void **)&c->tag) < 0 ||
        buffer_of(flags, &c->v_flags, (void **)&c->flags) < 0 ||
        buffer_of(stamp, &c->v_stamp, (void **)&c->stamp) < 0 ||
        buffer_of(count, &c->v_count, (void **)&c->count) < 0 ||
        buffer_of(clock, &c->v_clock, (void **)&c->clock) < 0 ||
        buffer_of(cnt, &c->v_cnt, (void **)&c->cnt) < 0 ||
        nres_open(mshr, &c->mshr) < 0 || nres_open(wb, &c->wb) < 0)
        return -1;
    Py_ssize_t slots = (Py_ssize_t)(sets * assoc);
    if (sets < 1 || assoc < 1 || block < 1 ||
        c->v_tag.len < slots * 8 || c->v_stamp.len < slots * 8 ||
        c->v_flags.len < slots || c->v_count.len < (Py_ssize_t)(sets * 8) ||
        c->v_clock.len < 8 || c->v_cnt.len < CS_COUNT * 8 ||
        PyList_GET_SIZE(c->fill) < slots || PyList_GET_SIZE(c->last_use) < slots)
        return view_error("cache");
    return 0;
}

static void
ncache_close(ncache_t *c)
{
    Py_buffer *views[] = {&c->v_tag, &c->v_stamp, &c->v_count, &c->v_clock,
                          &c->v_cnt, &c->v_flags};
    for (size_t k = 0; k < sizeof(views) / sizeof(views[0]); k++)
        if (views[k]->obj) PyBuffer_Release(views[k]);
    nres_close(&c->mshr);
    nres_close(&c->wb);
    if (c->on) {
        Py_DECREF(c->fill);
        Py_DECREF(c->last_use);
        Py_DECREF(c->stats);
    }
    c->on = 0;
}

/* ---- TLB (memory.tlb.Tlb) ---- */
typedef struct {
    int on;
    int64_t *vpn, *stamp, *count, *clock, *cnt;
    PyObject *last_use;     /* list: per-slot last use */
    int64_t n, page, hint;
    num_t penalty;
    Py_buffer v_vpn, v_stamp, v_count, v_clock, v_cnt;
} ntlb_t;

/* spec: (vpn, last_use, stamp, count, clock, counters, entries,
 * page_bytes, miss_penalty). */
static int
ntlb_open(PyObject *spec, ntlb_t *t)
{
    memset(t, 0, sizeof(*t));
    PyObject *vpn, *stamp, *count, *clock, *cnt, *penalty;
    long long entries, page;
    if (!PyArg_ParseTuple(spec, "OO!OOOOLLO", &vpn, &PyList_Type, &t->last_use,
                          &stamp, &count, &clock, &cnt, &entries, &page,
                          &penalty))
        return -1;
    t->n = entries;
    t->page = page;
    Py_INCREF(t->last_use);
    t->on = 1;
    merr_t e = {0};
    t->penalty = num_of(&e, penalty);
    if (e.err ||
        buffer_of(vpn, &t->v_vpn, (void **)&t->vpn) < 0 ||
        buffer_of(stamp, &t->v_stamp, (void **)&t->stamp) < 0 ||
        buffer_of(count, &t->v_count, (void **)&t->count) < 0 ||
        buffer_of(clock, &t->v_clock, (void **)&t->clock) < 0 ||
        buffer_of(cnt, &t->v_cnt, (void **)&t->cnt) < 0)
        return -1;
    if (page < 1 || entries < 1 ||
        t->v_vpn.len < (Py_ssize_t)(entries * 8) ||
        t->v_stamp.len < (Py_ssize_t)(entries * 8) ||
        t->v_count.len < 8 || t->v_clock.len < 8 ||
        t->v_cnt.len < TS_COUNT * 8 || PyList_GET_SIZE(t->last_use) < entries)
        return view_error("TLB");
    return 0;
}

static void
ntlb_close(ntlb_t *t)
{
    Py_buffer *views[] = {&t->v_vpn, &t->v_stamp, &t->v_count, &t->v_clock,
                          &t->v_cnt};
    for (size_t k = 0; k < sizeof(views) / sizeof(views[0]); k++)
        if (views[k]->obj) PyBuffer_Release(views[k]);
    if (t->on)
        Py_DECREF(t->last_use);
    t->on = 0;
}

/* ---- DRAM (memory.dram.DramModel) ---- */
typedef struct {
    int on;
    int64_t *open_rows, *cnt;
    PyObject *bank_ready;   /* list: per-bank ready time */
    PyObject *stats;        /* the DramStats __dict__ */
    PyObject *state;        /* the DramModel __dict__ (energy, last access) */
    nres_t queues;          /* lane 2 * group + is_write */
    int64_t row_bytes, nbanks, groups;
    num_t row_hit, row_miss, busy, e_act, e_read, e_write;
    Py_buffer v_rows, v_cnt;
} ndram_t;

/* spec: (open_rows, bank_ready, queues, counters, stats_dict, model_dict,
 * row_bytes, num_banks, queue_groups, row_hit_latency, row_miss_latency,
 * bank_busy_penalty, energy_activate, energy_read, energy_write). */
static int
ndram_open(PyObject *spec, ndram_t *d)
{
    memset(d, 0, sizeof(*d));
    PyObject *rows, *queues, *cnt, *cfg[6];
    long long row_bytes, nbanks, groups;
    if (!PyArg_ParseTuple(spec, "OO!OOO!O!LLLOOOOOO", &rows, &PyList_Type,
                          &d->bank_ready, &queues, &cnt, &PyDict_Type,
                          &d->stats, &PyDict_Type, &d->state, &row_bytes,
                          &nbanks, &groups, &cfg[0], &cfg[1], &cfg[2],
                          &cfg[3], &cfg[4], &cfg[5]))
        return -1;
    d->row_bytes = row_bytes;
    d->nbanks = nbanks;
    d->groups = groups;
    Py_INCREF(d->bank_ready);
    Py_INCREF(d->stats);
    Py_INCREF(d->state);
    d->on = 1;
    merr_t e = {0};
    num_t *values[] = {&d->row_hit, &d->row_miss, &d->busy, &d->e_act,
                       &d->e_read, &d->e_write};
    for (int k = 0; k < 6; k++)
        *values[k] = num_of(&e, cfg[k]);
    if (e.err ||
        buffer_of(rows, &d->v_rows, (void **)&d->open_rows) < 0 ||
        buffer_of(cnt, &d->v_cnt, (void **)&d->cnt) < 0 ||
        nres_open(queues, &d->queues) < 0)
        return -1;
    if (row_bytes < 1 || nbanks < 1 || groups < 1 ||
        d->v_rows.len < (Py_ssize_t)(nbanks * 8) ||
        PyList_GET_SIZE(d->bank_ready) < nbanks ||
        d->v_cnt.len < DS_COUNT * 8 ||
        (d->queues.on && d->queues.lanes < 2 * groups))
        return view_error("DRAM");
    return 0;
}

static void
ndram_close(ndram_t *d)
{
    if (d->v_rows.obj) PyBuffer_Release(&d->v_rows);
    if (d->v_cnt.obj) PyBuffer_Release(&d->v_cnt);
    nres_close(&d->queues);
    if (d->on) {
        Py_DECREF(d->bank_ready);
        Py_DECREF(d->stats);
        Py_DECREF(d->state);
    }
    d->on = 0;
}

/* ---- Best-Offset prefetcher (prefetch.best_offset) ---- */
/* scalar state slots (must match driver._BOP_STATE) */
enum { BS_RR_LEN, BS_RR_ORDER, BS_TEST, BS_ROUND, BS_ON, BS_HAS_OFFSET,
       BS_OFFSET, BS_COUNT };

typedef struct {
    int on;
    int64_t *rr_blocks, *rr_orders, *scores, *offsets, *st;
    int64_t rr_entries, noff, block, round_max, score_max, bad_score;
    int l1;                 /* requests target the L1D (else the L2) */
    Py_buffer v_rb, v_ro, v_sc, v_off, v_st;
} nbop_t;

/* spec: None or (rr_blocks, rr_orders, scores, offsets, state, rr_entries,
 * block_bytes, round_max, score_max, bad_score, targets_l1). */
static int
nbop_open(PyObject *spec, nbop_t *b)
{
    memset(b, 0, sizeof(*b));
    if (spec == NULL || spec == Py_None)
        return 0;
    PyObject *rb, *ro, *sc, *off, *st;
    long long rr_entries, block, round_max, score_max, bad_score;
    if (!PyArg_ParseTuple(spec, "OOOOOLLLLLi", &rb, &ro, &sc, &off, &st,
                          &rr_entries, &block, &round_max, &score_max,
                          &bad_score, &b->l1))
        return -1;
    b->rr_entries = rr_entries;
    b->block = block;
    b->round_max = round_max;
    b->score_max = score_max;
    b->bad_score = bad_score;
    if (buffer_of(rb, &b->v_rb, (void **)&b->rr_blocks) < 0 ||
        buffer_of(ro, &b->v_ro, (void **)&b->rr_orders) < 0 ||
        buffer_of(sc, &b->v_sc, (void **)&b->scores) < 0 ||
        buffer_of(off, &b->v_off, (void **)&b->offsets) < 0 ||
        buffer_of(st, &b->v_st, (void **)&b->st) < 0)
        return -1;
    b->noff = b->v_off.len / 8;
    b->on = 1;
    if (rr_entries < 1 || block < 1 || b->noff < 1 ||
        b->v_rb.len < (Py_ssize_t)(rr_entries * 8) ||
        b->v_ro.len < (Py_ssize_t)(rr_entries * 8) ||
        b->v_sc.len < (Py_ssize_t)(b->noff * 8) || b->v_st.len < BS_COUNT * 8)
        return view_error("best-offset prefetcher");
    return 0;
}

static void
nbop_close(nbop_t *b)
{
    Py_buffer *views[] = {&b->v_rb, &b->v_ro, &b->v_sc, &b->v_off, &b->v_st};
    for (size_t k = 0; k < sizeof(views) / sizeof(views[0]); k++)
        if (views[k]->obj) PyBuffer_Release(views[k]);
    b->on = 0;
}

/* One core's (stock) memory system: every access, prefetch and TLB
 * prefill runs natively. */
typedef struct {
    merr_t e;
    ncache_t l1i, l1d, l2, l3;
    ntlb_t tlb;
    ndram_t dram;
    nbop_t bop;
    int lookahead;          /* CoreMemorySystem.lookahead_mode */
    int64_t hits, missed;   /* native L1 hits / native L1 misses */
} nmem_t;

/* spec: (l1i, l1d, l2, l3, tlb, dram, l2_prefetcher, lookahead_mode); the
 * L2 prefetcher is None or a BOP view. */
static int
nmem_open(PyObject *spec, nmem_t *m)
{
    memset(m, 0, sizeof(*m));
    PyObject *l1i, *l1d, *l2, *l3, *tlb, *dram, *bop;
    if (spec == NULL) {
        PyErr_SetString(PyExc_KeyError, "missing memory views");
        return -1;
    }
    if (!PyArg_ParseTuple(spec, "OOOOOOOi", &l1i, &l1d, &l2, &l3, &tlb, &dram,
                          &bop, &m->lookahead))
        return -1;
    if (ncache_open(l1i, &m->l1i) < 0 || ncache_open(l1d, &m->l1d) < 0 ||
        ncache_open(l2, &m->l2) < 0 || ncache_open(l3, &m->l3) < 0 ||
        ntlb_open(tlb, &m->tlb) < 0 || ndram_open(dram, &m->dram) < 0 ||
        nbop_open(bop, &m->bop) < 0)
        return -1;
    return 0;
}

static void
nmem_close(nmem_t *m)
{
    ncache_close(&m->l1i);
    ncache_close(&m->l1d);
    ncache_close(&m->l2);
    ncache_close(&m->l3);
    ntlb_close(&m->tlb);
    ndram_close(&m->dram);
    nbop_close(&m->bop);
}

/* ---- cache operations ---- */
static inline int64_t
cache_find(const ncache_t *c, int64_t block)
{
    int64_t index = pmod(block, c->sets), tag = pdiv(block, c->sets);
    int64_t base = index * c->assoc, end = base + c->count[index];
    for (int64_t k = base; k < end; k++)
        if (c->tag[k] == tag)
            return k;
    return -1;
}

static inline int
cache_probe(const ncache_t *c, int64_t address)
{
    return cache_find(c, pdiv(address, c->block)) >= 0;
}

/* The hit half of Cache.lookup on a present slot (``accesses`` counted by
 * the caller); returns the ready cycle. */
static num_t
cache_hit(merr_t *e, ncache_t *c, int64_t slot, num_t now, int is_write)
{
    c->cnt[CS_HITS]++;
    num_put(e, c->last_use, slot, now);
    num_t fill = num_get(e, c->fill, slot);
    uint8_t fl = c->flags[slot];
    if (is_write)
        fl |= LINE_DIRTY;
    if ((fl & PF_STATE) == LINE_FROM_PREFETCH) {
        fl |= LINE_PREFETCH_USED;
        c->cnt[CS_PF_HITS]++;
        if (fill.v > now.v)
            c->cnt[CS_LATE_PF_HITS]++;
    }
    c->flags[slot] = fl;
    return num_add(fill.v > now.v ? fill : now, c->latency);
}

/* The MSHR file's acquire_delay (BankedMshrFile's when it has lanes);
 * *conflict is its last_conflict. */
static num_t
mshr_acquire(merr_t *e, nres_t *r, int64_t block, num_t now, int *conflict)
{
    int64_t lane = pmod(block, r->lanes);
    num_t delay = res_acquire_delay(e, r, lane, block, now);
    *conflict = 0;
    if (r->lanes > 1 && delay.v > 0.0) {
        for (int64_t other = 0; other < r->lanes; other++) {
            if (other != lane && res_available(e, r, other, now)) {
                *conflict = 1;
                break;
            }
        }
    }
    return delay;
}

/* Cache.lookup: 1 and *ready on a hit; 0 on a miss, with *stall the
 * miss's last_miss_stall. */
static int
cache_lookup(merr_t *e, ncache_t *c, int64_t address, num_t now, int is_write,
             num_t *ready, num_t *stall)
{
    c->cnt[CS_ACC]++;
    int64_t block = pdiv(address, c->block);
    int64_t slot = cache_find(c, block);
    if (slot >= 0) {
        *ready = cache_hit(e, c, slot, now, is_write);
        return 1;
    }
    c->cnt[CS_MISSES]++;
    *stall = NUM_ZERO_F;
    if (c->mshr.on) {
        int conflict;
        num_t s = mshr_acquire(e, &c->mshr, block, now, &conflict);
        *stall = s;
        if (s.v > 0) {
            dict_add(e, c->stats, K_MSHR_STALL_CYCLES, s);
            c->cnt[CS_MSHR_STALLS]++;
            if (conflict) {
                c->cnt[CS_BANK_CONFLICTS]++;
                dict_add(e, c->stats, K_BANK_CONFLICT_CYCLES, s);
            }
        }
    }
    return 0;
}

/* Cache.mshr_available(now, address) */
static int
cache_mshr_available(merr_t *e, ncache_t *c, num_t now, int64_t address)
{
    if (!c->mshr.on)
        return 1;
    return res_available(e, &c->mshr,
                         pmod(pdiv(address, c->block), c->mshr.lanes), now);
}

/* cache.lru_victim: the LRU slot among base .. base + count - 1, the
 * smallest (last_use, stamp); shared by cache sets and the TLB. */
static int64_t
lru_victim(merr_t *e, PyObject *last_use, const int64_t *stamp, int64_t base,
           int64_t count)
{
    int64_t best = base;
    double best_use = num_get(e, last_use, base).v;
    for (int64_t k = base + 1; k < base + count; k++) {
        double use = num_get(e, last_use, k).v;
        if (use < best_use || (use == best_use && stamp[k] < stamp[best])) {
            best = k;
            best_use = use;
        }
    }
    return best;
}

/* Cache.fill: returns 1 with *victim when a dirty victim needs writeback;
 * *wb_stall is the fill's last_wb_stall.  ``now`` NULL = no probe time. */
static int
cache_fill(merr_t *e, ncache_t *c, int64_t address, num_t fill_time,
           int dirty, int from_prefetch, int allocate_mshr, const num_t *now,
           int64_t *victim, num_t *wb_stall)
{
    *wb_stall = NUM_ZERO_F;
    int64_t block = pdiv(address, c->block);
    int64_t index = pmod(block, c->sets), tag = pdiv(block, c->sets);
    if (from_prefetch)
        c->cnt[CS_PF_ISSUED]++;
    if (c->mshr.on && allocate_mshr) {
        if (res_admit(e, &c->mshr, pmod(block, c->mshr.lanes), block,
                      fill_time)) {
            c->cnt[CS_MSHR_ALLOC]++;
            res_probe_peak(e, &c->mshr, -1, now, c->stats, K_MSHR_PEAK);
        } else {
            c->cnt[CS_MSHR_COALESCED]++;
        }
    }
    int64_t slot = cache_find(c, block);
    if (slot >= 0) {
        if (fill_time.v < num_get(e, c->fill, slot).v)
            num_put(e, c->fill, slot, fill_time);
        if (dirty)
            c->flags[slot] |= LINE_DIRTY;
        return 0;
    }
    int writeback = 0;
    int64_t count = c->count[index], base = index * c->assoc;
    if (count >= c->assoc) {
        slot = lru_victim(e, c->last_use, c->stamp, base, count);
        uint8_t victim_flags = c->flags[slot];
        c->cnt[CS_EVICTIONS]++;
        if ((victim_flags & PF_STATE) == LINE_FROM_PREFETCH)
            c->cnt[CS_PF_USELESS]++;
        /* A look-ahead cache discards dirty victims (containment). */
        if ((victim_flags & LINE_DIRTY) && !c->lookahead) {
            c->cnt[CS_WRITEBACKS]++;
            *victim = (c->tag[slot] * c->sets + index) * c->block;
            writeback = 1;
            if (c->wb.on) {
                num_t stall = res_full_delay(e, &c->wb, 0, fill_time);
                *wb_stall = stall;
                if (stall.v > 0) {
                    c->cnt[CS_WB_STALLS]++;
                    dict_add(e, c->stats, K_WB_STALL_CYCLES, stall);
                    fill_time = num_add(fill_time, stall);
                }
            }
        }
    } else {
        slot = base + count;
        c->count[index] = count + 1;
    }
    c->tag[slot] = tag;
    num_put(e, c->fill, slot, fill_time);
    num_put(e, c->last_use, slot, fill_time);
    c->flags[slot] = (uint8_t)((dirty ? LINE_DIRTY : 0)
                               | (from_prefetch ? LINE_FROM_PREFETCH : 0));
    c->stamp[slot] = c->clock[0]++;
    return writeback;
}

/* Cache.writeback_admit */
static void
cache_writeback_admit(merr_t *e, ncache_t *c, num_t completion, num_t at)
{
    if (!c->wb.on)
        return;
    res_append(e, &c->wb, 0, 0, completion);
    c->cnt[CS_WB_ENQ]++;
    res_probe_peak(e, &c->wb, 0, &at, c->stats, K_WB_PEAK);
}

/* ---- TLB operations ---- */
static inline int64_t
tlb_find(ntlb_t *t, int64_t vpn)
{
    int64_t count = t->count[0];
    if (t->hint < count && t->vpn[t->hint] == vpn)
        return t->hint;
    for (int64_t k = 0; k < count; k++)
        if (t->vpn[k] == vpn) {
            t->hint = k;
            return k;
        }
    return -1;
}

/* Tlb._insert */
static void
tlb_insert(merr_t *e, ntlb_t *t, int64_t vpn, num_t now)
{
    int64_t slot = tlb_find(t, vpn);
    if (slot < 0) {
        int64_t count = t->count[0];
        if (count >= t->n) {
            slot = lru_victim(e, t->last_use, t->stamp, 0, count);
        } else {
            slot = count;
            t->count[0] = count + 1;
        }
        t->vpn[slot] = vpn;
        t->stamp[slot] = t->clock[0]++;
    }
    num_put(e, t->last_use, slot, now);
}

/* Tlb.access: the added latency. */
static num_t
tlb_access(merr_t *e, ntlb_t *t, int64_t address, num_t now)
{
    t->cnt[TS_ACC]++;
    int64_t vpn = pdiv(address, t->page);
    int64_t slot = tlb_find(t, vpn);
    if (slot >= 0) {
        t->cnt[TS_HITS]++;
        num_put(e, t->last_use, slot, now);
        return num_i(0);
    }
    t->cnt[TS_MISSES]++;
    tlb_insert(e, t, vpn, now);
    return t->penalty;
}

/* ---- DRAM operations ---- */
/* DramModel.access: the cycle the data is available. */
static num_t
dram_access(merr_t *e, ndram_t *d, int64_t address, num_t now, int is_write,
            int source)
{
    int64_t row = pdiv(address, d->row_bytes);
    int64_t bank = pmod(row, d->nbanks);
    int64_t lane = -1;
    if (d->queues.on) {
        lane = 2 * pmod(bank, d->groups) + (is_write ? 1 : 0);
        num_t delay = res_full_delay(e, &d->queues, lane, now);
        if (delay.v > 0) {
            d->cnt[DS_QUEUE_STALLS]++;
            dict_add(e, d->stats, K_QUEUE_STALL_CYCLES, delay);
            now = num_add(now, delay);
        }
    }
    num_t ready = num_get(e, d->bank_ready, bank);
    num_t start = ready.v > now.v ? ready : now;   /* max(now, ready) */
    if (ready.v > now.v)
        dict_add(e, d->stats, K_BUSY_DELAY, num_sub(start, now));
    num_t latency;
    if (d->open_rows[bank] == row) {
        latency = d->row_hit;
        d->cnt[DS_ROW_HITS]++;
    } else {
        latency = d->row_miss;
        d->cnt[DS_ROW_MISSES]++;
        dict_add(e, d->state, K_DYN_ENERGY, d->e_act);
        d->open_rows[bank] = row;
    }
    if (is_write) {
        d->cnt[DS_WRITES]++;
        if (source == SRC_WRITEBACK)
            d->cnt[DS_WB_WRITES]++;
        dict_add(e, d->state, K_DYN_ENERGY, d->e_write);
    } else {
        d->cnt[DS_READS]++;
        if (source == SRC_PREFETCH)
            d->cnt[DS_PF_READS]++;
        dict_add(e, d->state, K_DYN_ENERGY, d->e_read);
    }
    num_t finish = num_add(start, latency);
    num_put(e, d->bank_ready, bank, num_add(start, d->busy));
    if (lane >= 0) {
        res_append(e, &d->queues, lane, 0, finish);
        res_probe_peak(e, &d->queues, lane, &now, d->stats, K_QUEUE_PEAK);
    }
    if (finish.v > dict_num(e, d->state, K_LAST_ACCESS).v)
        dict_put(e, d->state, K_LAST_ACCESS, finish);
    return finish;
}

/* ---- BOP training (BestOffsetPrefetcher.observe) ---- */
static int64_t
bop_rr_find(const nbop_t *b, int64_t block)
{
    for (int64_t k = 0; k < b->st[BS_RR_LEN]; k++)
        if (b->rr_blocks[k] == block)
            return k;
    return -1;
}

static void
bop_new_round(nbop_t *b)
{
    memset(b->scores, 0, (size_t)b->noff * sizeof(int64_t));
    b->st[BS_ROUND] = 0;
    b->st[BS_TEST] = 0;
}

/* Trains on one access; 1 with *target when it requests a prefetch. */
static int
bop_observe(nbop_t *b, int64_t address, int64_t *target)
{
    int64_t *st = b->st;
    int64_t block = pdiv(address, b->block);
    int64_t k = pmod(st[BS_TEST], b->noff);
    int64_t tested = b->offsets[k];
    st[BS_TEST]++;
    if (bop_rr_find(b, block - tested) >= 0) {
        b->scores[k]++;
        if (b->scores[k] >= b->score_max) {
            st[BS_OFFSET] = tested;
            st[BS_HAS_OFFSET] = 1;
            st[BS_ON] = 1;
            bop_new_round(b);
        }
    }
    st[BS_ROUND]++;
    if (st[BS_ROUND] >= b->round_max) {   /* _end_round */
        int64_t best = 0;
        for (int64_t j = 1; j < b->noff; j++)
            if (b->scores[j] > b->scores[best])
                best = j;
        if (b->scores[best] <= b->bad_score) {
            st[BS_ON] = 0;
            st[BS_HAS_OFFSET] = 0;
        } else {
            st[BS_ON] = 1;
            st[BS_HAS_OFFSET] = 1;
            st[BS_OFFSET] = b->offsets[best];
        }
        bop_new_round(b);
    }
    int64_t slot = bop_rr_find(b, block);   /* _rr_insert */
    if (slot < 0) {
        if (st[BS_RR_LEN] >= b->rr_entries) {
            slot = 0;
            for (int64_t j = 1; j < st[BS_RR_LEN]; j++)
                if (b->rr_orders[j] < b->rr_orders[slot])
                    slot = j;
        } else {
            slot = st[BS_RR_LEN]++;
        }
        b->rr_blocks[slot] = block;
    }
    b->rr_orders[slot] = st[BS_RR_ORDER]++;
    if (!st[BS_ON] || !st[BS_HAS_OFFSET])
        return 0;
    *target = (block + st[BS_OFFSET]) * b->block;
    return 1;
}

/* ---- the hierarchy (memory.hierarchy) ---- */
/* SharedMemorySystem._spill_l3_victim */
static void
spill_l3(nmem_t *m, int64_t victim, num_t fill_time, num_t wb_stall)
{
    num_t drain = wb_stall.v != 0 ? num_add(fill_time, wb_stall) : fill_time;
    num_t done = dram_access(&m->e, &m->dram, victim, drain, 1, SRC_WRITEBACK);
    cache_writeback_admit(&m->e, &m->l3, done, drain);
}

/* SharedMemorySystem.access: the ready cycle; *dram = went to DRAM. */
static num_t
shared_access(nmem_t *m, int64_t address, num_t now, int is_write, int source,
              int *dram)
{
    num_t ready, stall, wb_stall;
    int64_t victim;
    if (cache_lookup(&m->e, &m->l3, address, now, is_write, &ready, &stall)) {
        *dram = 0;
        return ready;
    }
    num_t issue = num_add(num_add(now, stall), m->l3.latency);
    num_t dram_ready = dram_access(&m->e, &m->dram, address, issue, is_write,
                                   source);
    int writeback = cache_fill(&m->e, &m->l3, address, dram_ready, is_write, 0,
                               1, &now, &victim, &wb_stall);
    ready = dram_ready;
    if (writeback) {
        spill_l3(m, victim, dram_ready, wb_stall);
        if (wb_stall.v != 0)
            ready = num_add(dram_ready, wb_stall);
    }
    *dram = 1;
    return ready;
}

/* CoreMemorySystem._spill_l2_victim */
static void
spill_l2(nmem_t *m, int64_t victim, num_t fill_time, num_t wb_stall)
{
    num_t drain = wb_stall.v != 0 ? num_add(fill_time, wb_stall) : fill_time;
    num_t done = dram_access(&m->e, &m->dram, victim, drain, 1, SRC_WRITEBACK);
    cache_writeback_admit(&m->e, &m->l2, done, drain);
}

/* CoreMemorySystem._spill_l1_victim */
static void
spill_l1(nmem_t *m, ncache_t *l1, int64_t victim, num_t fill_time,
         num_t wb_stall)
{
    num_t drain = wb_stall.v != 0 ? num_add(fill_time, wb_stall) : fill_time;
    int64_t cascade;
    num_t cascade_stall;
    int spilled = cache_fill(&m->e, &m->l2, victim, drain, 1, 0, 0, NULL,
                             &cascade, &cascade_stall);
    cache_writeback_admit(&m->e, l1, num_add(drain, m->l2.latency), drain);
    if (spilled && m->l2.wb.on)
        spill_l2(m, cascade, drain, cascade_stall);
}

/* CoreMemorySystem._fill_l1: returns the fill's last_wb_stall. */
static num_t
fill_l1(nmem_t *m, ncache_t *l1, int64_t address, num_t fill_time, int dirty,
        num_t now)
{
    int64_t victim;
    num_t wb_stall;
    if (cache_fill(&m->e, l1, address, fill_time, dirty, 0, 1, &now, &victim,
                   &wb_stall) && !m->lookahead)
        spill_l1(m, l1, victim, fill_time, wb_stall);
    return wb_stall;
}

/* CoreMemorySystem._fill_l2: returns the fill's last_wb_stall. */
static num_t
fill_l2(nmem_t *m, int64_t address, num_t fill_time, int dirty, num_t now)
{
    int64_t victim;
    num_t wb_stall;
    if (cache_fill(&m->e, &m->l2, address, fill_time, dirty, 0, 1, &now,
                   &victim, &wb_stall) && !m->lookahead)
        spill_l2(m, victim, fill_time, wb_stall);
    return wb_stall;
}

/* CoreMemorySystem._miss: the access's info word, *ready its ready cycle. */
static int
mem_miss(nmem_t *m, ncache_t *l1, int64_t address, num_t now, num_t start,
         int is_write, num_t l1_stall, num_t *ready)
{
    num_t issue = num_add(num_add(start, l1_stall), l1->latency);
    num_t l2_ready, l2_stall;
    if (cache_lookup(&m->e, &m->l2, address, issue, is_write, &l2_ready,
                     &l2_stall)) {
        num_t wb_stall = fill_l1(m, l1, address, l2_ready, is_write, now);
        *ready = wb_stall.v != 0 ? num_add(l2_ready, wb_stall) : l2_ready;
        return 9;
    }
    int dram;
    num_t shared = shared_access(
        m, address, num_add(num_add(issue, l2_stall), m->l2.latency), is_write,
        SRC_DEMAND, &dram);
    num_t l2_wb_stall = fill_l2(m, address, shared, is_write, now);
    num_t wb_stall = num_add(l2_wb_stall,
                             fill_l1(m, l1, address, shared, is_write, now));
    *ready = wb_stall.v != 0 ? num_add(shared, wb_stall) : shared;
    return dram ? 7 : 3;
}

/* SharedMemorySystem.access_for_prefetch: 0 when refused. */
static int
shared_prefetch(nmem_t *m, int64_t address, num_t now, num_t *ready)
{
    if (!cache_probe(&m->l3, address) &&
        !cache_mshr_available(&m->e, &m->l3, now, address)) {
        m->l3.cnt[CS_PF_DROPPED]++;
        return 0;
    }
    int dram;
    *ready = shared_access(m, address, now, 0, SRC_PREFETCH, &dram);
    return 1;
}

/* CoreMemorySystem._prefetch_fill_time_from_l2: 0 when refused. */
static int
prefetch_from_l2(nmem_t *m, int64_t address, num_t now, num_t *fill_time)
{
    if (cache_probe(&m->l2, address)) {
        *fill_time = num_add(now, m->l2.latency);
        return 1;
    }
    if (!cache_mshr_available(&m->e, &m->l2, now, address)) {
        m->l2.cnt[CS_PF_DROPPED]++;
        return 0;
    }
    if (!shared_prefetch(m, address, num_add(now, m->l2.latency), fill_time))
        return 0;
    int64_t victim;
    num_t wb_stall;
    if (cache_fill(&m->e, &m->l2, address, *fill_time, 0, 1, 1, &now, &victim,
                   &wb_stall) && !m->lookahead && m->l2.wb.on)
        spill_l2(m, victim, *fill_time, wb_stall);
    return 1;
}

/* CoreMemorySystem.prefetch(address, now, level): 0 when dropped. */
static int
mem_prefetch(nmem_t *m, int64_t address, num_t now, int into_l1,
             num_t *fill_time)
{
    if (!into_l1)
        return prefetch_from_l2(m, address, now, fill_time);
    ncache_t *l1 = &m->l1d;     /* _prefetch_into_l1 */
    if (cache_probe(l1, address)) {
        *fill_time = now;
        return 1;
    }
    if (!cache_mshr_available(&m->e, l1, now, address)) {
        l1->cnt[CS_PF_DROPPED]++;
        return 0;
    }
    if (!prefetch_from_l2(m, address, now, fill_time))
        return 0;
    int64_t victim;
    num_t wb_stall;
    if (cache_fill(&m->e, l1, address, *fill_time, 0, 1, 1, &now, &victim,
                   &wb_stall) && !m->lookahead && l1->wb.on)
        spill_l1(m, l1, victim, *fill_time, wb_stall);
    return 1;
}

/* Tlb.prefill */
static void
mem_prefill_tlb(nmem_t *m, int64_t address, num_t now)
{
    int64_t vpn = pdiv(address, m->tlb.page);
    if (tlb_find(&m->tlb, vpn) < 0)
        m->tlb.cnt[TS_PREFILLS]++;
    tlb_insert(&m->e, &m->tlb, vpn, now);
}

/* The L2 branch of OutOfOrderCore._run_prefetchers for one data access's
 * info word (BOP's notify_drop is a no-op). */
static void
mem_train(nmem_t *m, int64_t address, int info, num_t now)
{
    int64_t target;
    num_t fill_time;
    if (m->bop.on && (info & 1) && bop_observe(&m->bop, address, &target))
        mem_prefetch(m, target, now, m->bop.l1, &fill_time);
}

/* CoreMemorySystem.access_inst_fast: *ready and *info; -1 on error. */
static int
mem_inst(nmem_t *m, int64_t address, num_t now, num_t *ready, int *info)
{
    ncache_t *l1 = &m->l1i;
    num_t stall;
    *info = 0;
    if (cache_lookup(&m->e, l1, address, now, 0, ready, &stall)) {
        m->hits++;
    } else {
        *info = mem_miss(m, l1, address, now, now, 0, stall, ready);
        m->missed++;
    }
    return m->e.err ? -1 : 0;
}

/* CoreMemorySystem.access_data_fast; returns as mem_inst. */
static int
mem_data(nmem_t *m, int64_t address, num_t now, int is_write, num_t *ready,
         int *info)
{
    ncache_t *l1 = &m->l1d;
    num_t start = num_add(now, tlb_access(&m->e, &m->tlb, address, now));
    num_t stall;
    *info = 0;
    if (cache_lookup(&m->e, l1, address, start, is_write, ready, &stall)) {
        m->hits++;
    } else {
        *info = mem_miss(m, l1, address, now, start, is_write, stall, ready);
        m->missed++;
    }
    return m->e.err ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* Native DLA hint unit (hookspec.HintUnit): the main thread's side of  */
/* the BOQ/FQ coupling, transcribing MainThreadHintSource's hooks.      */
/* Columns are in program order, walked in lockstep with the trace's    */
/* seqs; verdicts were drawn before the run.                            */

/* hint-state slots (must match driver._HINT_STATE), then the run's own
 * fetch stall on hints and native installs/drops, written from 0 */
enum {
    H_OFFSET, H_FQ_OCC, H_FQ_PF, H_FQ_VAL, H_REBOOTS,
    H_BRANCH, H_VALUE, H_PREFETCH, H_STALL, H_INSTALLED, H_DROPPED, H_COUNT
};

typedef struct {
    int on;
    int64_t *bseq, *vseq, *paddr;
    double *btime, *vtime, *ptime, *state;
    int8_t *bok, *vverdict;
    int64_t nb, nv, np, boq, fq_cap;
    double penalty;
    double *consumed;       /* fetch cycle of each consumed branch hint */
    Py_buffer v_bseq, v_btime, v_bok, v_vseq, v_vtime, v_vv, v_ptime, v_paddr;
    Py_buffer v_state;
} hunit_t;

/* spec: None or (branch_seqs, branch_times, branch_correct, value_seqs,
 * value_times, value_verdicts, prefetch_times, prefetch_addresses, state,
 * boq_entries, reboot_penalty, fq_capacity). */
static int
hunit_open(PyObject *spec, hunit_t *h)
{
    memset(h, 0, sizeof(*h));
    if (spec == NULL || spec == Py_None)
        return 0;
    PyObject *bseq, *btime, *bok, *vseq, *vtime, *vv, *ptime, *paddr, *state;
    long long boq, fq_cap;
    if (!PyArg_ParseTuple(spec, "OOOOOOOOOLdL", &bseq, &btime, &bok, &vseq,
                          &vtime, &vv, &ptime, &paddr, &state, &boq,
                          &h->penalty, &fq_cap))
        return -1;
    if (buffer_of(bseq, &h->v_bseq, (void **)&h->bseq) < 0 ||
        buffer_of(btime, &h->v_btime, (void **)&h->btime) < 0 ||
        buffer_of(bok, &h->v_bok, (void **)&h->bok) < 0 ||
        buffer_of(vseq, &h->v_vseq, (void **)&h->vseq) < 0 ||
        buffer_of(vtime, &h->v_vtime, (void **)&h->vtime) < 0 ||
        buffer_of(vv, &h->v_vv, (void **)&h->vverdict) < 0 ||
        buffer_of(ptime, &h->v_ptime, (void **)&h->ptime) < 0 ||
        buffer_of(paddr, &h->v_paddr, (void **)&h->paddr) < 0 ||
        buffer_of(state, &h->v_state, (void **)&h->state) < 0)
        return -1;
    h->nb = h->v_bseq.len / (Py_ssize_t)sizeof(int64_t);
    h->nv = h->v_vseq.len / (Py_ssize_t)sizeof(int64_t);
    h->np = h->v_ptime.len / (Py_ssize_t)sizeof(double);
    h->boq = boq;
    h->fq_cap = fq_cap;
    if (boq < 1 ||
        h->v_btime.len != h->nb * (Py_ssize_t)sizeof(double) ||
        h->v_bok.len != h->nb ||
        h->v_vtime.len != h->nv * (Py_ssize_t)sizeof(double) ||
        h->v_vv.len != h->nv ||
        h->v_paddr.len != h->np * (Py_ssize_t)sizeof(int64_t) ||
        h->v_state.len != H_COUNT * (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "hint unit columns do not match");
        return -1;
    }
    h->consumed = PyMem_Malloc(sizeof(double) * (h->nb > 0 ? h->nb : 1));
    if (h->consumed == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    h->on = 1;
    return 0;
}

static void
hunit_close(hunit_t *h)
{
    Py_buffer *views[] = {&h->v_bseq, &h->v_btime, &h->v_bok, &h->v_vseq,
                          &h->v_vtime, &h->v_vv, &h->v_ptime, &h->v_paddr,
                          &h->v_state};
    for (size_t k = 0; k < sizeof(views) / sizeof(views[0]); k++)
        if (views[k]->obj) PyBuffer_Release(views[k]);
    PyMem_Free(h->consumed);
    h->on = 0;
}

/* ------------------------------------------------------------------ */
/* Native T1 (dla.t1.T1PrefetchEngine): the strided-prefetch FSM,       */
/* stepped at commit for the marked loads on the engine's own slot      */
/* arrays (its table), issuing through mem_prefetch.  Transcribes       */
/* on_commit, _enter_steady, _issue and _allocate.                      */

/* T1 stats counters (must match driver._T1_COUNTS) */
enum {
    T1S_ISSUED, T1S_DROPPED, T1S_BURSTS, T1S_ALLOCATED, T1S_RESET,
    T1S_CONFIRMED, T1S_COUNT
};
/* entry states (must match dla/t1.py) */
#define T1_TRANSIENT 1
#define T1_STEADY 2
/* table slot arrays (must match driver.T1_TABLE) */
enum {
    T1_PC, T1_STATE, T1_STRIDE, T1_ADDRESS, T1_COMMIT, T1_INTERVAL, T1_CONF,
    T1_DISTANCE, T1_USE, T1_STAMP, T1_COUNT, T1_CLOCK, T1_ARRAYS
};

typedef struct {
    int on;
    int64_t *marked, nmarked;
    int64_t *pc, *stride, *address, *conf, *distance, *stamp, *count, *clock;
    int8_t *state;
    double *commit, *interval, *use;
    int64_t *cnt;
    int64_t entries, initial_distance, min_distance, max_distance;
    int64_t confirmations, burst, block;
    double latency;
    int64_t *blocks;        /* one burst's issued blocks */
    Py_buffer v_marked, v_cnt, views[T1_ARRAYS];
} nt1_t;

/* spec: None or (marked_pcs (sorted), table (the T1_TABLE arrays),
 * counts, entries, initial_distance, min_distance, max_distance,
 * confirmations, catch_up_burst, assumed_miss_latency, block_bytes). */
static int
t1_open(PyObject *spec, nt1_t *t)
{
    memset(t, 0, sizeof(*t));
    if (spec == NULL || spec == Py_None)
        return 0;
    PyObject *marked, *table, *cnt;
    long long entries, initial, lo, hi, confirmations, burst, block;
    if (!PyArg_ParseTuple(spec, "OO!OLLLLLLdL", &marked, &PyTuple_Type, &table,
                          &cnt, &entries, &initial, &lo, &hi, &confirmations,
                          &burst, &t->latency, &block))
        return -1;
    if (PyTuple_GET_SIZE(table) != T1_ARRAYS) {
        PyErr_SetString(PyExc_ValueError, "T1 table has the wrong arrays");
        return -1;
    }
    void **slots[T1_ARRAYS] = {
        (void **)&t->pc, (void **)&t->state, (void **)&t->stride,
        (void **)&t->address, (void **)&t->commit, (void **)&t->interval,
        (void **)&t->conf, (void **)&t->distance, (void **)&t->use,
        (void **)&t->stamp, (void **)&t->count, (void **)&t->clock};
    if (buffer_of(marked, &t->v_marked, (void **)&t->marked) < 0 ||
        buffer_of(cnt, &t->v_cnt, (void **)&t->cnt) < 0)
        return -1;
    for (int k = 0; k < T1_ARRAYS; k++) {
        Py_ssize_t width = k == T1_STATE ? 1 : 8;
        Py_ssize_t need = k >= T1_COUNT ? 1 : (Py_ssize_t)entries;
        if (buffer_of(PyTuple_GET_ITEM(table, k), &t->views[k], slots[k]) < 0)
            return -1;
        if (t->views[k].len != need * width) {
            PyErr_SetString(PyExc_ValueError, "T1 table view does not match "
                            "its entries");
            return -1;
        }
    }
    t->nmarked = t->v_marked.len / (Py_ssize_t)sizeof(int64_t);
    t->entries = entries;
    t->initial_distance = initial;
    t->min_distance = lo;
    t->max_distance = hi;
    t->confirmations = confirmations;
    t->burst = burst;
    t->block = block;
    if (entries < 1 || block < 1 || *t->count < 0 || *t->count > entries ||
        t->v_cnt.len != T1S_COUNT * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_SetString(PyExc_ValueError, "bad T1 geometry");
        return -1;
    }
    t->blocks = PyMem_Malloc(sizeof(int64_t) * (burst > 1 ? burst : 1));
    if (t->blocks == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->on = 1;
    return 0;
}

static void
t1_close(nt1_t *t)
{
    if (t->v_marked.obj) PyBuffer_Release(&t->v_marked);
    if (t->v_cnt.obj) PyBuffer_Release(&t->v_cnt);
    for (int k = 0; k < T1_ARRAYS; k++)
        if (t->views[k].obj) PyBuffer_Release(&t->views[k]);
    PyMem_Free(t->blocks);
    t->on = 0;
}

/* T1PrefetchEngine._issue: ``count`` prefetches from ``distance`` strides
 * ahead into the L1D at int(cycle), skipping targets below 0 and blocks
 * this call already issued. */
static void
t1_issue(nt1_t *t, nmem_t *m, int64_t k, int64_t address, double cycle,
         int64_t count)
{
    int64_t distance = t->distance[k] ? t->distance[k] : t->initial_distance;
    int64_t issued = 0;
    num_t now = num_i((double)(int64_t)cycle), ignored;
    for (int64_t i = 0; i < count; i++) {
        int64_t target = address + (distance + i) * t->stride[k];
        if (target < 0)
            continue;
        int64_t block = pdiv(target, t->block), seen = 0;
        for (int64_t j = 0; j < issued && !seen; j++)
            seen = t->blocks[j] == block;
        if (seen)
            continue;
        t->blocks[issued++] = block;
        if (mem_prefetch(m, target, now, 1, &ignored))
            t->cnt[T1S_ISSUED]++;
        else
            t->cnt[T1S_DROPPED]++;
    }
}

/* T1PrefetchEngine._allocate: a free slot, else the LRU victim's (the
 * smallest (last_use, stamp)); returns the slot. */
static int64_t
t1_allocate(nt1_t *t, int64_t pc_, double cycle)
{
    int64_t count = *t->count, k = count;
    if (count >= t->entries) {
        k = 0;
        for (int64_t j = 1; j < count; j++)
            if (t->use[j] < t->use[k] ||
                (t->use[j] == t->use[k] && t->stamp[j] < t->stamp[k]))
                k = j;
    } else {
        *t->count = count + 1;
    }
    t->pc[k] = pc_;
    t->stride[k] = 0;
    t->conf[k] = 0;
    t->interval[k] = 0.0;
    t->distance[k] = 0;
    t->use[k] = cycle;
    t->stamp[k] = (*t->clock)++;
    t->cnt[T1S_ALLOCATED]++;
    return k;
}

/* T1PrefetchEngine.on_commit for a committed load at a marked PC. */
static void
t1_commit(nt1_t *t, nmem_t *m, int64_t pc_, int64_t address, double cycle)
{
    int64_t k = -1;
    for (int64_t j = 0; j < *t->count && k < 0; j++)
        if (t->pc[j] == pc_)
            k = j;
    if (k < 0) {
        k = t1_allocate(t, pc_, cycle);
        t->address[k] = address;
        t->commit[k] = cycle;
        t->state[k] = T1_TRANSIENT;
        return;
    }
    int64_t observed = address - t->address[k];
    double interval = cycle - t->commit[k];
    if (!(interval > 1.0))          /* max(1.0, interval) */
        interval = 1.0;
    t->address[k] = address;
    t->commit[k] = cycle;
    t->use[k] = cycle;
    if (t->state[k] == T1_TRANSIENT) {
        if (observed == t->stride[k] && observed != 0) {
            t->conf[k]++;
            t->interval[k] = (t->interval[k] + interval) / 2.0;
            if (t->conf[k] >= t->confirmations) {
                /* _enter_steady; round() is half-to-even, as rint is in
                 * the default rounding mode */
                t->state[k] = T1_STEADY;
                t->cnt[T1S_CONFIRMED]++;
                double smoothed = t->interval[k] > 1.0 ? t->interval[k] : 1.0;
                double distance = rint(t->latency / smoothed);
                if (distance > (double)t->max_distance)
                    distance = (double)t->max_distance;
                if (distance < (double)t->min_distance)
                    distance = (double)t->min_distance;
                t->distance[k] = (int64_t)distance;
                t1_issue(t, m, k, address, cycle,
                         t->burst < t->distance[k] ? t->burst : t->distance[k]);
                t->cnt[T1S_BURSTS]++;
            }
        } else {
            t->stride[k] = observed;
            t->conf[k] = 0;
            t->interval[k] = interval;
        }
    } else if (observed != t->stride[k]) {
        /* The loop changed behaviour; fall back and re-learn. */
        t->state[k] = T1_TRANSIENT;
        t->stride[k] = observed;
        t->conf[k] = 0;
        t->cnt[T1S_RESET]++;
    } else {
        t->interval[k] = 0.75 * t->interval[k] + 0.25 * interval;
        t1_issue(t, m, k, address, cycle, 1);
    }
}

/* Kernel view of a TageLitePredictor (driver._tage_view), shared
 * zero-copy: (base entries, base threshold, base max value,
 * tables, table entries, tag mask, then the base, present, tags, ctr,
 * useful, history and masks arrays). */
static int
tage_open(PyObject *spec, tage_t *tg)
{
    memset(tg, 0, sizeof(*tg));
    if (spec == NULL) {
        PyErr_SetString(PyExc_KeyError, "missing TAGE view");
        return -1;
    }
    long long base_n, thresh, max, nt, te, mask;
    PyObject *arrays[TAGE_ARRAYS];
    if (!PyArg_ParseTuple(spec, "LLLLLLOOOOOOO", &base_n, &thresh, &max, &nt,
                          &te, &mask, &arrays[0], &arrays[1], &arrays[2],
                          &arrays[3], &arrays[4], &arrays[5], &arrays[6]))
        return -1;
    void **slots[TAGE_ARRAYS] = {
        (void **)&tg->base, (void **)&tg->present, (void **)&tg->tags,
        (void **)&tg->ctr, (void **)&tg->useful, (void **)&tg->hist,
        (void **)&tg->masks};
    for (int k = 0; k < TAGE_ARRAYS; k++)
        if (buffer_of(arrays[k], &tg->views[k], slots[k]) < 0)
            return -1;
    tg->base_n = base_n;
    tg->base_thresh = thresh;
    tg->base_max = max;
    tg->nt = nt;
    tg->te = te;
    tg->tag_mask = mask;
    Py_ssize_t slots_n = (Py_ssize_t)(nt * te);
    if (base_n < 1 || nt < 0 || te < 1 ||
        tg->views[0].len < (Py_ssize_t)(base_n * 8) ||
        tg->views[1].len < slots_n || tg->views[2].len < slots_n * 8 ||
        tg->views[3].len < slots_n * 8 || tg->views[4].len < slots_n * 8 ||
        tg->views[5].len < 8 || tg->views[6].len < (Py_ssize_t)(nt * 8))
        return view_error("TAGE");
    return 0;
}

static void
tage_close(tage_t *tg)
{
    for (int k = 0; k < TAGE_ARRAYS; k++)
        if (tg->views[k].obj) PyBuffer_Release(&tg->views[k]);
}

/* ------------------------------------------------------------------ */
/* Native B-Fetch walker (hookspec.BFetchWalker): at every fetch, the   */
/* walker's TAGE predicts and trains on a conditional branch, then a    */
/* load repeating its stride on a confident path prefetches down it     */
/* into the L1D.  Transcribes baselines/bfetch.py's on_fetch.           */
typedef struct {
    int on;
    tage_t tg;
    int64_t lookahead, distance, npcs;
    int64_t *confidence, *last_address, *last_stride;
    int8_t *has_address;
    Py_buffer v_conf, v_has, v_addr, v_stride;
} nbf_t;

/* spec: None or (TAGE view, lookahead_branches, distance, confidence,
 * has_address, last_address, last_stride). */
static int
bf_open(PyObject *spec, nbf_t *b)
{
    memset(b, 0, sizeof(*b));
    if (spec == NULL || spec == Py_None)
        return 0;
    PyObject *tage, *conf, *has, *addr, *stride;
    long long lookahead, distance;
    if (!PyArg_ParseTuple(spec, "O!LLOOOO", &PyTuple_Type, &tage, &lookahead,
                          &distance, &conf, &has, &addr, &stride))
        return -1;
    if (tage_open(tage, &b->tg) < 0 ||
        buffer_of(conf, &b->v_conf, (void **)&b->confidence) < 0 ||
        buffer_of(has, &b->v_has, (void **)&b->has_address) < 0 ||
        buffer_of(addr, &b->v_addr, (void **)&b->last_address) < 0 ||
        buffer_of(stride, &b->v_stride, (void **)&b->last_stride) < 0)
        return -1;
    b->lookahead = lookahead;
    b->distance = distance;
    b->npcs = b->v_has.len;
    if (b->v_conf.len != 8 || b->v_addr.len != b->npcs * 8 ||
        b->v_stride.len != b->npcs * 8)
        return view_error("B-Fetch");
    b->on = 1;
    return 0;
}

static void
bf_close(nbf_t *b)
{
    Py_buffer *views[] = {&b->v_conf, &b->v_has, &b->v_addr, &b->v_stride};
    for (size_t k = 0; k < sizeof(views) / sizeof(views[0]); k++)
        if (views[k]->obj) PyBuffer_Release(views[k]);
    tage_close(&b->tg);
    b->on = 0;
}

/* on_fetch for the instruction with flags f at pc_ fetched at
 * fetch_time; -1 (IndexError) for a load outside the stride table.
 * Prefetch targets below 0 go through, as in Python. */
static int
bf_fetch(nbf_t *b, nmem_t *m, int64_t f, int64_t pc_, int64_t address,
         double fetch_time)
{
    if (f & F_BRANCH) {
        int taken = (f & F_TAKEN) != 0;
        if (tage_predict_update(&b->tg, pc_, taken) == taken) {
            int64_t c = *b->confidence + 1;
            *b->confidence = c < b->lookahead ? c : b->lookahead;
        } else {
            *b->confidence = 0;
        }
    }
    if (!(f & F_LOAD))
        return 0;
    if (pc_ < 0 || pc_ >= b->npcs) {
        PyErr_SetString(PyExc_IndexError, "load PC outside the B-Fetch table");
        return -1;
    }
    if (b->has_address[pc_]) {
        int64_t stride = address - b->last_address[pc_];
        if (stride != 0 && stride == b->last_stride[pc_] &&
            *b->confidence >= 2) {
            int64_t reach = 1 + pdiv(*b->confidence, 2);
            if (reach > b->distance)
                reach = b->distance;
            num_t now = num_i((double)(int64_t)fetch_time), ignored;
            for (int64_t step = 1; step <= reach; step++)
                mem_prefetch(m, address + step * stride, now, 1, &ignored);
        }
        b->last_stride[pc_] = stride;
    }
    b->has_address[pc_] = 1;
    b->last_address[pc_] = address;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Native CRE table (hookspec.RunaheadTable): after each load access,   */
/* an eligible PC's k-th access prefetches its occurrence k + lead into */
/* the L1D.  Transcribes baselines/runahead.py's on_memory_access.      */
enum {
    RA_ELIGIBLE, RA_LEAD, RA_OFFSET, RA_COUNT, RA_FUTURE, RA_SEEN, RA_ARRAYS
};

typedef struct {
    int on;
    int8_t *eligible;
    int64_t *lead, *offset, *count, *future, *seen, npcs;
    Py_buffer views[RA_ARRAYS];
} nra_t;

/* spec: None or (eligible, lead, offset, count, future, seen). */
static int
ra_open(PyObject *spec, nra_t *r)
{
    memset(r, 0, sizeof(*r));
    if (spec == NULL || spec == Py_None)
        return 0;
    PyObject *arrays[RA_ARRAYS];
    if (!PyArg_ParseTuple(spec, "OOOOOO", &arrays[0], &arrays[1], &arrays[2],
                          &arrays[3], &arrays[4], &arrays[5]))
        return -1;
    void **slots[RA_ARRAYS] = {
        (void **)&r->eligible, (void **)&r->lead, (void **)&r->offset,
        (void **)&r->count, (void **)&r->future, (void **)&r->seen};
    for (int k = 0; k < RA_ARRAYS; k++)
        if (buffer_of(arrays[k], &r->views[k], slots[k]) < 0)
            return -1;
    r->npcs = r->views[RA_ELIGIBLE].len;
    int64_t nfuture = r->views[RA_FUTURE].len / 8;
    for (int k = RA_LEAD; k < RA_ARRAYS; k++)
        if (k != RA_FUTURE && r->views[k].len != r->npcs * 8)
            return view_error("CRE table");
    /* Every eligible PC's occurrences lie inside the column and its lead
     * only looks ahead, so a step never reads outside it. */
    for (int64_t pc_ = 0; pc_ < r->npcs; pc_++)
        if (r->eligible[pc_] &&
            (r->lead[pc_] < 0 || r->offset[pc_] < 0 || r->count[pc_] < 0 ||
             r->offset[pc_] + r->count[pc_] > nfuture))
            return view_error("CRE table");
    r->on = 1;
    return 0;
}

static void
ra_close(nra_t *r)
{
    for (int k = 0; k < RA_ARRAYS; k++)
        if (r->views[k].obj) PyBuffer_Release(&r->views[k]);
    r->on = 0;
}

/* on_memory_access for a load at pc_ issued at now: 1 when an eligible
 * PC stepped, 0 when not, -1 (IndexError) outside the table. */
static int
ra_load(nra_t *r, nmem_t *m, int64_t pc_, num_t now)
{
    if (pc_ < 0 || pc_ >= r->npcs) {
        PyErr_SetString(PyExc_IndexError, "load PC outside the CRE table");
        return -1;
    }
    if (!r->eligible[pc_])
        return 0;
    int64_t target = r->seen[pc_]++ + r->lead[pc_];
    if (target < r->count[pc_]) {
        num_t ignored;
        mem_prefetch(m, r->future[r->offset[pc_] + target], now, 1, &ignored);
    }
    return 1;
}

/* Declared commit log (hookspec.CommitLog): (trace index, commit cycle)
 * of every conditional branch, and of every instruction at a declared PC,
 * into columns of the run's length; counts in C_LOG_BRANCHES/C_LOG_PCS. */
typedef struct {
    int on;
    int64_t *pcs, npcs, *bidx, *pidx;
    double *btime, *ptime;
    Py_buffer v_pcs, v_bidx, v_btime, v_pidx, v_ptime;
} clog_t;

/* spec: None or (pcs, n_pcs, branch_index, branch_times, pc_index,
 * pc_times). */
static int
clog_open(PyObject *spec, clog_t *c, int64_t n)
{
    memset(c, 0, sizeof(*c));
    if (spec == NULL || spec == Py_None)
        return 0;
    PyObject *pcs, *bidx, *btime, *pidx, *ptime;
    long long npcs;
    if (!PyArg_ParseTuple(spec, "OLOOOO", &pcs, &npcs, &bidx, &btime, &pidx,
                          &ptime))
        return -1;
    c->npcs = npcs;
    if (buffer_of(pcs, &c->v_pcs, (void **)&c->pcs) < 0 ||
        buffer_of(bidx, &c->v_bidx, (void **)&c->bidx) < 0 ||
        buffer_of(btime, &c->v_btime, (void **)&c->btime) < 0 ||
        buffer_of(pidx, &c->v_pidx, (void **)&c->pidx) < 0 ||
        buffer_of(ptime, &c->v_ptime, (void **)&c->ptime) < 0)
        return -1;
    Py_ssize_t need = (Py_ssize_t)(n * 8);
    if (c->v_pcs.len < npcs * (Py_ssize_t)sizeof(int64_t) ||
        c->v_bidx.len < need || c->v_btime.len < need ||
        c->v_pidx.len < need || c->v_ptime.len < need) {
        PyErr_SetString(PyExc_ValueError, "commit log columns are too short");
        return -1;
    }
    c->on = 1;
    return 0;
}

static void
clog_close(clog_t *c)
{
    Py_buffer *views[] = {&c->v_pcs, &c->v_bidx, &c->v_btime, &c->v_pidx,
                          &c->v_ptime};
    for (size_t k = 0; k < sizeof(views) / sizeof(views[0]); k++)
        if (views[k]->obj) PyBuffer_Release(views[k]);
    c->on = 0;
}


typedef struct { double free_at; int64_t index; } unit_t;

static inline double
heap_reserve(unit_t *heap, int count, double earliest, double busy_for)
{
    double free_at = heap[0].free_at;
    double start = free_at > earliest ? free_at : earliest;
    double nf = start + busy_for;
    int64_t ni = heap[0].index;
    int pos = 0;
    for (;;) {
        int child = 2 * pos + 1;
        if (child >= count)
            break;
        int right = child + 1;
        if (right < count &&
            (heap[right].free_at < heap[child].free_at ||
             (heap[right].free_at == heap[child].free_at &&
              heap[right].index < heap[child].index)))
            child = right;
        if (heap[child].free_at < nf ||
            (heap[child].free_at == nf && heap[child].index < ni)) {
            heap[pos] = heap[child];
            pos = child;
        } else
            break;
    }
    heap[pos].free_at = nf;
    heap[pos].index = ni;
    return start;
}

/* Position of x in the sorted a[0 .. count - 1], or -1. */
static inline int64_t
sorted_index(const int64_t *a, int64_t count, int64_t x)
{
    int64_t lo = 0, hi = count;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < count && a[lo] == x ? lo : -1;
}

static inline int
in_sorted(const int64_t *a, int64_t count, int64_t x)
{
    return sorted_index(a, count, x) >= 0;
}

static int
get_buffer(PyObject *dict, const char *key, Py_buffer *view, void **ptr)
{
    PyObject *obj = PyDict_GetItemString(dict, key);
    if (obj == NULL) {
        PyErr_Format(PyExc_KeyError, "missing buffer %s", key);
        return -1;
    }
    if (PyObject_GetBuffer(obj, view, PyBUF_SIMPLE) < 0)
        return -1;
    *ptr = view->buf;
    return 0;
}

/* Optional buffer: missing key or None -> NULL (column not requested). */
static int
get_optional_buffer(PyObject *dict, const char *key, Py_buffer *view,
                    void **ptr)
{
    PyObject *obj = PyDict_GetItemString(dict, key);
    if (obj == NULL || obj == Py_None) {
        *ptr = NULL;
        return 0;
    }
    return get_buffer(dict, key, view, ptr);
}

static double
get_float(PyObject *dict, const char *key, int *err)
{
    PyObject *obj = PyDict_GetItemString(dict, key);
    if (obj == NULL) {
        PyErr_Format(PyExc_KeyError, "missing scalar %s", key);
        *err = 1;
        return 0.0;
    }
    double v = PyFloat_AsDouble(obj);
    if (v == -1.0 && PyErr_Occurred())
        *err = 1;
    return v;
}

static int64_t
get_int(PyObject *dict, const char *key, int *err)
{
    PyObject *obj = PyDict_GetItemString(dict, key);
    if (obj == NULL) {
        PyErr_Format(PyExc_KeyError, "missing scalar %s", key);
        *err = 1;
        return 0;
    }
    int64_t v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        *err = 1;
    return v;
}

/* Optional object: missing key or None -> NULL (feature disabled). */
static PyObject *
get_optional(PyObject *dict, const char *key)
{
    PyObject *obj = PyDict_GetItemString(dict, key);
    if (obj == NULL || obj == Py_None)
        return NULL;
    return obj;
}

static PyObject *
run_tick_loop(PyObject *self, PyObject *args)
{
    PyObject *spec;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &spec))
        return NULL;

    int err = 0;
    int64_t n = get_int(spec, "n", &err);
    double start_cycle = get_float(spec, "start_cycle", &err);
    double fetch_inc = get_float(spec, "fetch_inc", &err);
    double dispatch_inc = get_float(spec, "dispatch_inc", &err);
    double commit_inc = get_float(spec, "commit_inc", &err);
    double frontend_latency = get_float(spec, "frontend_latency", &err);
    double vmp = get_float(spec, "value_mispredict_penalty", &err);
    int64_t fetch_buffer_entries = get_int(spec, "fetch_buffer_entries", &err);
    int64_t rob_entries = get_int(spec, "rob_entries", &err);
    int64_t lsq_entries = get_int(spec, "lsq_entries", &err);
    int64_t block_bytes = get_int(spec, "block_bytes", &err);
    int64_t num_int = get_int(spec, "num_int_alus", &err);
    int64_t num_mem = get_int(spec, "num_mem_ports", &err);
    int64_t num_fp = get_int(spec, "num_fp_units", &err);
    int64_t num_regs = get_int(spec, "num_regs", &err);
    int64_t hist_capacity = get_int(spec, "hist_capacity", &err);
    int64_t hist_sample = get_int(spec, "hist_sample", &err);
    double bmp = get_float(spec, "branch_mispredict_penalty", &err);
    btb_t btb = {0};
    ras_t ras = {0};
    btb.sets = get_int(spec, "btb_sets", &err);
    btb.assoc = get_int(spec, "btb_assoc", &err);
    ras.depth = get_int(spec, "ras_depth", &err);
    if (err)
        return NULL;

    Py_buffer v_ba = {0}, v_flags = {0}, v_ea = {0}, v_lat = {0}, v_dst = {0};
    Py_buffer v_srcs = {0}, v_soff = {0}, v_ft = {0}, v_dt = {0}, v_ct = {0};
    Py_buffer v_cnt = {0}, v_hist = {0};
    Py_buffer v_sbd = {0}, v_seq = {0}, v_pc = {0};
    Py_buffer v_nxt = {0};
    Py_buffer v_bt = {0}, v_bg = {0}, v_bu = {0}, v_bc = {0};
    Py_buffer v_rs = {0}, v_rt = {0}, v_it = {0}, v_xt = {0};
    int64_t *ba = NULL, *flags = NULL, *ea = NULL, *dst = NULL;
    int64_t *srcs = NULL, *soff = NULL, *counters = NULL, *hist = NULL;
    int64_t *sb_dst = NULL, *seq = NULL, *pc = NULL, *nxt = NULL;
    double *lat = NULL, *fetch_times = NULL, *dispatch_times = NULL;
    double *commit_times = NULL;
    double *issue_times = NULL, *complete_times = NULL;
    unit_t *int_heap = NULL, *mem_heap = NULL, *fp_heap = NULL;
    double *reg_ready = NULL;
    int64_t *lsq_ring = NULL;
    uint8_t *validated = NULL;
    PyObject *ret = NULL;
    nmem_t mem;
    hunit_t hu = {0};
    clog_t log = {0};
    nt1_t t1 = {0};
    tage_t tg = {0};
    nbf_t bf = {0};
    nra_t ra = {0};

    if (nmem_open(PyDict_GetItemString(spec, "memory"), &mem) < 0 ||
        hunit_open(PyDict_GetItemString(spec, "hint_unit"), &hu) < 0 ||
        clog_open(PyDict_GetItemString(spec, "commit_log"), &log, n) < 0 ||
        t1_open(PyDict_GetItemString(spec, "t1"), &t1) < 0 ||
        tage_open(PyDict_GetItemString(spec, "tage"), &tg) < 0 ||
        bf_open(PyDict_GetItemString(spec, "bfetch"), &bf) < 0 ||
        ra_open(PyDict_GetItemString(spec, "runahead"), &ra) < 0)
        goto done;
    if (get_buffer(spec, "ba", &v_ba, (void **)&ba) < 0 ||
        get_buffer(spec, "flags", &v_flags, (void **)&flags) < 0 ||
        get_buffer(spec, "ea", &v_ea, (void **)&ea) < 0 ||
        get_buffer(spec, "lat", &v_lat, (void **)&lat) < 0 ||
        get_buffer(spec, "dst", &v_dst, (void **)&dst) < 0 ||
        get_buffer(spec, "srcs", &v_srcs, (void **)&srcs) < 0 ||
        get_buffer(spec, "srcs_off", &v_soff, (void **)&soff) < 0 ||
        get_buffer(spec, "sb_dst", &v_sbd, (void **)&sb_dst) < 0 ||
        get_buffer(spec, "seq", &v_seq, (void **)&seq) < 0 ||
        get_buffer(spec, "pc", &v_pc, (void **)&pc) < 0 ||
        get_buffer(spec, "fetch_times", &v_ft, (void **)&fetch_times) < 0 ||
        get_buffer(spec, "dispatch_times", &v_dt, (void **)&dispatch_times) < 0 ||
        get_buffer(spec, "commit_times", &v_ct, (void **)&commit_times) < 0 ||
        get_optional_buffer(spec, "issue_times", &v_it, (void **)&issue_times) < 0 ||
        get_optional_buffer(spec, "complete_times", &v_xt, (void **)&complete_times) < 0 ||
        get_buffer(spec, "counters", &v_cnt, (void **)&counters) < 0 ||
        get_buffer(spec, "hist", &v_hist, (void **)&hist) < 0 ||
        get_buffer(spec, "nxt", &v_nxt, (void **)&nxt) < 0 ||
        get_buffer(spec, "btb_tag", &v_bt, (void **)&btb.tag) < 0 ||
        get_buffer(spec, "btb_target", &v_bg, (void **)&btb.target) < 0 ||
        get_buffer(spec, "btb_use", &v_bu, (void **)&btb.use) < 0 ||
        get_buffer(spec, "btb_count", &v_bc, (void **)&btb.count) < 0 ||
        get_buffer(spec, "ras_stack", &v_rs, (void **)&ras.stack) < 0 ||
        get_buffer(spec, "ras_state", &v_rt, (void **)&ras.st) < 0)
        goto done;

    /* Declared load-miss log (CompiledHookSpec.load_miss_log): the kernel
     * appends (issue, trace index) for every load that misses the L1. */
    PyObject *miss_log = get_optional(spec, "load_miss_log");
    /* Wrong-path pollution (OutOfOrderCore._wrong_path_pollution), None
     * when not modelled: (decoded, executed, loads, stride) of one
     * redirect. */
    long long wp_decoded = 0, wp_executed = 0, wp_loads = 0, wp_stride = 0;
    PyObject *wrong_path = get_optional(spec, "wrong_path");
    if (wrong_path != NULL &&
        !PyArg_ParseTuple(wrong_path, "LLLL", &wp_decoded, &wp_executed,
                          &wp_loads, &wp_stride))
        goto done;

    if (num_int < 1) num_int = 1;
    if (num_mem < 1) num_mem = 1;
    if (num_fp < 1) num_fp = 1;
    int_heap = PyMem_Malloc(sizeof(unit_t) * num_int);
    mem_heap = PyMem_Malloc(sizeof(unit_t) * num_mem);
    fp_heap = PyMem_Malloc(sizeof(unit_t) * num_fp);
    reg_ready = PyMem_Malloc(sizeof(double) * (num_regs > 0 ? num_regs : 1));
    lsq_ring = PyMem_Malloc(sizeof(int64_t) * (lsq_entries > 0 ? lsq_entries : 1));
    validated = PyMem_Malloc(num_regs > 0 ? (size_t)num_regs : 1);
    if (!int_heap || !mem_heap || !fp_heap || !reg_ready || !lsq_ring ||
        !validated) {
        PyErr_NoMemory();
        goto done;
    }
    for (int64_t k = 0; k < num_int; k++) { int_heap[k].free_at = 0.0; int_heap[k].index = k; }
    for (int64_t k = 0; k < num_mem; k++) { mem_heap[k].free_at = 0.0; mem_heap[k].index = k; }
    for (int64_t k = 0; k < num_fp; k++) { fp_heap[k].free_at = 0.0; fp_heap[k].index = k; }
    for (int64_t k = 0; k < num_regs; k++) reg_ready[k] = start_cycle;
    memset(validated, 0, num_regs > 0 ? (size_t)num_regs : 1);

    double fetch_cursor = start_cycle;
    double fetch_redirect_at = start_cycle;
    double prev_dispatch = start_cycle;
    double prev_commit = start_cycle;
    int64_t current_block = -1;
    int have_block = 0;
    double block_ready = start_cycle;
    int64_t mem_count = 0;
    int64_t fetch_bound = 0;
    int64_t last_load = -1;    /* trace index of the latest load */
    /* hint-unit run state (written back after the loop) */
    double offset = 0.0, hint_stall = 0.0;
    int64_t fq_occ = 0, fq_pf = 0, fq_val = 0, reboots = 0;
    int64_t hb = 0, hv = 0, hp = 0, installed = 0, dropped = 0;
    if (hu.on) {
        offset = hu.state[H_OFFSET];
        fq_occ = (int64_t)hu.state[H_FQ_OCC];
        fq_pf = (int64_t)hu.state[H_FQ_PF];
        fq_val = (int64_t)hu.state[H_FQ_VAL];
        reboots = (int64_t)hu.state[H_REBOOTS];
        hb = (int64_t)hu.state[H_BRANCH];
        hv = (int64_t)hu.state[H_VALUE];
        hp = (int64_t)hu.state[H_PREFETCH];
    }
    int64_t n_log_b = 0, n_log_p = 0;

    for (int64_t i = 0; i < n; i++) {
        int64_t f = flags[i];

        /* ---------------- fetch ---------------- */
        double fetch_time =
            fetch_cursor > fetch_redirect_at ? fetch_cursor : fetch_redirect_at;
        if (i >= fetch_buffer_entries) {
            double fb_gate = dispatch_times[i - fetch_buffer_entries];
            if (fb_gate > fetch_time)
                fetch_time = fb_gate;
        }
        int64_t byte_address = ba[i];
        int64_t block = byte_address / block_bytes;
        if (!have_block || block != current_block) {
            counters[C_L1I_ACC]++;
            num_t got;
            int info;
            if (mem_inst(&mem, byte_address,
                         num_i((double)(int64_t)fetch_time), &got, &info) < 0)
                goto done;
            block_ready = got.v;
            if (info & 1)
                counters[C_L1I_MISS]++;
            current_block = block;
            have_block = 1;
        }
        if (block_ready > fetch_time)
            fetch_time = block_ready;

        int hint_present = 0, hint_correct = 0;
        int64_t hint_k = -1;   /* hint-unit branch column of this branch */
        if ((f & F_BRANCH) && hu.on) {
            /* BOQ delivery: available once produced and transferred, and
             * not before the entry ``boq`` branches back was consumed. */
            if (hb < hu.nb && hu.bseq[hb] == seq[i]) {
                hint_k = hb;
                double available = hu.btime[hb] + offset;
                if (hb >= hu.boq) {
                    double gate = hu.consumed[hb - hu.boq];
                    if (gate > available)
                        available = gate;
                }
                hint_present = 1;
                hint_correct = hu.bok[hb] != 0;
                if (available > fetch_time) {
                    hint_stall += available - fetch_time;
                    fetch_time = available;
                }
            }
        }

        fetch_times[i] = fetch_time;
        fetch_cursor = fetch_time + fetch_inc;
        if (hu.on) {
            /* Prefetch hints due by now: one FQ entry each, installed
             * (MainThreadHintSource.install); then the branch's BOQ entry
             * is consumed. */
            while (hp < hu.np && hu.ptime[hp] + offset <= fetch_time) {
                if (fq_occ < hu.fq_cap) {
                    fq_occ++;
                    fq_pf++;
                }
                num_t available = num_i((double)(int64_t)(hu.ptime[hp] + offset));
                num_t ignored;
                if (mem_prefetch(&mem, hu.paddr[hp], available, 1, &ignored))
                    installed++;
                else
                    dropped++;
                mem_prefill_tlb(&mem, hu.paddr[hp], available);
                hp++;
            }
            if (mem.e.err)
                goto done;
            if (hint_k >= 0) {
                hu.consumed[hint_k] = fetch_time;
                hb++;
            }
        } else if (bf.on) {
            counters[C_BFETCH_FETCHES]++;
            if (bf_fetch(&bf, &mem, f, pc[i], ea[i], fetch_time) < 0 ||
                mem.e.err)
                goto done;
        }

        /* ---------------- dispatch ---------------- */
        double dispatch_time = fetch_time + frontend_latency;
        double lane_gate = prev_dispatch + dispatch_inc;
        if (lane_gate > dispatch_time)
            dispatch_time = lane_gate;
        if (i >= rob_entries) {
            double rob_gate = commit_times[i - rob_entries];
            if (rob_gate > dispatch_time)
                dispatch_time = rob_gate;
        }
        if (f & F_MEM) {
            if (mem_count >= lsq_entries) {
                double lsq_gate = commit_times[lsq_ring[mem_count % lsq_entries]];
                if (lsq_gate > dispatch_time)
                    dispatch_time = lsq_gate;
            }
            lsq_ring[mem_count % lsq_entries] = i;
            mem_count++;
        }
        dispatch_times[i] = dispatch_time;
        if (dispatch_time - fetch_time <= frontend_latency + 1e-9)
            fetch_bound++;
        prev_dispatch = dispatch_time;
        counters[C_DECODED]++;

        /* ---------------- value reuse ---------------- */
        int mode = 0;
        if (hu.on && hu.nv > 0) {
            /* Value delivery (one FQ entry per prediction) and the
             * validation scoreboard, which the reference runs for *every*
             * instruction.  Mirrors
             * dla.value_reuse.ValidationScoreboard.process_code. */
            int has_pred = 0, correct = 0;
            double available = 0.0;
            if (hv < hu.nv && hu.vseq[hv] == seq[i]) {
                int verdict = hu.vverdict[hv];
                if (verdict != 0) {
                    has_pred = 1;
                    correct = verdict == 1;
                    available = hu.vtime[hv] + offset;
                    if (fq_occ < hu.fq_cap) {
                        fq_occ++;
                        fq_val++;
                    }
                }
                hv++;
            }
            int skippable = (f & F_SKIPPABLE) != 0;
            int skip = 0;
            int64_t s0 = soff[i], s1 = soff[i + 1];
            if (has_pred && skippable && s1 > s0) {
                skip = 1;
                for (int64_t s = s0; s < s1; s++)
                    if (!validated[srcs[s]]) { skip = 0; break; }
                if (skip)
                    counters[C_SB_SKIP]++;
                else
                    counters[C_SB_VALID]++;
            } else if (has_pred) {
                counters[C_SB_VALID]++;
            }
            if (sb_dst[i] >= 0)
                validated[sb_dst[i]] = (has_pred && skippable) ? 1 : 0;
            if (has_pred && available <= dispatch_time)
                mode = (skip && correct) ? 1 : (correct ? 2 : 3);
        }

        /* ---------------- issue / execute ---------------- */
        double ready = dispatch_time + 1.0;
        for (int64_t s = soff[i]; s < soff[i + 1]; s++) {
            double src_ready = reg_ready[srcs[s]];
            if (src_ready > ready)
                ready = src_ready;
        }

        int executed = 1;
        double complete;
        if (mode == 1) {
            complete = dispatch_time + 1.0;
            executed = 0;
            counters[C_VALID_SKIP]++;
        } else if (f & F_MEM) {
            double issue = heap_reserve(mem_heap, (int)num_mem, ready, 1.0);
            if (f & F_LOAD) {
                counters[C_L1D_ACC]++;
                num_t now = num_i((double)(int64_t)issue), got;
                int info;
                if (mem_data(&mem, ea[i], now, 0, &got, &info) < 0)
                    goto done;
                complete = got.v;
                mem_train(&mem, ea[i], info, now);
                if (ra.on) {
                    int stepped = ra_load(&ra, &mem, pc[i], now);
                    if (stepped < 0)
                        goto done;
                    counters[C_CRE_STEPS] += stepped;
                }
                if (mem.e.err)
                    goto done;
                if (info & 1) {
                    counters[C_L1D_MISS]++;
                    if (info & 2)
                        counters[C_L2_MISS]++;
                    if (miss_log != NULL) {
                        PyObject *item = Py_BuildValue("(dL)", issue,
                                                       (long long)i);
                        if (item == NULL)
                            goto done;
                        int bad = PyList_Append(miss_log, item);
                        Py_DECREF(item);
                        if (bad < 0)
                            goto done;
                    }
                }
                if (info & 4)
                    counters[C_DRAM]++;
                last_load = i;
            } else {
                complete = issue + 1.0;
            }
        } else {
            double latency = lat[i];
            double issue;
            if (f & F_FP)
                issue = heap_reserve(fp_heap, (int)num_fp, ready, latency);
            else
                issue = heap_reserve(int_heap, (int)num_int, ready, 1.0);
            complete = issue + latency;
        }

        if (mode >= 2) {
            counters[C_VP_USED]++;
            if (mode == 2) {
                if (f & F_WRITES)
                    reg_ready[dst[i]] = dispatch_time + 1.0;
            } else {
                counters[C_VP_MISS]++;
                complete += vmp;
                if (f & F_WRITES)
                    reg_ready[dst[i]] = complete;
            }
        } else {
            if (f & F_WRITES)
                reg_ready[dst[i]] = mode == 1 ? dispatch_time + 1.0 : complete;
        }

        if (executed)
            counters[C_EXECUTED]++;
        if (issue_times != NULL && complete_times != NULL) {
            /* The reference's issue timestamp (not the FU reservation
             * start): complete minus the op latency, loads excepted. */
            issue_times[i] = executed
                ? complete - ((f & F_LOAD) ? 0.0 : lat[i]) : complete;
            complete_times[i] = complete;
        }

        /* ---------------- control flow ---------------- */
        if (f & F_CONTROL) {
            /* OutOfOrderCore._handle_control */
            double redirect = 0.0;
            int have_redirect = 0;
            int64_t pc_ = pc[i];
            int tk = (f & F_TAKEN) != 0;
            if (f & F_BRANCH) {
                counters[C_BRANCHES]++;
                if (hint_present) {
                    /* A unit's hint carries its target (has_target), so a
                     * correct one costs nothing. */
                    if (!hint_correct) {
                        counters[C_BR_MISPRED]++;
                        counters[C_HINT_MISPRED]++;
                        /* Look-ahead reboot: later hints shift by the
                         * penalty plus the re-execution; FQ flushed. */
                        double shifted = complete + hu.penalty - hu.btime[hint_k];
                        if (shifted > offset)
                            offset = shifted;
                        fq_occ = 0;
                        reboots++;
                        redirect = complete + bmp;
                        have_redirect = 1;
                    }
                } else {
                    int predicted = tage_predict_update(&tg, pc_, tk);
                    if (predicted != tk) {
                        counters[C_BR_MISPRED]++;
                        redirect = complete + bmp;
                        have_redirect = 1;
                    } else if (tk) {
                        if (!btb_contains(&btb, pc_)) {
                            counters[C_BTB_MISS]++;
                            btb_update(&btb, pc_, nxt[i], (int64_t)complete);
                            redirect = fetch_time + 3.0;
                            have_redirect = 1;
                        } else {
                            btb_update(&btb, pc_, nxt[i], (int64_t)complete);
                        }
                    }
                }
            } else if (f & F_CALL) {
                ras_push(&ras, pc_ + 1);
                if (!btb_contains(&btb, pc_)) {
                    counters[C_BTB_MISS]++;
                    btb_update(&btb, pc_, nxt[i], (int64_t)complete);
                    redirect = fetch_time + 3.0;
                    have_redirect = 1;
                }
            } else if (f & F_RET) {
                int64_t predicted_target = 0;
                int have = ras_pop(&ras, &predicted_target);
                if (!have || predicted_target != nxt[i]) {
                    counters[C_BR_MISPRED]++;
                    redirect = complete + bmp;
                    have_redirect = 1;
                }
            } else {
                if (!btb_contains(&btb, pc_)) {
                    counters[C_BTB_MISS]++;
                    btb_update(&btb, pc_, nxt[i], (int64_t)complete);
                    redirect = fetch_time + 2.0;
                    have_redirect = 1;
                }
            }
            if (have_redirect) {
                if (redirect > fetch_redirect_at)
                    fetch_redirect_at = redirect;
                if (wrong_path != NULL) {
                    /* OutOfOrderCore._wrong_path_pollution */
                    counters[C_DECODED] += wp_decoded;
                    counters[C_EXECUTED] += wp_executed;
                    if (last_load >= 0) {
                        int64_t base = ea[last_load];
                        num_t now = num_i((double)(int64_t)fetch_time), got;
                        int info;
                        for (int64_t k = 0; k < wp_loads; k++)
                            if (mem_data(&mem, base + (k + 1) * wp_stride, now,
                                         0, &got, &info) < 0)
                                goto done;
                    }
                }
            }
        }

        /* ---------------- commit ---------------- */
        double commit_time = prev_commit + commit_inc;
        if (complete > commit_time)
            commit_time = complete;
        commit_times[i] = commit_time;
        prev_commit = commit_time;
        counters[C_COMMITTED]++;

        if (f & F_STORE) {
            counters[C_L1D_ACC]++;
            num_t now = num_i((double)(int64_t)commit_time), got;
            int info;
            if (mem_data(&mem, ea[i], now, 1, &got, &info) < 0)
                goto done;
            mem_train(&mem, ea[i], info, now);
            if (mem.e.err)
                goto done;
            if (info & 1) {
                counters[C_L1D_MISS]++;
                if (info & 2)
                    counters[C_L2_MISS]++;
            }
            if (info & 4)
                counters[C_DRAM]++;
        }

        if (log.on) {
            if (f & F_BRANCH) {
                log.bidx[n_log_b] = i;
                log.btime[n_log_b++] = commit_time;
            }
            if (log.npcs && in_sorted(log.pcs, log.npcs, pc[i])) {
                log.pidx[n_log_p] = i;
                log.ptime[n_log_p++] = commit_time;
            }
        }

        if (t1.on && (f & F_LOAD) && in_sorted(t1.marked, t1.nmarked, pc[i])) {
            counters[C_T1_COMMITS]++;
            t1_commit(&t1, &mem, pc[i], ea[i], commit_time);
            if (mem.e.err)
                goto done;
        }
    }

    counters[C_FETCH_BOUND] = fetch_bound;
    counters[C_TICKS] = n;
    counters[C_NATIVE_HITS] = mem.hits;
    counters[C_NATIVE_MISSES] = mem.missed;
    counters[C_LOG_BRANCHES] = n_log_b;
    counters[C_LOG_PCS] = n_log_p;
    if (hu.on) {
        hu.state[H_OFFSET] = offset;
        hu.state[H_FQ_OCC] = (double)fq_occ;
        hu.state[H_FQ_PF] = (double)fq_pf;
        hu.state[H_FQ_VAL] = (double)fq_val;
        hu.state[H_REBOOTS] = (double)reboots;
        hu.state[H_BRANCH] = (double)hb;
        hu.state[H_VALUE] = (double)hv;
        hu.state[H_PREFETCH] = (double)hp;
        hu.state[H_STALL] = hint_stall;
        hu.state[H_INSTALLED] = (double)installed;
        hu.state[H_DROPPED] = (double)dropped;
    }

    /* ---------------- fetch-queue histogram ---------------- */
    for (int64_t i = 0; i < n; i += hist_sample) {
        double x = dispatch_times[i];
        int64_t lo = i, hi = n;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (x < fetch_times[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        int64_t occupancy = lo - i - 1;
        if (occupancy < 0)
            occupancy = 0;
        if (occupancy > hist_capacity)
            occupancy = hist_capacity;
        hist[occupancy]++;
    }

    ret = Py_NewRef(Py_None);
done:
    PyMem_Free(int_heap);
    PyMem_Free(mem_heap);
    PyMem_Free(fp_heap);
    PyMem_Free(reg_ready);
    PyMem_Free(lsq_ring);
    PyMem_Free(validated);
    nmem_close(&mem);
    hunit_close(&hu);
    clog_close(&log);
    t1_close(&t1);
    tage_close(&tg);
    bf_close(&bf);
    ra_close(&ra);
    Py_buffer *views[] = {
        &v_sbd, &v_seq, &v_pc, &v_ba, &v_flags, &v_ea, &v_lat, &v_dst,
        &v_srcs, &v_soff, &v_ft, &v_dt, &v_ct, &v_it, &v_xt, &v_cnt, &v_hist,
        &v_nxt, &v_bt, &v_bg, &v_bu, &v_bc, &v_rs, &v_rt};
    for (size_t k = 0; k < sizeof(views) / sizeof(views[0]); k++)
        if (views[k]->obj) PyBuffer_Release(views[k]);
    return ret;
}

/* ------------------------------------------------------------------ */
/* Warm-up replay: repro.core.system._replay_warmup's loop on a stock   */
/* hierarchy.  Same accesses in the same order and pacing.  Flags       */
/* beyond the decoded ones add the other memory operations, so an       */
/* access stream can drive every native path: R_TRAIN trains the L2     */
/* prefetcher on the data access, R_PF_L1 / R_PF_L2 prefetch ``ea``     */
/* into that level and R_PREFILL prefills its translation.  Returns     */
/* (native hits, native misses).                                        */
/* ------------------------------------------------------------------ */
#define R_TRAIN   2048
#define R_PF_L1   4096
#define R_PF_L2   8192
#define R_PREFILL 16384

static PyObject *
replay_warmup(PyObject *self, PyObject *args)
{
    PyObject *spec;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &spec))
        return NULL;
    int err = 0;
    int64_t n = get_int(spec, "n", &err);
    int64_t block_bytes = get_int(spec, "block_bytes", &err);
    int64_t pace = get_int(spec, "cycles_per_access", &err);
    if (err)
        return NULL;

    Py_buffer v_ba = {0}, v_flags = {0}, v_ea = {0};
    int64_t *ba = NULL, *flags = NULL, *ea = NULL;
    nmem_t mem;
    PyObject *ret = NULL;

    if (nmem_open(PyDict_GetItemString(spec, "memory"), &mem) < 0 ||
        get_buffer(spec, "ba", &v_ba, (void **)&ba) < 0 ||
        get_buffer(spec, "flags", &v_flags, (void **)&flags) < 0 ||
        get_buffer(spec, "ea", &v_ea, (void **)&ea) < 0)
        goto done;

    int64_t cycle = 0, last_block = 0;
    int have_block = 0;
    num_t ready;
    int info;
    for (int64_t i = 0; i < n; i++) {
        int64_t address = ba[i];
        int64_t block = address / block_bytes;
        num_t now = num_i((double)cycle);
        if (!have_block || block != last_block) {
            last_block = block;
            have_block = 1;
            if (mem_inst(&mem, address, now, &ready, &info) < 0)
                goto done;
        }
        int64_t f = flags[i];
        if (f & (F_LOAD | F_STORE)) {
            int is_write = (f & F_LOAD) == 0;
            if (mem_data(&mem, ea[i], now, is_write, &ready, &info) < 0)
                goto done;
            if (f & R_TRAIN)
                mem_train(&mem, ea[i], info, now);
        }
        if (f & R_PF_L1)
            mem_prefetch(&mem, ea[i], now, 1, &ready);
        if (f & R_PF_L2)
            mem_prefetch(&mem, ea[i], now, 0, &ready);
        if (f & R_PREFILL)
            mem_prefill_tlb(&mem, ea[i], now);
        if (mem.e.err)
            goto done;
        cycle += pace;
    }
    ret = Py_BuildValue("(LL)", (long long)mem.hits, (long long)mem.missed);
done:
    nmem_close(&mem);
    if (v_ba.obj) PyBuffer_Release(&v_ba);
    if (v_flags.obj) PyBuffer_Release(&v_flags);
    if (v_ea.obj) PyBuffer_Release(&v_ea);
    return ret;
}

/* ------------------------------------------------------------------ */
/* Trace columns: decode, selection and profiling.                      */
/*                                                                      */
/* A window is its TraceColumns (emulator/trace.py): pc ('i'), ea and   */
/* result ('q'), flags ('B', the T_* bits), next_pc ('i') and an        */
/* optional explicit seq column ('q'; else row k has seq seq0 + k).     */
/* Decoding reads its program's static table (core/compile/decoded.py:: */
/* StaticTable, one row per PC) at each row's pc.  No DynamicInst is    */
/* read or built.                                                       */
/* ------------------------------------------------------------------ */
enum { TC_PC, TC_EA, TC_RESULT, TC_FLAGS, TC_NEXT, TC_SEQ, TC_VIEWS };
static const char *const TC_KEYS[TC_VIEWS] = {
    "pc", "ea", "result", "tflags", "next_pc", "seq"};
static const Py_ssize_t TC_WIDTHS[TC_VIEWS] = {4, 8, 8, 1, 4, 8};

typedef struct {
    Py_buffer views[TC_VIEWS];
    const int32_t *pc, *next;
    const int64_t *ea, *result, *seq;   /* result, seq: NULL when absent */
    const uint8_t *flags;
    int64_t n, seq0;
} tcols_t;

/* The columns of ``spec``; every one but pc, ea and tflags may be None. */
static int
tcols_open(PyObject *spec, tcols_t *c)
{
    memset(c, 0, sizeof(*c));
    void *ptr[TC_VIEWS];
    for (int k = 0; k < TC_VIEWS; k++) {
        int required = k == TC_PC || k == TC_EA || k == TC_FLAGS;
        if ((required ? get_buffer(spec, TC_KEYS[k], &c->views[k], &ptr[k])
                      : get_optional_buffer(spec, TC_KEYS[k], &c->views[k],
                                            &ptr[k])) < 0)
            return -1;
    }
    c->n = c->views[TC_FLAGS].len;
    for (int k = 0; k < TC_VIEWS; k++) {
        if (ptr[k] != NULL && c->views[k].len != c->n * TC_WIDTHS[k]) {
            PyErr_Format(PyExc_ValueError, "trace column %s does not match "
                         "the window's %lld rows", TC_KEYS[k],
                         (long long)c->n);
            return -1;
        }
    }
    int err = 0;
    c->seq0 = get_int(spec, "seq0", &err);
    if (err)
        return -1;
    c->pc = ptr[TC_PC];
    c->ea = ptr[TC_EA];
    c->result = ptr[TC_RESULT];
    c->flags = ptr[TC_FLAGS];
    c->next = ptr[TC_NEXT];
    c->seq = ptr[TC_SEQ];
    return 0;
}

static void
tcols_close(tcols_t *c)
{
    for (int k = 0; k < TC_VIEWS; k++)
        if (c->views[k].obj) PyBuffer_Release(&c->views[k]);
}

/* A program's static table: per PC its byte address, decoded flags,
 * latency, destination, scoreboard destination, highest register, and
 * its sources (srcs[off[pc]:off[pc + 1]]). */
enum { ST_BA, ST_FLAGS, ST_LAT, ST_DST, ST_SB, ST_MAX, ST_SRCS, ST_OFF,
       ST_VIEWS };
static const char *const ST_KEYS[ST_VIEWS] = {
    "s_ba", "s_flags", "s_lat", "s_dst", "s_sb", "s_max", "s_srcs", "s_off"};

typedef struct {
    Py_buffer views[ST_VIEWS];
    const int64_t *ba, *flags, *dst, *sb, *max, *srcs, *off;
    const double *lat;
    int64_t n, nsrcs;
} stab_t;

static int
stab_open(PyObject *spec, stab_t *t)
{
    memset(t, 0, sizeof(*t));
    void *ptr[ST_VIEWS];
    for (int k = 0; k < ST_VIEWS; k++)
        if (get_buffer(spec, ST_KEYS[k], &t->views[k], &ptr[k]) < 0)
            return -1;
    t->n = t->views[ST_FLAGS].len / 8;
    t->nsrcs = t->views[ST_SRCS].len / 8;
    t->ba = ptr[ST_BA];
    t->flags = ptr[ST_FLAGS];
    t->lat = ptr[ST_LAT];
    t->dst = ptr[ST_DST];
    t->sb = ptr[ST_SB];
    t->max = ptr[ST_MAX];
    t->srcs = ptr[ST_SRCS];
    t->off = ptr[ST_OFF];
    int ok = t->views[ST_OFF].len == (t->n + 1) * 8 && t->off[0] == 0;
    for (int k = 0; k < ST_OFF; k++)
        if (k != ST_SRCS && t->views[k].len != t->n * 8)
            ok = 0;
    for (int64_t p = 0; ok && p < t->n; p++)
        if (t->off[p + 1] < t->off[p] || t->off[p + 1] > t->nsrcs)
            ok = 0;
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "malformed static table");
        return -1;
    }
    return 0;
}

static void
stab_close(stab_t *t)
{
    for (int k = 0; k < ST_VIEWS; k++)
        if (t->views[k].obj) PyBuffer_Release(&t->views[k]);
}

static int
row_pc(const tcols_t *c, int64_t i, int64_t nstatic)
{
    int64_t p = c->pc[i];
    if (p < 0 || p >= nstatic) {
        PyErr_Format(PyExc_IndexError, "pc %lld of row %lld is outside the "
                     "static table", (long long)p, (long long)i);
        return -1;
    }
    return 0;
}

/* A fresh zeroed bytes object of ``count`` items of ``width`` bytes. */
static PyObject *
new_column(int64_t count, int64_t width, char **data)
{
    PyObject *out = PyBytes_FromStringAndSize(NULL, count * width);
    if (out != NULL) {
        *data = PyBytes_AS_STRING(out);
        memset(*data, 0, count * width);
    }
    return out;
}

/* decoded.decode_trace: the window's DecodedTrace columns, gathered from
 * the static table at each row's pc plus the row's own ea, taken bit,
 * next_pc and seq.  Returns (ba, flags, ea, lat, dst, sb_dst, srcs,
 * srcs_off, seq, pcs, nxt) as bytes, and num_regs (the window's highest
 * register + 1). */
#define G_COLUMNS 11
static PyObject *
gather_decoded(PyObject *self, PyObject *args)
{
    PyObject *spec;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &spec))
        return NULL;
    stab_t t;
    tcols_t c;
    PyObject *cols[G_COLUMNS] = {NULL};
    PyObject *ret = NULL;
    if (stab_open(spec, &t) < 0 || tcols_open(spec, &c) < 0)
        goto done;
    int64_t n = c.n, nsrc = 0, max_reg = 0;
    for (int64_t i = 0; i < n; i++) {
        if (row_pc(&c, i, t.n) < 0)
            goto done;
        int64_t p = c.pc[i];
        nsrc += t.off[p + 1] - t.off[p];
        if (t.max[p] > max_reg)
            max_reg = t.max[p];
    }
    char *data[G_COLUMNS];
    for (int k = 0; k < G_COLUMNS; k++) {
        /* srcs keeps one item, so its buffer is never empty */
        int64_t count = k == 6 ? (nsrc > 0 ? nsrc : 1) : k == 7 ? n + 1 : n;
        if ((cols[k] = new_column(count, 8, &data[k])) == NULL)
            goto done;
    }
    int64_t *ba = (int64_t *)data[0], *flags = (int64_t *)data[1];
    int64_t *ea = (int64_t *)data[2], *dst = (int64_t *)data[4];
    double *lat = (double *)data[3];
    int64_t *sb = (int64_t *)data[5], *srcs = (int64_t *)data[6];
    int64_t *off = (int64_t *)data[7], *seq = (int64_t *)data[8];
    int64_t *pcs = (int64_t *)data[9], *nxt = (int64_t *)data[10];
    int64_t cursor = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t p = c.pc[i];
        ba[i] = t.ba[p];
        flags[i] = t.flags[p] | ((c.flags[i] & T_TAKEN) ? F_TAKEN : 0);
        ea[i] = c.ea[i];
        lat[i] = t.lat[p];
        dst[i] = t.dst[p];
        sb[i] = t.sb[p];
        off[i] = cursor;
        for (int64_t k = t.off[p]; k < t.off[p + 1]; k++)
            srcs[cursor++] = t.srcs[k];
        seq[i] = c.seq != NULL ? c.seq[i] : c.seq0 + i;
        pcs[i] = p;
        nxt[i] = c.next != NULL ? c.next[i] : 0;
    }
    off[n] = cursor;
    ret = Py_BuildValue("(OOOOOOOOOOOL)", cols[0], cols[1], cols[2], cols[3],
                        cols[4], cols[5], cols[6], cols[7], cols[8], cols[9],
                        cols[10], (long long)(max_reg + 1));
done:
    for (int k = 0; k < G_COLUMNS; k++)
        Py_XDECREF(cols[k]);
    stab_close(&t);
    tcols_close(&c);
    return ret;
}

/* TraceColumns.select: the rows whose pc is set in ``mask`` (one byte per
 * PC; a pc past its end is not selected), in order.  Returns their (pc,
 * ea, result, flags, next_pc, seq) columns as bytes; seq always carries
 * each row's own seq. */
#define S_COLUMNS 6
static PyObject *
select_rows(PyObject *self, PyObject *args)
{
    PyObject *spec;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &spec))
        return NULL;
    Py_buffer v_mask = {0};
    const uint8_t *mask = NULL;
    tcols_t c;
    PyObject *cols[S_COLUMNS] = {NULL};
    PyObject *ret = NULL;
    memset(&c, 0, sizeof(c));
    if (get_buffer(spec, "mask", &v_mask, (void **)&mask) < 0 ||
        tcols_open(spec, &c) < 0)
        goto done;
    if (c.result == NULL || c.next == NULL) {
        PyErr_SetString(PyExc_ValueError, "select_rows needs every column");
        goto done;
    }
    int64_t m = v_mask.len, kept = 0;
    for (int64_t i = 0; i < c.n; i++)
        kept += c.pc[i] >= 0 && c.pc[i] < m && mask[c.pc[i]];
    static const int64_t widths[S_COLUMNS] = {4, 8, 8, 1, 4, 8};
    char *data[S_COLUMNS];
    for (int k = 0; k < S_COLUMNS; k++)
        if ((cols[k] = new_column(kept, widths[k], &data[k])) == NULL)
            goto done;
    int32_t *pc = (int32_t *)data[0], *next = (int32_t *)data[4];
    int64_t *ea = (int64_t *)data[1], *result = (int64_t *)data[2];
    uint8_t *flags = (uint8_t *)data[3];
    int64_t *seq = (int64_t *)data[5];
    int64_t j = 0;
    for (int64_t i = 0; i < c.n; i++) {
        int64_t p = c.pc[i];
        if (p < 0 || p >= m || !mask[p])
            continue;
        pc[j] = c.pc[i];
        ea[j] = c.ea[i];
        result[j] = c.result[i];
        flags[j] = c.flags[i];
        next[j] = c.next[i];
        seq[j] = c.seq != NULL ? c.seq[i] : c.seq0 + i;
        j++;
    }
    ret = Py_BuildValue("(OOOOOO)", cols[0], cols[1], cols[2], cols[3],
                        cols[4], cols[5]);
done:
    for (int k = 0; k < S_COLUMNS; k++)
        Py_XDECREF(cols[k]);
    if (v_mask.obj) PyBuffer_Release(&v_mask);
    tcols_close(&c);
    return ret;
}

/* One (delta, first position) pair of a PC's address deltas. */
typedef struct { int64_t delta, pos; } delta_t;

static int
delta_order(const void *a, const void *b)
{
    const delta_t *x = a, *y = b;
    if (x->delta != y->delta)
        return x->delta < y->delta ? -1 : 1;
    return x->pos < y->pos ? -1 : x->pos > y->pos;
}

/* profiling._dominant_stride over one PC's deltas (sorted in place):
 * the most common delta, ties to the one seen first. */
static void
dominant_stride(delta_t *d, int64_t k, int64_t *stride, int64_t *hits)
{
    qsort(d, (size_t)k, sizeof(delta_t), delta_order);
    int64_t best = 0, best_count = 0, best_pos = 0;
    for (int64_t g = 0; g < k;) {
        int64_t h = g;
        while (h < k && d[h].delta == d[g].delta)
            h++;
        int64_t count = h - g, first = d[g].pos;
        if (count > best_count || (count == best_count && first < best_pos)) {
            best = d[g].delta;
            best_count = count;
            best_pos = first;
        }
        g = h;
    }
    *stride = best;
    *hits = best_count;
}

/* dla.profiling.profile_workload's passes over a training window: per-PC
 * execution counts (and the order of first execution), the memory
 * accesses run in order through a cold native hierarchy (``memory``) at
 * the profiler's pacing with their L1/L2 misses counted per PC, per-PC
 * dominant address strides, taken counts of branches and the loop
 * branches in the order they were first taken backwards, and the
 * register-dependence fan-out (consumers per producer PC, in the order
 * each producer gained its first).  Fills the caller's per-PC output
 * arrays; returns (executed PCs, producers, loop branches, native hits,
 * native misses).  An address delta that overflows int64 raises
 * OverflowError (the Python reference then carries the profile). */
enum { P_COUNTS, P_ORDER, P_L1, P_L2, P_TAKEN, P_STRIDE, P_HITS, P_DELTAS,
       P_DEPENDENTS, P_DEP_ORDER, P_LOOP_ORDER, P_BACKWARD, P_OUTPUTS };
static const char *const P_KEYS[P_OUTPUTS] = {
    "counts", "order", "l1", "l2", "taken", "stride", "stride_hits",
    "deltas", "dependents", "dep_order", "loop_order", "backward"};

static PyObject *
profile_columns(PyObject *self, PyObject *args)
{
    PyObject *spec;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &spec))
        return NULL;
    stab_t t;
    tcols_t c;
    nmem_t mem;
    Py_buffer views[P_OUTPUTS];
    void *ptr[P_OUTPUTS];
    int64_t *last = NULL, *writer = NULL, *bucket = NULL;
    uint8_t *seen = NULL;
    delta_t *deltas = NULL, *sorted = NULL;
    PyObject *ret = NULL;
    memset(views, 0, sizeof(views));
    memset(&c, 0, sizeof(c));
    memset(&t, 0, sizeof(t));
    memset(&mem, 0, sizeof(mem));
    if (stab_open(spec, &t) < 0 || tcols_open(spec, &c) < 0 ||
        nmem_open(PyDict_GetItemString(spec, "memory"), &mem) < 0)
        goto done;
    int64_t ns = t.n, n = c.n;
    for (int k = 0; k < P_OUTPUTS; k++) {
        PyObject *obj = PyDict_GetItemString(spec, P_KEYS[k]);
        if (obj == NULL) {
            PyErr_Format(PyExc_KeyError, "missing buffer %s", P_KEYS[k]);
            goto done;
        }
        int flags = k == P_BACKWARD ? PyBUF_SIMPLE : PyBUF_WRITABLE;
        if (PyObject_GetBuffer(obj, &views[k], flags) < 0)
            goto done;
        ptr[k] = views[k].buf;
        if (views[k].len != ns * (k == P_BACKWARD ? 1 : 8)) {
            PyErr_Format(PyExc_ValueError, "profile column %s needs one item "
                         "per PC", P_KEYS[k]);
            goto done;
        }
    }
    int64_t *counts = ptr[P_COUNTS], *order = ptr[P_ORDER];
    int64_t *l1 = ptr[P_L1], *l2 = ptr[P_L2], *taken = ptr[P_TAKEN];
    int64_t *stride = ptr[P_STRIDE], *hits = ptr[P_HITS];
    int64_t *ndeltas = ptr[P_DELTAS], *dependents = ptr[P_DEPENDENTS];
    int64_t *dep_order = ptr[P_DEP_ORDER], *loop_order = ptr[P_LOOP_ORDER];
    const uint8_t *backward = ptr[P_BACKWARD];
    int64_t num_regs = 1;
    for (int64_t p = 0; p < ns; p++)
        if (t.max[p] + 1 > num_regs)
            num_regs = t.max[p] + 1;
    last = PyMem_Calloc(ns > 0 ? (size_t)ns : 1, sizeof(int64_t));
    seen = PyMem_Calloc(ns > 0 ? (size_t)ns : 1, 2);
    writer = PyMem_Malloc((size_t)num_regs * sizeof(int64_t));
    deltas = PyMem_Malloc((n > 0 ? (size_t)n : 1) * sizeof(delta_t));
    if (!last || !seen || !writer || !deltas) {
        PyErr_NoMemory();
        goto done;
    }
    uint8_t *has_last = seen, *looped = seen + ns;
    for (int64_t r = 0; r < num_regs; r++)
        writer[r] = -1;
    int64_t executed = 0, producers = 0, loops = 0, nd = 0, cycle = 0;
    for (int64_t i = 0; i < n; i++) {
        if (row_pc(&c, i, ns) < 0)
            goto done;
        int64_t p = c.pc[i], f = t.flags[p];
        if (counts[p]++ == 0)
            order[executed++] = p;
        if (f & F_MEM) {
            int64_t address = c.ea[i];
            num_t ready;
            int info;
            if (mem_data(&mem, address, num_i((double)cycle),
                         (f & F_LOAD) == 0, &ready, &info) < 0)
                goto done;
            if (info & 1) {
                l1[p]++;
                if (info & 2)
                    l2[p]++;
            }
            if (has_last[p]) {
                int64_t delta;
                if (__builtin_sub_overflow(address, last[p], &delta)) {
                    PyErr_SetString(PyExc_OverflowError,
                                    "address delta overflows int64");
                    goto done;
                }
                deltas[nd].delta = delta;
                deltas[nd].pos = p;     /* the PC, until bucketed below */
                nd++;
            }
            has_last[p] = 1;
            last[p] = address;
            cycle += 2;
        } else {
            if ((f & F_BRANCH) && (c.flags[i] & T_TAKEN)) {
                taken[p]++;
                if (backward[p] && !looped[p]) {
                    looped[p] = 1;
                    loop_order[loops++] = p;
                }
            }
            cycle += 1;
        }
        for (int64_t k = t.off[p]; k < t.off[p + 1]; k++) {
            int64_t src = t.srcs[k];
            int64_t w = src >= 0 && src < num_regs ? writer[src] : -1;
            if (w >= 0 && dependents[w]++ == 0)
                dep_order[producers++] = w;
        }
        if ((f & F_WRITES) && t.dst[p] >= 0 && t.dst[p] < num_regs)
            writer[t.dst[p]] = p;
    }
    /* Bucket the deltas by PC, in program order within a PC, then take
     * each PC's dominant stride. */
    bucket = PyMem_Calloc((size_t)ns + 1, sizeof(int64_t));
    sorted = PyMem_Malloc((nd > 0 ? (size_t)nd : 1) * sizeof(delta_t));
    if (!bucket || !sorted) {
        PyErr_NoMemory();
        goto done;
    }
    for (int64_t k = 0; k < nd; k++)
        ndeltas[deltas[k].pos]++;
    for (int64_t p = 0; p < ns; p++)
        bucket[p + 1] = bucket[p] + ndeltas[p];
    for (int64_t k = 0; k < nd; k++) {
        int64_t p = deltas[k].pos, slot = bucket[p]++;
        sorted[slot].delta = deltas[k].delta;
        sorted[slot].pos = slot;
    }
    for (int64_t p = 0, start = 0; p < ns; start += ndeltas[p], p++)
        if (ndeltas[p])
            dominant_stride(sorted + start, ndeltas[p], &stride[p], &hits[p]);
    if (mem.e.err)
        goto done;
    ret = Py_BuildValue("(LLLLL)", (long long)executed, (long long)producers,
                        (long long)loops, (long long)mem.hits,
                        (long long)mem.missed);
done:
    PyMem_Free(last);
    PyMem_Free(seen);
    PyMem_Free(writer);
    PyMem_Free(deltas);
    PyMem_Free(bucket);
    PyMem_Free(sorted);
    for (int k = 0; k < P_OUTPUTS; k++)
        if (views[k].obj) PyBuffer_Release(&views[k]);
    nmem_close(&mem);
    stab_close(&t);
    tcols_close(&c);
    return ret;
}

/* ------------------------------------------------------------------ */
/* Functional emulation: repro.emulator.machine.Emulator's loop.        */
/*                                                                      */
/* Runs a program from its entry point to HALT or the instruction       */
/* limit over the static table _static_table() builds (opcode, dst, two */
/* sources, immediate, target per instruction; the data image as       */
/* address/value columns) and returns the trace columns plus the final  */
/* architectural state.  Every value is an int64 wrapped exactly as     */
/* Emulator._to_signed wraps it: arithmetic is done on uint64, division */
/* floors like Python's // and %, and a zero divisor yields 0.          */
/* ------------------------------------------------------------------ */

/* opcode numbering (must match machine.py's _NATIVE_OPCODES) */
enum {
    OP_ADD, OP_SUB, OP_AND, OP_OR, OP_XOR, OP_SHL, OP_SHR, OP_SLT, OP_SEQ,
    OP_ADDI, OP_ANDI, OP_LI, OP_MOV, OP_MUL, OP_DIV, OP_MOD, OP_FADD,
    OP_FMUL, OP_FDIV, OP_LOAD, OP_STORE, OP_BEQZ, OP_BNEZ, OP_BLT, OP_BGE,
    OP_JUMP, OP_CALL, OP_RET, OP_HALT, OP_NOP, OP_COUNT
};

#define EMU_REGISTERS 32

/* Sparse data memory: open addressing on int64 addresses, unmapped
 * addresses read 0.  A slot's state is 0 (empty), 1 (image) or 2
 * (stored by the program; returned so the caller's dict sees it). */
typedef struct {
    int64_t *keys;
    int64_t *vals;
    uint8_t *state;
    size_t mask;
    size_t used;
} emem_t;

static inline size_t
emem_hash(int64_t key)
{
    uint64_t x = (uint64_t)key;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return (size_t)x;
}

static int
emem_init(emem_t *m, size_t expected)
{
    size_t cap = 64;
    while (cap < 2 * expected + 64)
        cap *= 2;
    m->keys = (int64_t *)malloc(cap * sizeof(int64_t));
    m->vals = (int64_t *)malloc(cap * sizeof(int64_t));
    m->state = (uint8_t *)calloc(cap, 1);
    m->mask = cap - 1;
    m->used = 0;
    if (!m->keys || !m->vals || !m->state) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
emem_free(emem_t *m)
{
    free(m->keys);
    free(m->vals);
    free(m->state);
}

static inline size_t
emem_slot(const emem_t *m, int64_t key)
{
    size_t i = emem_hash(key) & m->mask;
    while (m->state[i] && m->keys[i] != key)
        i = (i + 1) & m->mask;
    return i;
}

static int
emem_grow(emem_t *m)
{
    emem_t bigger;
    if (emem_init(&bigger, m->mask + 1) < 0) {
        emem_free(&bigger);
        return -1;
    }
    for (size_t i = 0; i <= m->mask; i++) {
        if (m->state[i]) {
            size_t j = emem_slot(&bigger, m->keys[i]);
            bigger.keys[j] = m->keys[i];
            bigger.vals[j] = m->vals[i];
            bigger.state[j] = m->state[i];
        }
    }
    bigger.used = m->used;
    emem_free(m);
    *m = bigger;
    return 0;
}

static int
emem_put(emem_t *m, int64_t key, int64_t value, uint8_t state)
{
    size_t i = emem_slot(m, key);
    if (!m->state[i]) {
        if (2 * (m->used + 1) > m->mask + 1) {
            if (emem_grow(m) < 0)
                return -1;
            i = emem_slot(m, key);
        }
        m->keys[i] = key;
        m->used++;
    }
    m->vals[i] = value;
    m->state[i] = state;
    return 0;
}

static inline int64_t
emem_get(const emem_t *m, int64_t key)
{
    size_t i = emem_slot(m, key);
    return m->state[i] ? m->vals[i] : 0;
}

/* A growable output column of fixed-size items. */
typedef struct {
    char *data;
    size_t item;
    size_t len;
    size_t cap;
} ecol_t;

static int
ecol_reserve(ecol_t *c, size_t want)
{
    if (want <= c->cap)
        return 0;
    size_t cap = c->cap ? c->cap : 1024;
    while (cap < want)
        cap *= 2;
    char *grown = (char *)realloc(c->data, cap * c->item);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->data = grown;
    c->cap = cap;
    return 0;
}

static PyObject *
ecol_bytes(const ecol_t *c)
{
    return PyBytes_FromStringAndSize(c->data ? c->data : "",
                                     (Py_ssize_t)(c->len * c->item));
}

/* Python's floor division / modulo on int64, 0 on a zero divisor; the
 * one overflowing quotient (INT64_MIN // -1) wraps like _to_signed. */
static inline int64_t
emu_floordiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (b == -1)
        return (int64_t)(0 - (uint64_t)a);
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

static inline int64_t
emu_mod(int64_t a, int64_t b)
{
    if (b == 0 || b == -1)
        return 0;
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        r += b;
    return r;
}

static int
emu_buffer(Py_buffer *view, Py_ssize_t itemsize, Py_ssize_t count,
           const char *name)
{
    if (view->len != itemsize * count) {
        PyErr_Format(PyExc_ValueError, "emulate: column %s has %zd bytes, "
                     "expected %zd", name, view->len, itemsize * count);
        return -1;
    }
    return 0;
}

static PyObject *
emulate(PyObject *self, PyObject *args)
{
    Py_buffer v_op = {0}, v_dst = {0}, v_s0 = {0}, v_s1 = {0};
    Py_buffer v_imm = {0}, v_target = {0}, v_addr = {0}, v_val = {0};
    long long entry, limit;
    if (!PyArg_ParseTuple(args, "y*y*y*y*y*y*y*y*LL", &v_op, &v_dst, &v_s0,
                          &v_s1, &v_imm, &v_target, &v_addr, &v_val,
                          &entry, &limit))
        return NULL;

    PyObject *ret = NULL;
    emem_t mem = {0};
    ecol_t c_pc = {NULL, sizeof(int32_t), 0, 0};
    ecol_t c_ea = {NULL, sizeof(int64_t), 0, 0};
    ecol_t c_res = {NULL, sizeof(int64_t), 0, 0};
    ecol_t c_flags = {NULL, sizeof(uint8_t), 0, 0};
    ecol_t c_next = {NULL, sizeof(int32_t), 0, 0};
    ecol_t c_at = {NULL, sizeof(int64_t), 0, 0};
    ecol_t c_stored = {NULL, sizeof(int64_t), 0, 0};
    int64_t regs[EMU_REGISTERS] = {0};

    Py_ssize_t size = v_op.len;
    Py_ssize_t ndata = v_addr.len / (Py_ssize_t)sizeof(int64_t);
    if (emu_buffer(&v_dst, 1, size, "dst") < 0 ||
        emu_buffer(&v_s0, 1, size, "src0") < 0 ||
        emu_buffer(&v_s1, 1, size, "src1") < 0 ||
        emu_buffer(&v_imm, sizeof(int64_t), size, "imm") < 0 ||
        emu_buffer(&v_target, sizeof(int32_t), size, "target") < 0 ||
        emu_buffer(&v_val, sizeof(int64_t), ndata, "values") < 0)
        goto done;
    const int8_t *op = (const int8_t *)v_op.buf;
    const int8_t *dst = (const int8_t *)v_dst.buf;
    const int8_t *s0 = (const int8_t *)v_s0.buf;
    const int8_t *s1 = (const int8_t *)v_s1.buf;
    const int64_t *imm = (const int64_t *)v_imm.buf;
    const int32_t *target = (const int32_t *)v_target.buf;
    const int64_t *addr = (const int64_t *)v_addr.buf;
    const int64_t *val = (const int64_t *)v_val.buf;
    for (Py_ssize_t k = 0; k < size; k++) {
        if (op[k] < 0 || op[k] >= OP_COUNT || dst[k] >= EMU_REGISTERS ||
            s0[k] < 0 || s0[k] >= EMU_REGISTERS || s1[k] < 0 ||
            s1[k] >= EMU_REGISTERS) {
            PyErr_Format(PyExc_ValueError, "emulate: bad static row %zd", k);
            goto done;
        }
    }
    if (entry < 0 || entry >= size) {
        PyErr_SetString(PyExc_ValueError, "emulate: entry point out of range");
        goto done;
    }

    if (emem_init(&mem, (size_t)ndata) < 0)
        goto done;
    for (Py_ssize_t k = 0; k < ndata; k++)
        if (emem_put(&mem, addr[k], val[k], 1) < 0)
            goto done;

    int64_t pc = entry;
    int halted = 0;
    long long count = 0;
    while (!halted && count < limit) {
        if ((size_t)count >= c_pc.cap &&
            (ecol_reserve(&c_pc, count + 1) < 0 ||
             ecol_reserve(&c_ea, count + 1) < 0 ||
             ecol_reserve(&c_res, count + 1) < 0 ||
             ecol_reserve(&c_flags, count + 1) < 0 ||
             ecol_reserve(&c_next, count + 1) < 0))
            goto done;
        int64_t a = regs[s0[pc]];
        int64_t b = regs[s1[pc]];
        uint64_t value = 0;
        int64_t ea = 0;
        int writes = 1;
        uint8_t flags = 0;
        int64_t next = pc + 1;
        switch (op[pc]) {
        case OP_ADD: case OP_FADD: value = (uint64_t)a + (uint64_t)b; break;
        case OP_SUB: value = (uint64_t)a - (uint64_t)b; break;
        case OP_AND: value = (uint64_t)(a & b); break;
        case OP_OR: value = (uint64_t)(a | b); break;
        case OP_XOR: value = (uint64_t)(a ^ b); break;
        case OP_SHL: value = (uint64_t)a << (b & 63); break;
        case OP_SHR: value = (uint64_t)a >> (b & 63); break;
        case OP_SLT: value = a < b; break;
        case OP_SEQ: value = a == b; break;
        case OP_ADDI: value = (uint64_t)a + (uint64_t)imm[pc]; break;
        case OP_ANDI: value = (uint64_t)(a & imm[pc]); break;
        case OP_LI: value = (uint64_t)imm[pc]; break;
        case OP_MOV: value = (uint64_t)a; break;
        case OP_MUL: case OP_FMUL: value = (uint64_t)a * (uint64_t)b; break;
        case OP_DIV: case OP_FDIV: value = (uint64_t)emu_floordiv(a, b); break;
        case OP_MOD: value = (uint64_t)emu_mod(a, b); break;
        case OP_LOAD:
        case OP_STORE:
            if (__builtin_add_overflow(a, imm[pc], &ea)) {
                PyErr_Format(PyExc_OverflowError, "effective address of pc "
                             "%lld exceeds 64 bits", (long long)pc);
                goto done;
            }
            flags = T_HAS_EA;
            if (op[pc] == OP_LOAD) {
                value = (uint64_t)emem_get(&mem, ea);
            } else {
                writes = 0;
                if (emem_put(&mem, ea, b, 2) < 0)
                    goto done;
            }
            break;
        case OP_BEQZ: case OP_BNEZ: case OP_BLT: case OP_BGE: {
            int taken = op[pc] == OP_BEQZ ? a == 0
                      : op[pc] == OP_BNEZ ? a != 0
                      : op[pc] == OP_BLT ? a < b : a >= b;
            writes = 0;
            flags = T_CONTROL | (taken ? T_TAKEN : 0);
            if (taken)
                next = target[pc];
            break;
        }
        case OP_JUMP:
            writes = 0;
            flags = T_CONTROL | T_TAKEN;
            next = target[pc];
            break;
        case OP_CALL:
            value = (uint64_t)(pc + 1);
            flags = T_CONTROL | T_TAKEN;
            next = target[pc];
            break;
        case OP_RET:
            writes = 0;
            flags = T_CONTROL | T_TAKEN;
            next = a;
            break;
        case OP_HALT:
            writes = 0;
            halted = 1;
            next = pc;
            break;
        default: /* OP_NOP */
            writes = 0;
            break;
        }
        if (next < 0 || next >= size) {
            PyErr_Format(PyExc_RuntimeError,
                         "control transfer to invalid pc %lld from pc %lld",
                         (long long)next, (long long)pc);
            goto done;
        }
        int64_t result = 0;
        if (writes && dst[pc] > 0) {
            result = (int64_t)value;
            regs[dst[pc]] = result;
            flags |= T_HAS_RESULT;
        }
        ((int32_t *)c_pc.data)[count] = (int32_t)pc;
        ((int64_t *)c_ea.data)[count] = ea;
        ((int64_t *)c_res.data)[count] = result;
        ((uint8_t *)c_flags.data)[count] = flags;
        ((int32_t *)c_next.data)[count] = (int32_t)next;
        count++;
        pc = next;
    }
    c_pc.len = c_ea.len = c_res.len = c_flags.len = c_next.len = (size_t)count;

    for (size_t i = 0; i <= mem.mask; i++) {
        if (mem.state[i] != 2)
            continue;
        if (ecol_reserve(&c_at, c_at.len + 1) < 0 ||
            ecol_reserve(&c_stored, c_stored.len + 1) < 0)
            goto done;
        ((int64_t *)c_at.data)[c_at.len++] = mem.keys[i];
        ((int64_t *)c_stored.data)[c_stored.len++] = mem.vals[i];
    }

    PyObject *cols[5] = {ecol_bytes(&c_pc), ecol_bytes(&c_ea),
                         ecol_bytes(&c_res), ecol_bytes(&c_flags),
                         ecol_bytes(&c_next)};
    PyObject *state[3] = {
        PyBytes_FromStringAndSize((const char *)regs, sizeof(regs)),
        ecol_bytes(&c_at), ecol_bytes(&c_stored)};
    if (cols[0] && cols[1] && cols[2] && cols[3] && cols[4] && state[0] &&
        state[1] && state[2])
        ret = Py_BuildValue("(OOOOOiLOOO)", cols[0], cols[1], cols[2],
                            cols[3], cols[4], halted, (long long)pc,
                            state[0], state[1], state[2]);
    for (int k = 0; k < 5; k++)
        Py_XDECREF(cols[k]);
    for (int k = 0; k < 3; k++)
        Py_XDECREF(state[k]);

done:
    emem_free(&mem);
    free(c_pc.data); free(c_ea.data); free(c_res.data); free(c_flags.data);
    free(c_next.data); free(c_at.data); free(c_stored.data);
    PyBuffer_Release(&v_op); PyBuffer_Release(&v_dst);
    PyBuffer_Release(&v_s0); PyBuffer_Release(&v_s1);
    PyBuffer_Release(&v_imm); PyBuffer_Release(&v_target);
    PyBuffer_Release(&v_addr); PyBuffer_Release(&v_val);
    return ret;
}

/* ------------------------------------------------------------------ */
/* Hint verdict draws: MainThreadHintSource._draw over the look-ahead   */
/* window's decoded seq / pcs / flags columns, in its program order (a  */
/* branch's values first, then the branch).  random.Random's MT19937 is */
/* transcribed from CPython's _randommodule.c: random() is              */
/* genrand_res53, two tempered 32-bit words per float.  The generator   */
/* state goes in and comes back as getstate()'s 624 words and index.    */
/* Returns the number of draws.                                         */
/* ------------------------------------------------------------------ */
#define MT_N 624
#define MT_M 397

static uint32_t
mt_genrand(uint32_t *mt, int64_t *index)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *index = 0;
    }
    y = mt[(*index)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* DeterministicRng.bernoulli(p): random() < p. */
static inline int
mt_bernoulli(uint32_t *mt, int64_t *index, double p, int64_t *draws)
{
    uint32_t a = mt_genrand(mt, index) >> 5;
    uint32_t b = mt_genrand(mt, index) >> 6;
    (*draws)++;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0) < p;
}

/* draw_verdicts' buffers and their item sizes: the generator state
 * ('I' words, 'q' index), the window's columns, the commit log's branch
 * and value indices, the value PCs (sorted, as the CommitLog declares
 * them), the sorted risky / biased / biased-not-taken PCs, and the output
 * columns. */
static const char *const DRAW_BUFFERS[] = {
    "mt", "index", "seq", "pcs", "flags", "branch_index", "value_index",
    "value_pcs", "risky", "biased", "not_taken", "branch_seqs",
    "branch_correct", "value_seqs", "value_verdicts"};
static const int64_t DRAW_WIDTHS[] = {4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 1, 8, 1};
enum {
    D_MT, D_INDEX, D_SEQ, D_PCS, D_FLAGS, D_BIDX, D_VIDX, D_VPCS, D_RISKY,
    D_BIASED, D_NOT_TAKEN, D_BSEQ, D_BOK, D_VSEQ, D_VVERDICT, D_BUFFERS
};

static PyObject *
draw_verdicts(PyObject *self, PyObject *args)
{
    PyObject *spec;
    if (!PyArg_ParseTuple(args, "O!", &PyDict_Type, &spec))
        return NULL;
    int err = 0;
    double safe_rate = get_float(spec, "safe_rate", &err);
    double risky_rate = get_float(spec, "risky_rate", &err);
    double value_rate = get_float(spec, "value_rate", &err);
    if (err)
        return NULL;
    Py_buffer views[D_BUFFERS];
    void *ptr[D_BUFFERS];
    int64_t len[D_BUFFERS];
    memset(views, 0, sizeof(views));
    uint8_t *disabled = NULL;
    PyObject *ret = NULL;
    for (int k = 0; k < D_BUFFERS; k++) {
        PyObject *obj = PyDict_GetItemString(spec, DRAW_BUFFERS[k]);
        if (obj == NULL) {
            PyErr_Format(PyExc_KeyError, "missing buffer %s", DRAW_BUFFERS[k]);
            goto done;
        }
        if (buffer_of(obj, &views[k], &ptr[k]) < 0)
            goto done;
        len[k] = views[k].len / DRAW_WIDTHS[k];
    }
    uint32_t *mt = ptr[D_MT];
    int64_t *index = ptr[D_INDEX];
    const int64_t *seq = ptr[D_SEQ], *pcs = ptr[D_PCS], *flags = ptr[D_FLAGS];
    const int64_t *bidx = ptr[D_BIDX], *vidx = ptr[D_VIDX];
    const int64_t *vpcs = ptr[D_VPCS], *risky = ptr[D_RISKY];
    const int64_t *biased = ptr[D_BIASED], *not_taken = ptr[D_NOT_TAKEN];
    int64_t *bseq = ptr[D_BSEQ], *vseq = ptr[D_VSEQ];
    int8_t *bok = ptr[D_BOK], *vverdict = ptr[D_VVERDICT];
    int64_t n = len[D_SEQ], nb = len[D_BIDX], nv = len[D_VIDX];
    if (len[D_MT] != MT_N || len[D_INDEX] != 1 || *index < 0 ||
        *index > MT_N || len[D_PCS] != n || len[D_FLAGS] != n ||
        len[D_BSEQ] != nb || len[D_BOK] != nb || len[D_VSEQ] != nv ||
        len[D_VVERDICT] != nv) {
        PyErr_SetString(PyExc_ValueError, "draw_verdicts columns do not match");
        goto done;
    }
    disabled = PyMem_Calloc(len[D_VPCS] > 0 ? (size_t)len[D_VPCS] : 1, 1);
    if (disabled == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t draws = 0, j = 0;
    /* b == nb is a sentinel branch that drains the remaining values. */
    for (int64_t b = 0; b <= nb; b++) {
        int64_t end = b < nb ? bidx[b] : n;
        if (end < 0 || end > n || (b < nb && end == n)) {
            PyErr_SetString(PyExc_IndexError, "branch index out of range");
            goto done;
        }
        for (; j < nv && vidx[j] < end; j++) {
            int64_t i = vidx[j];
            int64_t slot = i < 0 ? -1 : sorted_index(vpcs, len[D_VPCS], pcs[i]);
            if (slot < 0) {
                PyErr_SetString(PyExc_ValueError,
                                "value hint outside the declared PCs");
                goto done;
            }
            vseq[j] = seq[i];
            if (disabled[slot]) {
                vverdict[j] = 0;                       /* VALUE_NONE */
            } else if (mt_bernoulli(mt, index, value_rate, &draws)) {
                /* The SIF entry is deleted: no further predictions. */
                disabled[slot] = 1;
                vverdict[j] = 2;                       /* VALUE_WRONG */
            } else {
                vverdict[j] = 1;                       /* VALUE_CORRECT */
            }
        }
        if (b == nb)
            break;
        int64_t i = end, pc_ = pcs[i];
        bseq[b] = seq[i];
        if (in_sorted(biased, len[D_BIASED], pc_)) {
            /* The skeleton replaced the branch with its bias direction:
             * wrong whenever the outcome goes against it. */
            int taken = (flags[i] & F_TAKEN) != 0;
            int direction = !in_sorted(not_taken, len[D_NOT_TAKEN], pc_);
            bok[b] = taken == direction
                     && !mt_bernoulli(mt, index, safe_rate, &draws);
        } else {
            double rate = in_sorted(risky, len[D_RISKY], pc_) ? risky_rate
                                                              : safe_rate;
            bok[b] = !mt_bernoulli(mt, index, rate, &draws);
        }
    }
    ret = PyLong_FromLongLong(draws);
done:
    PyMem_Free(disabled);
    for (int k = 0; k < D_BUFFERS; k++)
        if (views[k].obj) PyBuffer_Release(&views[k]);
    return ret;
}

static PyMethodDef methods[] = {
    {"run_tick_loop", run_tick_loop, METH_VARARGS,
     "Run the compiled per-instruction tick loop over a decoded trace."},
    {"replay_warmup", replay_warmup, METH_VARARGS,
     "Replay a warm-up window's memory accesses (or any access stream)."},
    {"gather_decoded", gather_decoded, METH_VARARGS,
     "Decode a window's trace columns through its program's static table."},
    {"select_rows", select_rows, METH_VARARGS,
     "The rows of a window's trace columns whose PC is in a mask."},
    {"profile_columns", profile_columns, METH_VARARGS,
     "A training window's profile passes (dla.profiling.profile_workload)."},
    {"emulate", emulate, METH_VARARGS,
     "Run a program to HALT or the limit; returns its trace columns."},
    {"draw_verdicts", draw_verdicts, METH_VARARGS,
     "Draw a DLA main thread's hint verdicts (MainThreadHintSource._draw)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_repro_fastcore", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__repro_fastcore(void)
{
    if (intern_keys() < 0)
        return NULL;
    return PyModule_Create(&moduledef);
}
