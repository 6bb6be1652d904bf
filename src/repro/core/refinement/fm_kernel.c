/* Native k-way FM of repro.core.refinement: one call runs a whole FM pass --
 * seed scoring, the max-gain queue, the best move of every popped vertex,
 * the move, the gain table's delta updates and the rollback to the best
 * prefix -- on the gain table's own arrays (repro_fm_pass).  The Python pass
 * it replaced (_fm_pass, _best_move, _run_search) stays in tests/oracles.py
 * as the reference.  Two more entries, at the end of the file, build a
 * round's table (repro_gain_table_build) and list its seeds
 * (repro_boundary_vertices) on the same row reader.
 *
 * No state, no Python objects: ctypes calls each entry with the GIL
 * released.  repro_fm_pass's arguments, in order:
 *   - the graph: n, indptr (CSR, n + 1 entries) or NULL, adj / wgt
 *     (adj_len each; wgt == NULL means every edge weighs unit_wgt), degs (a
 *     compressed graph's n degrees, with indptr NULL) and the stream (two
 *     stream_t, one neighbourhood's scratch each: [0] holds the vertex that
 *     moves, [1] what is read while it is held; a chunk-encoded hub is
 *     decoded chunk by chunk like any other row);
 *   - the partition: k, part (int32, n), block_weights (k), vwgt (NULL:
 *     every vertex weighs unit_vwgt), max_block_weight;
 *   - the gain table: its kind, then keys (int32) / vals / offsets (n + 1)
 *     / dense (one byte a vertex) of SparseGainTable with vals_len slots,
 *     or FullGainTable's n x k vals, or nothing (NoGainTable);
 *   - the search: seeds, their count, localized, max_fruitless, max_region,
 *     slack, locked (one byte a vertex, zeroed by the caller);
 *   - out[OUT_FIELDS] and info[2].
 *
 * A global pass (localized == 0) is one search seeded with every seed in
 * order; it stops after max_fruitless moves that did not beat the best
 * prefix, and aborts where a negative move would take the running gain more
 * than `slack` below the best.  A localized pass runs one search per seed in
 * the given order (the caller's permutation), skipping seeds already locked;
 * a search stops after max_region moves and aborts with a slack of 2.  Each
 * search rolls its moves back to its best prefix before the next starts, and
 * its vertices stay locked.
 *
 * Why it is bit-identical to the Python pass: the queue holds (gain,
 * counter, vertex) and pops the largest gain, then the smallest counter;
 * counters are unique (one per push, from 0 each search), so the order is
 * total and the sequence of pops is a function of the sequence of pushes --
 * any correct binary heap, this one or Python's heapq over (-gain, counter),
 * produces it.  Pushes happen where the Python pass pushes: every seed with
 * a feasible move in seed order, a popped vertex whose gain changed, every
 * unlocked neighbour of a moved vertex in adjacency order.  A vertex's best
 * move is the feasible block (not its own, block weight + its weight <=
 * max_block_weight) of maximum gain, then the smallest block -- _best_move's
 * strict ">" scan over ascending blocks -- over the blocks the table lists:
 * a sparse row's keys, a dense or full row's non-zero entries, or every
 * block among the neighbours (NoGainTable, zero sums included).  Gains are
 * int64 differences wrapping like numpy's; the running gain and the best
 * prefix are summed in __int128, exactly as Python's ints.  The sparse
 * table's updates are _insert_add's: the same hash (block * 0x9E3779B1 &
 * 0xFFFFFFFF) % cap, linear probing and backward-shift delete, in the same
 * order (per neighbour: source block, then target block), so its arrays
 * stay byte-equal; the full table's are the same integer sums.  Neighbours
 * come in adjacency order: a CSR row as stored, a compressed row sorted, as
 * the Python decoder and neighborhood.h's visitor both hand it out.
 *
 * Contract (tests/test_fm_kernel.py holds it to this):
 *   - every vertex id (a seed, a neighbour) is checked against [0, n) and
 *     every block id (part[], a sparse key) against [0, k) before it indexes
 *     anything; a row's segment (indptr, offsets) is checked to lie inside
 *     its array before it is read, a compressed row's degree against the
 *     stream's scratch, a dense row to hold k entries;
 *   - the queue, the move log and the undo log are malloc'd and grow by
 *     doubling, so no capacity runs out mid-pass (a failed allocation is
 *     ERR_MEMORY); NoGainTable's per-block sums, seen list and slots take 3k
 *     entries, malloc'd once a pass;
 *   - no refusal is half-applied: every write to the table is logged first
 *     (slot, old key, old value) and every move of the partition too, and
 *     any error -- a bad id or segment, a negative affinity, a full hash
 *     row, a stream the decoder refuses, no memory -- undoes the log in
 *     reverse before it returns, so part, block_weights and the table are
 *     byte-equal to what the call found; locked and out are garbage then;
 *   - no signed overflow: the caller admits only vertex weights >= 0 whose
 *     total stays below 2^62 and clamps max_block_weight, so block weight
 *     sums fit; affinities and gains wrap modulo 2^64 like numpy's;
 *   - a broken rule returns a negative code, info[BAD_VERTEX] the vertex and
 *     info[BAD_BLOCK] the block (-1: none), never a trap.
 *
 * On success, out holds the improvement (the sum of the searches' best
 * prefixes, low and high 64 bits), the moves kept and rolled back, the
 * searches run, the sparse table's lock acquisitions (one per hash-row
 * update, as _insert_add counts) and NoGainTable's recompute edges (one per
 * neighbour read to list a vertex's blocks, as its gains() counts).
 */
#include <stdint.h>
#include <stdlib.h>

#include "../../graph/neighborhood.h"

enum {
    ERR_VERTEX = -1,   /* vertex id outside [0, n) */
    ERR_SEGMENT = -2,  /* a row's segment outside its array, a dense row not k wide */
    ERR_BLOCK = -3,    /* block id outside [0, k) */
    ERR_NEGATIVE = -4, /* a sparse affinity dropped below zero */
    ERR_FULL = -5,     /* a sparse hash row has no slot left */
    ERR_MEMORY = -6,   /* the queue or a log could not grow */
    ERR_DECODE = -100  /* plus the row reader's code (neighborhood.h: -1..-7, -12) */
};

enum { TABLE_NONE, TABLE_FULL, TABLE_SPARSE };

enum {
    OUT_IMPROVEMENT_LO,
    OUT_IMPROVEMENT_HI,
    OUT_MOVES,
    OUT_ROLLED_BACK,
    OUT_SEARCHES,
    OUT_LOCKS,
    OUT_RECOMPUTE,
    OUT_FIELDS
};

enum { BAD_VERTEX, BAD_BLOCK };

#define EMPTY (-1)

/* 0 <= v < n in one comparison (n >= 0) */
#define IN_RANGE(v, n) ((uint64_t)(v) < (uint64_t)(n))

typedef struct {
    int64_t gain, counter, vertex;
} entry_t;

typedef struct {
    int64_t vertex, from, to;
} move_t;

typedef struct {
    int64_t at, val, key; /* key: the old key, or NO_KEY for a value-only row */
} undo_t;

#define NO_KEY INT64_MIN

/* a malloc'd array that doubles as it fills */
typedef struct {
    void *at;
    int64_t len, cap;
} vec_t;

static int grow(vec_t *v, size_t size)
{
    if (v->len < v->cap)
        return 0;
    int64_t cap = v->cap ? 2 * v->cap : 256;
    void *at = realloc(v->at, (size_t)cap * size);
    if (!at)
        return ERR_MEMORY;
    v->at = at;
    v->cap = cap;
    return 0;
}

typedef struct {
    const int64_t *adj, *wgt;
    int64_t deg;
} nbhd_t;

typedef struct {
    /* graph */
    int64_t n;
    const int64_t *indptr, *adj, *wgt, *degs;
    int64_t unit_wgt, adj_len;
    const stream_t *stream;
    /* partition */
    int64_t k;
    int32_t *part;
    int64_t *block_weights;
    const int64_t *vwgt;
    int64_t unit_vwgt, max_block_weight;
    /* table */
    int64_t kind;
    int32_t *keys;
    int64_t *vals;
    const int64_t *offsets;
    const uint8_t *dense;
    int64_t vals_len;
    int64_t *sums, *slot; /* NoGainTable's per-block sums and 1 + index in seen */
    /* search */
    uint8_t *locked;
    vec_t heap, moves, undo;
    int64_t locks, recompute;
    int64_t *info;
} fm_t;

#define TRY(expr)                  \
    do {                           \
        int64_t rc_ = (expr);      \
        if (rc_ < 0)               \
            return rc_;            \
    } while (0)

static inline int64_t fail(fm_t *f, int64_t code, int64_t vertex, int64_t block)
{
    f->info[BAD_VERTEX] = vertex;
    f->info[BAD_BLOCK] = block;
    return code;
}

/* ---- the queue: max gain, then min counter ---- */

static inline int before(const entry_t *a, const entry_t *b)
{
    return a->gain > b->gain || (a->gain == b->gain && a->counter < b->counter);
}

static int64_t push(fm_t *f, int64_t gain, int64_t counter, int64_t vertex)
{
    if (grow(&f->heap, sizeof(entry_t)))
        return fail(f, ERR_MEMORY, vertex, -1);
    entry_t *h = f->heap.at;
    int64_t i = f->heap.len++;
    entry_t e = {gain, counter, vertex};
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(&e, &h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = e;
    return 0;
}

static entry_t pop(fm_t *f)
{
    entry_t *h = f->heap.at;
    entry_t top = h[0], last = h[--f->heap.len];
    int64_t len = f->heap.len, i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= len)
            break;
        if (c + 1 < len && before(&h[c + 1], &h[c]))
            c++;
        if (!before(&h[c], &last))
            break;
        h[i] = h[c];
        i = c;
    }
    if (len)
        h[i] = last;
    return top;
}

/* ---- neighbourhoods ---- */

/* Vertex u's (checked) neighbourhood: a CSR row, or the stream's scratch
 * `which` decoded by neighborhood.h's store sink (a chunk-encoded hub chunk
 * by chunk). */
static int64_t neighborhood(fm_t *f, int64_t u, int which, nbhd_t *out)
{
    if (f->indptr) {
        int64_t start = f->indptr[u], end = f->indptr[u + 1];
        if (start < 0 || end < start || end > f->adj_len)
            return fail(f, ERR_SEGMENT, u, -1);
        out->adj = f->adj + start;
        out->wgt = f->wgt ? f->wgt + start : 0;
        out->deg = end - start;
        return 0;
    }
    const stream_t *z = &f->stream[which];
    int64_t deg = f->degs[u];
    row_t row = {z->nbrs, z->wgts, 0};
    int rc = visit_stream_row(z, f->n, u, deg, z->weighted != 0, f->unit_wgt, store, &row);
    if (rc)
        return fail(f, ERR_DECODE + rc, u, -1);
    out->adj = z->nbrs;
    out->wgt = z->wgts;
    out->deg = deg;
    return 0;
}

static inline int64_t weight_at(const fm_t *f, const nbhd_t *h, int64_t e)
{
    return h->wgt ? h->wgt[e] : f->unit_wgt;
}

/* ---- the gain table ---- */

static inline int64_t wrap_sub(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a - (uint64_t)b);
}

/* (block * 0x9E3779B1 & 0xFFFFFFFF) % cap, cap > 0: a mask where cap is a
 * power of two, as every hash row the layout makes is */
static inline int64_t hash_home(int64_t block, int64_t cap)
{
    uint64_t h = ((uint64_t)block * 0x9E3779B1u) & 0xFFFFFFFFu, c = (uint64_t)cap;
    return (int64_t)(c & (c - 1) ? h % c : h & (c - 1));
}

/* a sparse row's [lo, hi), checked to lie in the table */
static int64_t row(fm_t *f, int64_t u, int64_t *lo, int64_t *hi)
{
    *lo = f->offsets[u];
    *hi = f->offsets[u + 1];
    if (*lo < 0 || *hi < *lo || *hi > f->vals_len)
        return fail(f, ERR_SEGMENT, u, -1);
    if (f->dense[u] && *hi - *lo != f->k)
        return fail(f, ERR_SEGMENT, u, -1);
    return 0;
}

/* log slot `at` (and its key, for a hash slot) before it is written */
static int64_t logged(fm_t *f, int64_t at, int keyed)
{
    if (grow(&f->undo, sizeof(undo_t)))
        return fail(f, ERR_MEMORY, -1, -1);
    ((undo_t *)f->undo.at)[f->undo.len++] =
        (undo_t){at, f->vals[at], keyed ? f->keys[at] : NO_KEY};
    return 0;
}

/* SparseGainTable._delete_slot: empty `slot` of row [lo, lo + cap) (logged
 * already), then shift back every later key of the probe run that may fill
 * the hole */
static int64_t delete_slot(fm_t *f, int64_t lo, int64_t cap, int64_t slot)
{
    int64_t i = slot - lo;
    f->keys[slot] = EMPTY;
    f->vals[slot] = 0;
    int64_t j = (i + 1) % cap;
    while (f->keys[lo + j] != EMPTY) {
        int64_t key = f->keys[lo + j];
        int64_t home = hash_home(key, cap);
        if (((j - home) % cap + cap) % cap >= ((j - i) % cap + cap) % cap) {
            TRY(logged(f, lo + i, 1));
            TRY(logged(f, lo + j, 1));
            f->keys[lo + i] = (int32_t)key;
            f->vals[lo + i] = f->vals[lo + j];
            f->keys[lo + j] = EMPTY;
            f->vals[lo + j] = 0;
            i = j;
        }
        j = (j + 1) % cap;
        if (j == slot - lo)
            break;
    }
    return 0;
}

/* SparseGainTable._insert_add: add delta to v's affinity to block */
static int64_t insert_add(fm_t *f, int64_t v, int64_t block, int64_t delta)
{
    int64_t lo, hi;
    TRY(row(f, v, &lo, &hi));
    if (f->dense[v]) {
        TRY(logged(f, lo + block, 0));
        f->vals[lo + block] = (int64_t)((uint64_t)f->vals[lo + block] + (uint64_t)delta);
        return 0;
    }
    f->locks++;
    int64_t cap = hi - lo;
    if (cap == 0)
        return fail(f, ERR_SEGMENT, v, -1);
    int64_t i = hash_home(block, cap);
    for (int64_t t = 0; t < cap; t++) {
        int64_t slot = lo + i;
        int64_t key = f->keys[slot];
        if (key == block) {
            TRY(logged(f, slot, 1));
            int64_t now = (int64_t)((uint64_t)f->vals[slot] + (uint64_t)delta);
            f->vals[slot] = now;
            if (now == 0)
                return delete_slot(f, lo, cap, slot);
            if (now < 0)
                return fail(f, ERR_NEGATIVE, v, block);
            return 0;
        }
        if (key == EMPTY) {
            if (delta == 0)
                return 0;
            TRY(logged(f, slot, 1));
            f->keys[slot] = (int32_t)block;
            f->vals[slot] = delta;
            return 0;
        }
        i = (i + 1) % cap;
    }
    return fail(f, ERR_FULL, v, block);
}

/* table.apply_move(u, src, dst) over u's neighbourhood h */
static int64_t apply_move(fm_t *f, const nbhd_t *h, int64_t src, int64_t dst)
{
    if (f->kind == TABLE_NONE)
        return 0;
    for (int64_t e = 0; e < h->deg; e++) {
        int64_t v = h->adj[e], w = weight_at(f, h, e);
        if (!IN_RANGE(v, f->n))
            return fail(f, ERR_VERTEX, v, -1);
        if (f->kind == TABLE_SPARSE) {
            TRY(insert_add(f, v, src, (int64_t)(0 - (uint64_t)w)));
            TRY(insert_add(f, v, dst, w));
        } else {
            int64_t *r = f->vals + v * f->k;
            TRY(logged(f, v * f->k + src, 0));
            r[src] = wrap_sub(r[src], w);
            TRY(logged(f, v * f->k + dst, 0));
            r[dst] = (int64_t)((uint64_t)r[dst] + (uint64_t)w);
        }
    }
    return 0;
}

/* pgraph.move(u, to), logged */
static int64_t move(fm_t *f, int64_t u, int64_t from, int64_t to)
{
    if (grow(&f->moves, sizeof(move_t)))
        return fail(f, ERR_MEMORY, u, -1);
    ((move_t *)f->moves.at)[f->moves.len++] = (move_t){u, from, to};
    int64_t w = f->vwgt ? f->vwgt[u] : f->unit_vwgt;
    f->block_weights[from] -= w;
    f->block_weights[to] += w;
    f->part[u] = (int32_t)to;
    return 0;
}

typedef struct {
    int found;
    int64_t gain, block;
} best_t;

/* one candidate of _best_move's scan: feasible, then max gain, then the
 * smallest block */
static inline void consider(const fm_t *f, best_t *b, int64_t cur, int64_t w, int64_t block,
                            int64_t gain)
{
    if (block == cur)
        return;
    if ((int64_t)((uint64_t)f->block_weights[block] + (uint64_t)w) > f->max_block_weight)
        return;
    if (!b->found || gain > b->gain || (gain == b->gain && block < b->block)) {
        b->found = 1;
        b->gain = gain;
        b->block = block;
    }
}

/* _best_move(table, pgraph, u, max_block_weight) */
static int64_t best_move(fm_t *f, int64_t u, best_t *b)
{
    int64_t cur = f->part[u];
    if (!IN_RANGE(cur, f->k))
        return fail(f, ERR_BLOCK, u, cur);
    int64_t w = f->vwgt ? f->vwgt[u] : f->unit_vwgt;
    b->found = 0;
    if (f->kind == TABLE_NONE) {
        nbhd_t h;
        TRY(neighborhood(f, u, 1, &h));
        f->recompute += h.deg;
        int64_t seen = 0;
        for (int64_t e = 0; e < h.deg; e++) {
            int64_t v = h.adj[e];
            if (!IN_RANGE(v, f->n))
                return fail(f, ERR_VERTEX, v, -1);
            int64_t block = f->part[v];
            if (!IN_RANGE(block, f->k))
                return fail(f, ERR_BLOCK, v, block);
            if (!f->slot[block]) {
                f->sums[f->k + seen] = block; /* the seen list, after the sums */
                f->sums[block] = 0;
                f->slot[block] = ++seen;
            }
            f->sums[block] = (int64_t)((uint64_t)f->sums[block] + (uint64_t)weight_at(f, &h, e));
        }
        int64_t cur_aff = f->slot[cur] ? f->sums[cur] : 0;
        for (int64_t j = 0; j < seen; j++) {
            int64_t block = f->sums[f->k + j];
            f->slot[block] = 0;
            consider(f, b, cur, w, block, wrap_sub(f->sums[block], cur_aff));
        }
        return 0;
    }
    if (f->kind == TABLE_FULL || f->dense[u]) {
        const int64_t *r;
        if (f->kind == TABLE_FULL) {
            r = f->vals + u * f->k;
        } else {
            int64_t lo, hi;
            TRY(row(f, u, &lo, &hi));
            r = f->vals + lo;
        }
        int64_t cur_aff = r[cur];
        for (int64_t block = 0; block < f->k; block++)
            if (r[block])
                consider(f, b, cur, w, block, wrap_sub(r[block], cur_aff));
        return 0;
    }
    int64_t lo, hi, cur_aff = 0;
    TRY(row(f, u, &lo, &hi));
    for (int64_t s = lo; s < hi; s++)
        if (f->keys[s] == cur) {
            cur_aff = f->vals[s];
            break;
        }
    for (int64_t s = lo; s < hi; s++) {
        int64_t block = f->keys[s];
        if (block == EMPTY)
            continue;
        if (!IN_RANGE(block, f->k))
            return fail(f, ERR_BLOCK, u, block);
        consider(f, b, cur, w, block, wrap_sub(f->vals[s], cur_aff));
    }
    return 0;
}

/* score u and push its best move, if it has one */
static int64_t offer(fm_t *f, int64_t u, int64_t *counter)
{
    best_t b;
    TRY(best_move(f, u, &b));
    if (b.found)
        TRY(push(f, b.gain, (*counter)++, u));
    return 0;
}

typedef struct {
    __int128 best;
    int64_t kept, rolled;
} result_t;

/* One search: _fm_pass's loop (region == INT64_MAX) or _run_search's
 * (fruitless == INT64_MAX), seeded with seeds[0..count). */
static int64_t search(fm_t *f, const int64_t *seeds, int64_t count, int64_t max_fruitless,
                      int64_t max_region, int64_t slack, result_t *res)
{
    int64_t counter = 0, first = f->moves.len, done = 0, prefix = 0, fruitless = 0;
    __int128 cumulative = 0, best = 0;
    f->heap.len = 0;
    for (int64_t i = 0; i < count; i++) {
        if (!IN_RANGE(seeds[i], f->n))
            return fail(f, ERR_VERTEX, seeds[i], -1);
        TRY(offer(f, seeds[i], &counter));
    }
    while (f->heap.len && fruitless < max_fruitless && done < max_region) {
        entry_t top = pop(f);
        int64_t u = top.vertex;
        if (f->locked[u])
            continue;
        best_t b;
        TRY(best_move(f, u, &b));
        if (!b.found)
            continue;
        if (b.gain != top.gain) {
            TRY(push(f, b.gain, counter++, u));
            continue;
        }
        int64_t src = f->part[u];
        if (b.gain < 0 && cumulative + b.gain < best - slack)
            break;
        f->locked[u] = 1;
        nbhd_t h;
        TRY(neighborhood(f, u, 0, &h));
        TRY(move(f, u, src, b.block));
        TRY(apply_move(f, &h, src, b.block));
        cumulative += b.gain;
        done++;
        if (cumulative > best) {
            best = cumulative;
            prefix = done;
            fruitless = 0;
        } else {
            fruitless++;
        }
        for (int64_t e = 0; e < h.deg; e++) {
            int64_t v = h.adj[e];
            if (!IN_RANGE(v, f->n))
                return fail(f, ERR_VERTEX, v, -1);
            if (!f->locked[v])
                TRY(offer(f, v, &counter));
        }
    }
    /* roll the tail back, last move first */
    for (int64_t i = first + done - 1; i >= first + prefix; i--) {
        move_t m = ((move_t *)f->moves.at)[i];
        nbhd_t h;
        TRY(neighborhood(f, m.vertex, 0, &h));
        TRY(move(f, m.vertex, m.to, m.from));
        TRY(apply_move(f, &h, m.to, m.from));
    }
    res->best += best;
    res->kept += prefix;
    res->rolled += done - prefix;
    return 0;
}

/* put every logged write and move back, last first */
static void undo(fm_t *f)
{
    const undo_t *log = f->undo.at;
    for (int64_t i = f->undo.len - 1; i >= 0; i--) {
        f->vals[log[i].at] = log[i].val;
        if (log[i].key != NO_KEY)
            f->keys[log[i].at] = (int32_t)log[i].key;
    }
    const move_t *mv = f->moves.at;
    for (int64_t i = f->moves.len - 1; i >= 0; i--) {
        int64_t w = f->vwgt ? f->vwgt[mv[i].vertex] : f->unit_vwgt;
        f->block_weights[mv[i].to] -= w;
        f->block_weights[mv[i].from] += w;
        f->part[mv[i].vertex] = (int32_t)mv[i].from;
    }
}

static int64_t run(fm_t *f, const int64_t *seeds, int64_t count, int64_t localized,
                   int64_t max_fruitless, int64_t max_region, int64_t slack, int64_t *out)
{
    result_t res = {0, 0, 0};
    int64_t searches = 0;
    if (f->kind == TABLE_NONE) {
        f->sums = malloc(2 * (size_t)f->k * sizeof(int64_t));
        f->slot = calloc((size_t)f->k, sizeof(int64_t));
        if (!f->sums || !f->slot)
            return fail(f, ERR_MEMORY, -1, -1);
    }
    if (!localized) {
        TRY(search(f, seeds, count, max_fruitless, INT64_MAX, slack, &res));
    } else {
        for (int64_t i = 0; i < count; i++) {
            if (!IN_RANGE(seeds[i], f->n))
                return fail(f, ERR_VERTEX, seeds[i], -1);
            if (f->locked[seeds[i]])
                continue;
            TRY(search(f, seeds + i, 1, INT64_MAX, max_region, 2, &res));
            searches++;
        }
    }
    out[OUT_IMPROVEMENT_LO] = (int64_t)(uint64_t)res.best;
    out[OUT_IMPROVEMENT_HI] = (int64_t)(res.best >> 64);
    out[OUT_MOVES] = res.kept;
    out[OUT_ROLLED_BACK] = res.rolled;
    out[OUT_SEARCHES] = searches;
    out[OUT_LOCKS] = f->locks;
    out[OUT_RECOMPUTE] = f->recompute;
    return 0;
}

int64_t repro_fm_pass(
    int64_t n, const int64_t *indptr, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, const int64_t *degs, const stream_t *stream, int64_t k, int32_t *part,
    int64_t *block_weights,
    const int64_t *vwgt, int64_t unit_vwgt, int64_t max_block_weight, int64_t kind,
    int32_t *keys, int64_t *vals, const int64_t *offsets, const uint8_t *dense,
    int64_t vals_len, const int64_t *seeds, int64_t count, int64_t localized,
    int64_t max_fruitless, int64_t max_region, int64_t slack, uint8_t *locked, int64_t *out,
    int64_t *info)
{
    fm_t f = {
        .n = n, .indptr = indptr, .adj = adj, .wgt = wgt, .degs = degs, .unit_wgt = unit_wgt,
        .adj_len = adj_len, .stream = stream, .k = k, .part = part, .block_weights = block_weights, .vwgt = vwgt, .unit_vwgt = unit_vwgt,
        .max_block_weight = max_block_weight, .kind = kind, .keys = keys, .vals = vals,
        .offsets = offsets, .dense = dense, .vals_len = vals_len, .locked = locked, .info = info,
    };
    info[BAD_VERTEX] = info[BAD_BLOCK] = -1;
    int64_t rc;
    if (n < 0 || k < 1 || count < 0 || kind < TABLE_NONE || kind > TABLE_SPARSE)
        rc = fail(&f, ERR_SEGMENT, -1, -1);
    else if (kind == TABLE_FULL && (n > INT64_MAX / k || vals_len != n * k))
        rc = fail(&f, ERR_SEGMENT, -1, -1);
    else
        rc = run(&f, seeds, count, localized, max_fruitless, max_region, slack, out);
    if (rc < 0)
        undo(&f);
    free(f.heap.at);
    free(f.moves.at);
    free(f.undo.at);
    free(f.sums);
    free(f.slot);
    return rc;
}

/* ---- a round's table and seeds ----
 *
 * repro_gain_table_build fills a freshly allocated table from the partition
 * and lists the round's seeds in one walk over the rows, read as the pass
 * reads them (a CSR row as stored, a compressed row decoded into the
 * stream's scratch [0]).  Each row's affinities are summed in an O(k)
 * scratch (sums, the blocks in first-touch order, a seen flag a block), then
 * written:
 *   - TABLE_FULL: into the row's k entries (vals is n x k, zeroed by the
 *     caller);
 *   - TABLE_SPARSE, a dense row: straight into its k values;
 *   - TABLE_SPARSE, a hash row: every touched block (a zero sum included)
 *     inserted into the empty row in ascending block order, each by linear
 *     probing from hash_home to the first empty slot.
 * Why the sparse arrays come out byte-equal to the numpy build it replaced
 * (tests/oracles.py, "gain-table"): that build sorted the (vertex, block)
 * pairs by vertex * k + block, so each row's touched blocks reached
 * batch_hash_insert ascending, and its rank waves place a row's j-th pair
 * only after its (j-1)-th -- the sequential insertion order, which a slot's
 * final key depends on and this loop replays; a dense row is written by
 * index, where order does not matter; sums wrap modulo 2^64 like numpy's.
 * width[u] is the smallest of 8/16/32/64 bits above log2 of u's total
 * incident weight (entry_width_bits).  keys (EMPTY everywhere), offsets and
 * dense come from the caller's layout: a row outside vals, a dense row not k
 * wide or a hash row of no slot is ERR_SEGMENT, and a hash row with no empty
 * slot left is ERR_FULL (vertex, block) -- the layout gives a row of degree
 * d at least 2d slots, so only a layout that lies about the degree meets it.
 *
 * The seeds are PartitionedGraph.boundary_vertices(): every vertex with a
 * neighbour in another block, ascending, into seeds (n entries).
 * repro_boundary_vertices is the same walk with no table (TABLE_NONE), which
 * stops reading a row at its first such neighbour.
 *
 * Both check every vertex id against [0, n) and every block id they read
 * (a neighbour's, and a vertex's own where it has a neighbour) against
 * [0, k) before it indexes anything, refuse a stream the decoder refuses
 * (ERR_DECODE + its code), and report a refusal as the pass does
 * (info[BAD_VERTEX], info[BAD_BLOCK]); they write only the table, width and
 * seeds, which the caller discards then.  On success out[BUILD_LOCKS] holds
 * the lock acquisitions (one per hash-row insert, as the numpy build
 * counted) and out[BUILD_SEEDS] the number of seeds. */

enum { BUILD_LOCKS, BUILD_SEEDS };

static inline int64_t entry_width(int64_t total)
{
    return total < (1LL << 8) ? 8 : total < (1LL << 16) ? 16 : total < (1LL << 32) ? 32 : 64;
}

static int ascending(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static void sort_blocks(int64_t *a, int64_t len)
{
    if (len > 32) {
        qsort(a, (size_t)len, sizeof(int64_t), ascending);
        return;
    }
    for (int64_t i = 1; i < len; i++) {
        int64_t x = a[i], j = i;
        for (; j > 0 && a[j - 1] > x; j--)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

/* the block of neighbour e of h, checked */
static inline int64_t block_of(fm_t *f, const nbhd_t *h, int64_t e, int64_t *block)
{
    int64_t v = h->adj[e];
    if (!IN_RANGE(v, f->n))
        return fail(f, ERR_VERTEX, v, -1);
    *block = f->part[v];
    if (!IN_RANGE(*block, f->k))
        return fail(f, ERR_BLOCK, v, *block);
    return 0;
}

/* insert a touched block into the empty slots of u's hash row [lo, lo + cap) */
static int64_t insert_new(fm_t *f, int64_t u, int64_t lo, int64_t cap, int64_t block,
                          int64_t sum)
{
    int64_t i = hash_home(block, cap);
    for (int64_t t = 0; t < cap; t++) {
        if (f->keys[lo + i] == EMPTY) {
            f->keys[lo + i] = (int32_t)block;
            f->vals[lo + i] = sum;
            return 0;
        }
        i = i + 1 == cap ? 0 : i + 1;
    }
    return fail(f, ERR_FULL, u, block);
}

typedef struct {
    int64_t *sums, *touched; /* k each: a block's sum, the row's blocks */
    uint8_t *seen;           /* k flags, all 0 between rows */
    int64_t *width, *seeds;
} walk_t;

/* u's sparse row from its neighbourhood h; *count: the blocks it touches,
 * left ascending in w->touched */
static int64_t sparse_row(fm_t *f, walk_t *w, int64_t u, const nbhd_t *h, int64_t *count)
{
    uint64_t total = 0;
    int64_t c = 0;
    for (int64_t e = 0; e < h->deg; e++) {
        int64_t block, wt = weight_at(f, h, e);
        TRY(block_of(f, h, e, &block));
        total += (uint64_t)wt;
        if (!w->seen[block]) {
            w->seen[block] = 1;
            w->sums[block] = 0;
            w->touched[c++] = block;
        }
        w->sums[block] = (int64_t)((uint64_t)w->sums[block] + (uint64_t)wt);
    }
    *count = c;
    w->width[u] = entry_width((int64_t)total);
    int64_t lo, hi;
    TRY(row(f, u, &lo, &hi));
    if (!f->dense[u]) {
        if (hi == lo && c)
            return fail(f, ERR_SEGMENT, u, -1);
        sort_blocks(w->touched, c);
    }
    for (int64_t j = 0; j < c; j++) {
        int64_t block = w->touched[j];
        w->seen[block] = 0;
        if (f->dense[u])
            f->vals[lo + block] = w->sums[block];
        else
            TRY(insert_new(f, u, lo, hi - lo, block, w->sums[block]));
    }
    return 0;
}

static int64_t walk(fm_t *f, walk_t *w, int64_t *out)
{
    out[BUILD_LOCKS] = out[BUILD_SEEDS] = 0;
    for (int64_t u = 0; u < f->n; u++) {
        nbhd_t h;
        TRY(neighborhood(f, u, 0, &h));
        if (!h.deg) {
            if (f->kind == TABLE_SPARSE)
                w->width[u] = entry_width(0);
            continue;
        }
        int64_t own = f->part[u], crossing = 0, block;
        if (!IN_RANGE(own, f->k))
            return fail(f, ERR_BLOCK, u, own);
        if (f->kind == TABLE_SPARSE) {
            int64_t count;
            TRY(sparse_row(f, w, u, &h, &count));
            if (!f->dense[u])
                out[BUILD_LOCKS] += count;
            crossing = count > 1 || w->touched[0] != own;
        } else if (f->kind == TABLE_FULL) {
            int64_t *r = f->vals + u * f->k;
            for (int64_t e = 0; e < h.deg; e++) {
                TRY(block_of(f, &h, e, &block));
                crossing |= block != own;
                r[block] = (int64_t)((uint64_t)r[block] + (uint64_t)weight_at(f, &h, e));
            }
        } else {
            for (int64_t e = 0; e < h.deg && !crossing; e++) {
                TRY(block_of(f, &h, e, &block));
                crossing = block != own;
            }
        }
        if (crossing)
            w->seeds[out[BUILD_SEEDS]++] = u;
    }
    return 0;
}

int64_t repro_gain_table_build(
    int64_t n, const int64_t *indptr, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, const int64_t *degs, const stream_t *stream, int64_t k, const int32_t *part,
    int64_t kind, int32_t *keys, int64_t *vals, const int64_t *offsets, const uint8_t *dense,
    int64_t vals_len, int64_t *width, int64_t *seeds, int64_t *out, int64_t *info)
{
    fm_t f = {
        .n = n, .indptr = indptr, .adj = adj, .wgt = wgt, .degs = degs, .unit_wgt = unit_wgt,
        .adj_len = adj_len, .stream = stream, .k = k, .part = (int32_t *)part, .kind = kind,
        .keys = keys, .vals = vals, .offsets = offsets, .dense = dense, .vals_len = vals_len,
        .info = info,
    };
    info[BAD_VERTEX] = info[BAD_BLOCK] = -1;
    if (n < 0 || k < 1 || kind < TABLE_NONE || kind > TABLE_SPARSE)
        return fail(&f, ERR_SEGMENT, -1, -1);
    if (kind == TABLE_FULL && (n > INT64_MAX / k || vals_len != n * k))
        return fail(&f, ERR_SEGMENT, -1, -1);
    walk_t w = {.width = width, .seeds = seeds};
    if (kind == TABLE_SPARSE) {
        w.sums = malloc(2 * (size_t)k * sizeof(int64_t));
        w.seen = calloc((size_t)k, 1);
        if (!w.sums || !w.seen) {
            free(w.sums);
            free(w.seen);
            return fail(&f, ERR_MEMORY, -1, -1);
        }
        w.touched = w.sums + k;
    }
    int64_t rc = walk(&f, &w, out);
    free(w.sums);
    free(w.seen);
    return rc;
}

int64_t repro_boundary_vertices(
    int64_t n, const int64_t *indptr, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, const int64_t *degs, const stream_t *stream, int64_t k, const int32_t *part,
    int64_t *seeds, int64_t *out, int64_t *info)
{
    return repro_gain_table_build(n, indptr, adj, wgt, unit_wgt, adj_len, degs, stream, k, part,
                                  TABLE_NONE, 0, 0, 0, 0, 0, 0, seeds, out, info);
}
