/* Native initial partitioning of repro.core.initial: greedy graph growing,
 * BFS growth and 2-way FM, each a port of a Python loop of the same name;
 * a bisection's whole attempt pool on them (recursive.bipartition_portfolio);
 * and the split of a labelled graph into the induced subgraphs the next
 * bisections work on (recursive.split).  The Python loops stay in
 * tests/oracles.py as the reference.
 *
 * Five exported functions, no state, no Python objects: ctypes calls them
 * with the GIL released.  One calling convention: the int64 arrays of a
 * BisectionWorkspace first -- n, xadj (n + 1), adj and wgt (xadj[n] each),
 * vwgt (n); wgt == NULL or vwgt == NULL means unit weights -- then the
 * function's own arguments and scratch (which the caller allocates and the
 * kernel initialises), then (searches and pool) the heap buffer, its
 * capacity in entries, and the work counters.
 *
 * Why the port is bit-identical: the queue holds (key, tie, vertex) triples
 * ordered by (key, tie), and tie is unique per entry (greedy growing counts
 * pushes; FM seeds vertex u with tie u < n and counts later pushes from n).
 * The order is total, so the sequence of pops is a function of the sequence
 * of pushes and any correct heap -- this one, Python's heapq -- produces it.
 *
 * Memory-safety contract (tests/test_initial_kernel.py and
 * tests/test_bisection_pool.py hold it to this):
 *   - adj and wgt are read only inside [xadj[u], xadj[u+1]) for 0 <= u < n;
 *     that xadj starts at 0, never descends and ends at len(adj) is the
 *     caller's to check, once per workspace (workspace.py does, in numpy;
 *     the workspaces repro_split writes are well formed by construction);
 *   - every id taken from adj or from `order` is range-checked against
 *     [0, n) before it indexes gain / state / side / vwgt or enters the heap
 *     or the queue (which only the kernel writes), every side[] entry is
 *     0 or 1 before it indexes a side weight, and every label and pool kind
 *     is range-checked before it indexes a table;
 *   - heap, moves, grown, queue, orders and the split's outputs are used
 *     only below the capacity passed with them.  n + xadj[n] entries bound
 *     every push count: a vertex is pushed as a seed at most once (growing
 *     seeds only a vertex that is then absorbed or blocked; FM seeds each
 *     boundary vertex once a pass and the heap is emptied between passes)
 *     and as a neighbour only by a vertex being absorbed / moved, which
 *     happens at most once per vertex (and pass) and pushes at most its
 *     degree;
 *   - no signed overflow: the caller admits only workspaces with n and
 *     W = sum |wgt| below 2^62 (so gains and sums of gains fit in int64,
 *     sums of their squares in __int128, and FM's stopping rule compares
 *     its products exactly in 192 bits), and total vertex weight and the
 *     caps below 2^62; the pool also needs attempts * W < 2^53 (see
 *     repro_bisect_pool);
 *   - a broken rule returns a negative code, never a trap.  Outputs are
 *     then partially written garbage the caller drops.
 *
 * work[0..4) accumulates heap pops, heap pushes (FM's seeds included), FM
 * passes and pushes of the vertex popped last in the same pass (always 0: a
 * stale entry is dropped, not renewed).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum {
    ERR_ID = -1,       /* vertex id outside [0, n) */
    ERR_CAPACITY = -2, /* heap, moves, grown, queue, orders or output would overflow */
    ERR_SIDE = -3,     /* assignment entry other than 0 or 1 */
    ERR_LABEL = -4     /* label, slot or pool kind out of range */
};

enum { POPS, PUSHES, PASSES, REPUSHES };

typedef struct {
    int64_t key, tie, vertex;
} entry_t;

typedef struct {
    int64_t n;
    const int64_t *xadj, *adj, *wgt, *vwgt; /* wgt, vwgt: NULL for unit */
} graph_t;

typedef struct {
    entry_t *at;
    int64_t size, cap;
    int64_t *work;
    int64_t popped; /* vertex of the last pop, -1 before the first */
} heap_t;

/* (key, tie) as one signed 128-bit number, key high and tie as its unsigned
 * low word: one branch-free comparison.  key * 2^64, not key << 64: shifting
 * a negative key is undefined, the product never overflows (|key| <= 2^63),
 * and gcc emits the same instructions for it. */
static inline int before(const entry_t *a, const entry_t *b)
{
    const __int128 high = (__int128)1 << 64;
    __int128 x = a->key * high | (uint64_t)a->tie;
    __int128 y = b->key * high | (uint64_t)b->tie;
    return x < y;
}

/* a * x >= b * y, exactly: both products carried in 192 bits (x, y below
 * 2^127, so each has a high and a low 64-bit word) */
static int product_at_least(uint64_t a, unsigned __int128 x, uint64_t b, unsigned __int128 y)
{
    const unsigned __int128 low = ~(uint64_t)0;
    unsigned __int128 ax0 = a * (x & low), ax1 = a * (x >> 64);
    unsigned __int128 by0 = b * (y & low), by1 = b * (y >> 64);
    /* a * x = ax1 * 2^64 + ax0 = top * 2^128 + mid * 2^64 + (ax0 & low) */
    unsigned __int128 amid = (ax0 >> 64) + (ax1 & low), bmid = (by0 >> 64) + (by1 & low);
    unsigned __int128 atop = (ax1 >> 64) + (amid >> 64), btop = (by1 >> 64) + (bmid >> 64);
    if (atop != btop)
        return atop > btop;
    if ((amid & low) != (bmid & low))
        return (amid & low) > (bmid & low);
    return (ax0 & low) >= (by0 & low);
}

/* place e at slot i or above it */
static inline void sift_up(entry_t *at, int64_t i, entry_t e)
{
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(&e, &at[parent]))
            break;
        at[i] = at[parent];
        i = parent;
    }
    at[i] = e;
}

static inline int heap_push(heap_t *h, int64_t key, int64_t tie, int64_t vertex)
{
    if (h->size >= h->cap)
        return ERR_CAPACITY;
    entry_t e = {key, tie, vertex};
    sift_up(h->at, h->size++, e);
    h->work[PUSHES]++;
    h->work[REPUSHES] += vertex == h->popped;
    return 0;
}

/* Caller checked size > 0.  The hole left by the top walks down to a leaf
 * along the smaller children, then the last entry rises from there: the
 * descent has no data-dependent branch but its end. */
static inline entry_t heap_pop(heap_t *h)
{
    entry_t *at = h->at, top = at[0], last = at[--h->size];
    int64_t i = 0, n = h->size, child;
    while ((child = 2 * i + 1) < n) {
        /* at[child + 1] is at most the slot just vacated: readable */
        child += (child + 1 < n) & before(&at[child + 1], &at[child]);
        at[i] = at[child];
        i = child;
    }
    if (n > 0)
        sift_up(at, i, last);
    h->work[POPS]++;
    h->popped = top.vertex;
    return top;
}

/* 0 <= v < n in one comparison (n >= 0) */
#define CHECK_ID(v)                            \
    do {                                       \
        if ((uint64_t)(v) >= (uint64_t)n)      \
            return ERR_ID;                     \
    } while (0)

#define TRY(call)                   \
    do {                            \
        int rc_ = (call);           \
        if (rc_)                    \
            return rc_;             \
    } while (0)

#define VWGT(g, u) ((g)->vwgt ? (g)->vwgt[u] : 1)
#define WGT(g, e) ((g)->wgt ? (g)->wgt[e] : 1)

/* Grow block 0 from random seeds by absorbing the frontier vertex of highest
 * gain until it weighs target0; a vertex that would pass max0 is blocked for
 * good.  Returns the number of vertices written to grown[] (absorption
 * order), or a negative ERR_*. */
static int64_t grow_greedy(
    const graph_t *g, const int64_t *order, int64_t target0, int64_t max0,
    int64_t *gain, uint8_t *in_block, uint8_t *blocked,
    int64_t *grown, int64_t grown_cap, heap_t *h)
{
    const int64_t n = g->n;
    int64_t counter = 0, weight0 = 0, count = 0, next = 0;

    h->size = 0;
    h->popped = -1;
    if (n <= 0)
        return 0;
    memset(gain, 0, (size_t)n * sizeof *gain);
    memset(in_block, 0, (size_t)n);
    memset(blocked, 0, (size_t)n);

    while (weight0 < target0) {
        if (h->size == 0) {
            /* (re)start from a fresh random seed (disconnected graphs) */
            for (; next < n; next++) {
                CHECK_ID(order[next]);
                if (!in_block[order[next]] && !blocked[order[next]])
                    break;
            }
            if (next >= n)
                break;
            TRY(heap_push(h, 0, counter++, order[next]));
        }
        /* gains only grow and the largest is popped first, so the first
         * entry of an unassigned vertex to surface carries its current gain */
        int64_t u = heap_pop(h).vertex;
        if (in_block[u] || blocked[u])
            continue;
        int64_t w = VWGT(g, u);
        if (weight0 + w > max0) {
            blocked[u] = 1;
            continue;
        }
        if (count >= grown_cap)
            return ERR_CAPACITY;
        in_block[u] = 1;
        grown[count++] = u;
        weight0 += w;
        for (int64_t e = g->xadj[u]; e < g->xadj[u + 1]; e++) {
            int64_t v = g->adj[e];
            CHECK_ID(v);
            if (in_block[v])
                continue;
            gain[v] += 2 * WGT(g, e); /* edge flips from cut to internal */
            TRY(heap_push(h, -gain[v], counter++, v));
        }
    }
    return count;
}

/* Plain BFS growth from random seeds until block 0 weighs target0.  queue[]
 * is both the FIFO and the answer: returns how many of its leading entries
 * were dequeued into block 0, or a negative ERR_*. */
static int64_t grow_bfs(
    const graph_t *g, const int64_t *order, int64_t target0,
    uint8_t *visited, int64_t *queue, int64_t queue_cap)
{
    const int64_t n = g->n;
    int64_t weight0 = 0, head = 0, tail = 0, next = 0;

    if (n <= 0)
        return 0;
    memset(visited, 0, (size_t)n);

    while (weight0 < target0) {
        if (head == tail) {
            for (; next < n; next++) {
                CHECK_ID(order[next]);
                if (!visited[order[next]])
                    break;
            }
            if (next >= n)
                break;
            if (tail >= queue_cap)
                return ERR_CAPACITY;
            visited[order[next]] = 1;
            queue[tail++] = order[next];
        }
        int64_t u = queue[head++];
        weight0 += VWGT(g, u);
        for (int64_t e = g->xadj[u]; e < g->xadj[u + 1]; e++) {
            int64_t v = g->adj[e];
            CHECK_ID(v);
            if (visited[v])
                continue;
            if (tail >= queue_cap)
                return ERR_CAPACITY;
            visited[v] = 1;
            queue[tail++] = v;
        }
    }
    return head;
}

/* Up to `rounds` passes of boundary-seeded 2-way FM with the adaptive
 * stopping rule on side[] (0/1 per vertex, refined in place).  Each pass
 * appends its kept prefix to moves[] and the prefix's length to kept[]: a
 * caller holding its own assignment replays them.  Returns the number of
 * passes run (<= rounds), or a negative ERR_*. */
static int64_t fm2way(
    const graph_t *g, int64_t max0, int64_t max1, int64_t rounds,
    int64_t patience, int8_t *side, int64_t *gain, uint8_t *locked,
    int64_t *kept, int64_t *moves, int64_t moves_cap, heap_t *h)
{
    const int64_t n = g->n;
    const int64_t max_weight[2] = {max0, max1};
    int64_t side_weight[2] = {0, 0};
    int64_t passes = 0, base = 0; /* moves[0..base) holds the earlier passes' prefixes */

    for (int64_t u = 0; u < n; u++) {
        if (side[u] & ~1)
            return ERR_SIDE;
        side_weight[side[u]] += VWGT(g, u);
    }

    while (passes < rounds) {
        /* gains, and the boundary as the pass's seeds: (-gain, u, u) */
        h->size = 0;
        h->popped = -1;
        for (int64_t u = 0; u < n; u++) {
            int64_t gu = 0, cut_edges = 0;
            for (int64_t e = g->xadj[u]; e < g->xadj[u + 1]; e++) {
                int64_t v = g->adj[e], w = WGT(g, e);
                CHECK_ID(v);
                int64_t across = side[v] != side[u];
                gu += across ? w : -w;
                cut_edges += across;
            }
            gain[u] = gu;
            locked[u] = 0;
            if (cut_edges)
                TRY(heap_push(h, -gu, u, u));
        }
        int64_t counter = n; /* later pushes sort after the seeds on equal gain */
        int64_t count = 0, best_prefix = 0, balance_total = 0, best_total = 0;
        /* moves since the best prefix, the sum and sum of squares of their gains */
        int64_t steps = 0, fallen = 0;
        __int128 squares = 0;
        passes++;
        h->work[PASSES]++;

        while (h->size) {
            entry_t top = heap_pop(h);
            int64_t u = top.vertex;
            if (locked[u])
                continue;
            int64_t gu = gain[u];
            if (gu != -top.key)
                continue; /* stale: the update that changed the gain pushed its own entry */
            locked[u] = 1;
            int src = side[u], dst = 1 - src;
            int64_t w = VWGT(g, u);
            if (side_weight[dst] + w > max_weight[dst])
                continue; /* cannot move this pass */
            if (base + count >= moves_cap)
                return ERR_CAPACITY;
            side[u] = (int8_t)dst;
            side_weight[src] -= w;
            side_weight[dst] += w;
            balance_total += gu;
            moves[base + count++] = u;
            if (balance_total > best_total) {
                best_total = balance_total;
                best_prefix = count;
                steps = fallen = 0;
                squares = 0;
            } else {
                steps++;
                fallen += gu;
                squares += (__int128)gu * gu;
                /* steps >= variance / (4 mean^2), cleared of divisions:
                 * 4 (steps - 1) f^2 >= steps squares - f^2, as
                 * (4 steps - 3) f^2 >= steps squares so no side is negative */
                if (steps > patience) {
                    __int128 f2 = (__int128)fallen * fallen;
                    if (fallen == 0
                        || product_at_least(4 * (uint64_t)steps - 3, (unsigned __int128)f2,
                                            (uint64_t)steps, (unsigned __int128)squares))
                        break;
                }
            }
            for (int64_t e = g->xadj[u]; e < g->xadj[u + 1]; e++) {
                int64_t v = g->adj[e], w2 = 2 * WGT(g, e);
                CHECK_ID(v);
                if (locked[v])
                    continue;
                gain[v] += side[v] == dst ? -w2 : w2;
                TRY(heap_push(h, -gain[v], counter++, v));
            }
        }

        /* keep the best prefix; the tail beyond it goes back */
        for (int64_t i = best_prefix; i < count; i++) {
            int64_t u = moves[base + i], w = VWGT(g, u);
            int now = side[u];
            side[u] = (int8_t)(1 - now);
            side_weight[now] -= w;
            side_weight[1 - now] += w;
        }
        kept[passes - 1] = best_prefix;
        base += best_prefix;
        if (best_total <= 0)
            break;
    }
    return passes;
}

/* The three searches as Python's BisectionKernels calls them one at a time
 * (the public functions of bipartition.py and fm2way.py). */
int64_t repro_greedy_graph_growing(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, const int64_t *order, int64_t target0, int64_t max0,
    int64_t *gain, uint8_t *in_block, uint8_t *blocked,
    int64_t *grown, int64_t grown_cap, int64_t *heap, int64_t heap_cap,
    int64_t *work)
{
    graph_t g = {n, xadj, adj, wgt, vwgt};
    heap_t h = {(entry_t *)heap, 0, heap_cap, work, -1};
    return grow_greedy(&g, order, target0, max0, gain, in_block, blocked, grown, grown_cap, &h);
}

/* Edge weights, heap and counters are part of the shared calling convention
 * and unused. */
int64_t repro_bfs_growing(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, const int64_t *order, int64_t target0,
    uint8_t *visited, int64_t *queue, int64_t queue_cap,
    int64_t *heap, int64_t heap_cap, int64_t *work)
{
    graph_t g = {n, xadj, adj, wgt, vwgt};
    (void)heap, (void)heap_cap, (void)work;
    return grow_bfs(&g, order, target0, visited, queue, queue_cap);
}

int64_t repro_fm2way(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, int64_t max0, int64_t max1, int64_t rounds,
    int64_t patience, int8_t *side, int64_t *gain, uint8_t *locked,
    int64_t *kept, int64_t *moves, int64_t moves_cap,
    int64_t *heap, int64_t heap_cap, int64_t *work)
{
    graph_t g = {n, xadj, adj, wgt, vwgt};
    heap_t h = {(entry_t *)heap, 0, heap_cap, work, -1};
    return fm2way(&g, max0, max1, rounds, patience, side, gain, locked, kept, moves, moves_cap, &h);
}

enum { KIND_GGG, KIND_BFS, KIND_RANDOM, KINDS };
/* one stats row a pool slot */
enum { ROW_KIND, ROW_RAN, ROW_INFEASIBLE, ROW_CUT, ROW_POPS, ROW_PUSHES, ROW_PASSES, ROW_LEN };

/* A bisection's whole attempt pool (recursive.bipartition_portfolio): slot
 * i seeds with kind pool[i % pool_len] -- greedy growing, BFS growth or the
 * random walk -- from the next unused row of orders[] (n ids a row; only a
 * slot that runs takes one), polishes the seed with 2-way FM and keeps the
 * best (infeasibility, cut), the first on ties.  A slot is skipped once its
 * kind has run, a feasible assignment exists and the mean of the kind's cuts
 * lies more than `sigmas` standard deviations above the best cut: the rule
 * in doubles with Python's order of operations, exact while every sum of
 * cuts stays below 2^53 (the caller admits attempts * sum |wgt| < 2^53, so
 * sums convert to doubles exactly and each operation rounds once, as
 * Python's).  Writes the best assignment to part[] and one row of ROW_LEN
 * to rows[] a slot (kind, ran, infeasibility, cut, heap pops, heap pushes,
 * FM passes; zeros past the kind for a skipped slot).  Returns the number of
 * orders used, or a negative ERR_*. */
int64_t repro_bisect_pool(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, int64_t target0, int64_t max0, int64_t max1,
    const int64_t *pool, int64_t pool_len, int64_t attempts, double sigmas,
    int64_t rounds, int64_t patience, const int64_t *orders, int64_t order_count,
    int64_t *gain, uint8_t *in_block, uint8_t *blocked, uint8_t *visited,
    int64_t *grown, int8_t *side, int8_t *best_side, int64_t *fm_gain,
    uint8_t *locked, int64_t *kept, int64_t *moves, int64_t moves_cap,
    int32_t *part, int64_t *rows, int64_t *heap, int64_t heap_cap, int64_t *work)
{
    graph_t g = {n, xadj, adj, wgt, vwgt};
    heap_t h = {(entry_t *)heap, 0, heap_cap, work, -1};
    /* per kind: runs, sum and sum of squares of the post-FM cuts */
    int64_t runs[KINDS] = {0}, cuts[KINDS] = {0};
    __int128 squares[KINDS] = {0};
    int64_t total = 0, used = 0, best_infeasible = 0, best_cut = 0;
    int have_best = 0;

    if (n < 0 || pool_len <= 0)
        return ERR_LABEL;
    for (int64_t u = 0; u < n; u++)
        total += VWGT(&g, u);

    for (int64_t slot = 0; slot < attempts; slot++) {
        int64_t *row = rows + slot * ROW_LEN, kind = pool[slot % pool_len];
        if ((uint64_t)kind >= KINDS)
            return ERR_LABEL;
        memset(row, 0, ROW_LEN * sizeof *row);
        row[ROW_KIND] = kind;
        if (runs[kind] && have_best && best_infeasible == 0) {
            double mean = (double)cuts[kind] / (double)runs[kind];
            double variance = runs[kind] > 1
                ? ((double)squares[kind] - (double)cuts[kind] * mean) / (double)(runs[kind] - 1)
                : 0.0;
            /* best_cut < 2^53 converts exactly: the comparison is Python's */
            if (mean - sigmas * sqrt(0.0 > variance ? 0.0 : variance) > (double)best_cut)
                continue;
        }
        if (used >= order_count)
            return ERR_CAPACITY;
        const int64_t *order = orders + used++ * n;
        const int64_t pops = work[POPS], pushes = work[PUSHES], passes = work[PASSES];

        /* the seed: block 0 is what the search grew, everything else is 1 */
        memset(side, 1, (size_t)n);
        if (kind == KIND_RANDOM) {
            /* the vertices whose preceding weight in the order is below the
             * target: random_bipartition's searchsorted, as a walk */
            int64_t before = 0;
            for (int64_t i = 0; i < n && before < target0; i++) {
                int64_t v = order[i];
                CHECK_ID(v);
                side[v] = 0;
                before += VWGT(&g, v);
            }
        } else {
            int64_t count = kind == KIND_GGG
                ? grow_greedy(&g, order, target0, max0, gain, in_block, blocked, grown, n, &h)
                : grow_bfs(&g, order, target0, visited, grown, n);
            if (count < 0)
                return count;
            for (int64_t i = 0; i < count; i++)
                side[grown[i]] = 0;
        }
        int64_t rc = fm2way(&g, max0, max1, rounds, patience, side, fm_gain, locked, kept,
                            moves, moves_cap, &h);
        if (rc < 0)
            return rc;

        int64_t w0 = 0, crossing = 0;
        for (int64_t u = 0; u < n; u++) {
            if (side[u] == 0)
                w0 += VWGT(&g, u);
            for (int64_t e = xadj[u]; e < xadj[u + 1]; e++) {
                CHECK_ID(adj[e]);
                if (side[adj[e]] != side[u])
                    crossing += WGT(&g, e);
            }
        }
        int64_t cut = (crossing - (crossing & 1)) / 2; /* floor, as Python's // */
        int64_t infeasible = (w0 > max0 ? w0 - max0 : 0)
            + (total - w0 > max1 ? total - w0 - max1 : 0);
        row[ROW_RAN] = 1;
        row[ROW_INFEASIBLE] = infeasible;
        row[ROW_CUT] = cut;
        row[ROW_POPS] = work[POPS] - pops;
        row[ROW_PUSHES] = work[PUSHES] - pushes;
        row[ROW_PASSES] = work[PASSES] - passes;
        runs[kind]++;
        cuts[kind] += cut;
        squares[kind] += (__int128)cut * cut;
        if (!have_best || infeasible < best_infeasible
            || (infeasible == best_infeasible && cut < best_cut)) {
            int8_t *swap = best_side;
            best_side = side;
            side = swap;
            best_infeasible = infeasible;
            best_cut = cut;
            have_best = 1;
        }
    }
    for (int64_t u = 0; u < n; u++)
        part[u] = best_side[u];
    return used;
}

/* one row of repro_split's info a slot */
enum { SPLIT_N, SPLIT_M, SPLIT_VERTEX_START, SPLIT_EDGE_START, SPLIT_WEIGHT, SPLIT_UNIT, SPLIT_LEN };

/* Stable sort of one row by neighbour id, weights alongside (wgt may be
 * NULL): insertion sort for short rows, a bottom-up merge through the
 * scratch above.  The rows of a sorted parent arrive sorted, so the common
 * case is the one ascending scan. */
static void sort_row(int64_t *adj, int64_t *wgt, int64_t len, int64_t *tmp_adj, int64_t *tmp_wgt)
{
    enum { RUN = 16 };
    int64_t i;
    for (i = 1; i < len && adj[i - 1] <= adj[i]; i++)
        ;
    if (i >= len)
        return;
    for (int64_t lo = 0; lo < len; lo += RUN) {
        int64_t hi = lo + RUN < len ? lo + RUN : len;
        for (int64_t j = lo + 1; j < hi; j++) {
            int64_t a = adj[j], w = wgt ? wgt[j] : 0, k = j;
            for (; k > lo && adj[k - 1] > a; k--) {
                adj[k] = adj[k - 1];
                if (wgt)
                    wgt[k] = wgt[k - 1];
            }
            adj[k] = a;
            if (wgt)
                wgt[k] = w;
        }
    }
    int64_t *src_adj = adj, *src_wgt = wgt, *dst_adj = tmp_adj, *dst_wgt = tmp_wgt;
    for (int64_t width = RUN; width < len; width *= 2) {
        for (int64_t lo = 0; lo < len; lo += 2 * width) {
            int64_t mid = lo + width < len ? lo + width : len;
            int64_t hi = mid + width < len ? mid + width : len;
            int64_t a = lo, b = mid, out = lo;
            while (a < mid || b < hi) {
                /* the left run wins ties: stable */
                int64_t from = b >= hi || (a < mid && src_adj[a] <= src_adj[b]) ? a++ : b++;
                dst_adj[out] = src_adj[from];
                if (wgt)
                    dst_wgt[out] = src_wgt[from];
                out++;
            }
        }
        int64_t *swap = src_adj;
        src_adj = dst_adj, dst_adj = swap;
        swap = src_wgt, src_wgt = dst_wgt, dst_wgt = swap;
    }
    if (src_adj != adj) {
        memcpy(adj, src_adj, (size_t)len * sizeof *adj);
        if (wgt)
            memcpy(wgt, src_wgt, (size_t)len * sizeof *wgt);
    }
}

/* The induced subgraphs of the vertices labelled b, for every label b with
 * slot_of[b] >= 0, in one pass (recursive.extract_subgraphs): slot s's
 * vertices keep their order and are renumbered 0.., each row lists the
 * neighbours inside the slot by new id, stably sorted (lexsort's order), and
 * the slot's workspace lands in the outputs at the starts info[] names --
 * xadj at out_xadj[vertex start + s] (n_s + 1 entries from 0), adj / wgt at
 * the edge start (m_s entries; a slot's region is the degree sum of its
 * vertices, so m_s may leave a gap), vwgt and ids at the vertex start.
 * out_ids[] holds ids[v] (v itself when ids == NULL) for each vertex v;
 * out_wgt / out_vwgt are written only when wgt / vwgt are given.  One row of
 * SPLIT_LEN a slot: n_s, m_s, vertex start, edge start, total vertex weight,
 * 1 if every kept edge weighs 1.  local[] (n) and the sort scratch (two
 * halves of sort_cap, sort_cap >= the largest degree) are scratch.
 * Returns 0 or a negative ERR_*. */
int64_t repro_split(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, const int32_t *labels, const int64_t *slot_of,
    int64_t label_count, int64_t slots, const int64_t *ids, int64_t *local,
    int64_t *out_xadj, int64_t *out_adj, int64_t *out_wgt, int64_t adj_cap,
    int64_t *out_vwgt, int64_t *out_ids, int64_t *sort_scratch, int64_t sort_cap,
    int64_t *info)
{
    int64_t vertex_start = 0, edge_start = 0;

    if (n < 0 || slots < 0)
        return ERR_LABEL;
    memset(info, 0, (size_t)(slots * SPLIT_LEN) * sizeof *info);
    for (int64_t b = 0; b < label_count; b++)
        if (slot_of[b] < -1 || slot_of[b] >= slots)
            return ERR_LABEL;
    /* new ids, and each slot's vertex count and degree sum */
    for (int64_t u = 0; u < n; u++) {
        int64_t label = labels[u];
        if ((uint64_t)label >= (uint64_t)label_count)
            return ERR_LABEL;
        int64_t s = slot_of[label];
        if (s < 0)
            continue;
        int64_t *row = info + s * SPLIT_LEN;
        local[u] = row[SPLIT_N]++;
        row[SPLIT_EDGE_START] += xadj[u + 1] - xadj[u]; /* the degree sum, for now */
    }
    for (int64_t s = 0; s < slots; s++) {
        int64_t *row = info + s * SPLIT_LEN, degrees = row[SPLIT_EDGE_START];
        row[SPLIT_VERTEX_START] = vertex_start;
        row[SPLIT_EDGE_START] = edge_start;
        row[SPLIT_UNIT] = 1;
        vertex_start += row[SPLIT_N];
        edge_start += degrees;
    }
    if (edge_start > adj_cap)
        return ERR_CAPACITY;
    for (int64_t s = 0; s < slots; s++) { /* reset the counts, kept as fill positions */
        int64_t *row = info + s * SPLIT_LEN;
        out_xadj[row[SPLIT_VERTEX_START] + s] = 0;
        row[SPLIT_N] = 0;
    }
    for (int64_t u = 0; u < n; u++) {
        int64_t s = slot_of[labels[u]];
        if (s < 0)
            continue;
        int64_t *row = info + s * SPLIT_LEN, label = labels[u];
        int64_t at = row[SPLIT_VERTEX_START] + row[SPLIT_N]++;
        int64_t *edges = out_adj + row[SPLIT_EDGE_START], lo = row[SPLIT_M];
        out_ids[at] = ids ? ids[u] : u;
        if (vwgt) {
            out_vwgt[at] = vwgt[u];
            row[SPLIT_WEIGHT] += vwgt[u];
        } else {
            row[SPLIT_WEIGHT] += 1;
        }
        for (int64_t e = xadj[u]; e < xadj[u + 1]; e++) {
            int64_t v = adj[e];
            CHECK_ID(v);
            if (labels[v] != label)
                continue;
            edges[row[SPLIT_M]] = local[v];
            if (wgt) {
                out_wgt[row[SPLIT_EDGE_START] + row[SPLIT_M]] = wgt[e];
                row[SPLIT_UNIT] &= wgt[e] == 1;
            }
            row[SPLIT_M]++;
        }
        int64_t len = row[SPLIT_M] - lo;
        if (len > sort_cap)
            return ERR_CAPACITY;
        sort_row(edges + lo, wgt ? out_wgt + row[SPLIT_EDGE_START] + lo : NULL, len,
                 sort_scratch, sort_scratch + sort_cap);
        out_xadj[at + s + 1] = row[SPLIT_M];
    }
    return 0;
}
