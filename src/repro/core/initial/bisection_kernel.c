/* Native initial partitioning of repro.core.initial: greedy graph growing,
 * BFS growth and 2-way FM, each a port of a Python loop of the same name;
 * the split of a labelled graph into the induced subgraphs the next
 * bisections work on (deep multilevel's split rounds); and one depth of
 * recursive bisection's tree, every node's attempt pool on those searches
 * and its split in one call (recursive.initial_partition, and each deep
 * split round).  The Python loops, the recursion and the per-block split
 * round stay in tests/oracles.py as the reference.
 *
 * Four exported functions, no state, no Python objects: ctypes calls them
 * with the GIL released.  One calling convention: the int64 arrays of the
 * graph a BisectionTree binds first -- n, xadj (n + 1), adj and wgt
 * (xadj[n] each), vwgt (n); wgt == NULL or vwgt == NULL means unit weights
 * -- then the function's own arguments and scratch (which the caller
 * allocates and the kernel initialises), then (searches and depth) the
 * heap buffer, its capacity in entries of three words, and the work
 * counters.
 *
 * Why the port is bit-identical: the queue holds (key, tie, vertex) triples
 * ordered by (key, tie), and tie is unique per entry (greedy growing counts
 * pushes; FM seeds vertex u with tie u < n and counts later pushes from n).
 * The order is total, so the sequence of pops is a function of the sequence
 * of pushes and any correct priority queue -- this one, Python's heapq --
 * produces it.  The queue is a binary heap, or buckets when the keys are
 * small integers (queue_init): both searches push their ties in increasing
 * order, so a bucket's FIFO order is its (key, tie) order.
 *
 * Memory-safety contract (tests/test_initial_kernel.py and
 * tests/test_bisection_pool.py hold it to this):
 *   - adj and wgt are read only inside [xadj[u], xadj[u+1]) for 0 <= u < n;
 *     that xadj starts at 0, never descends and ends at len(adj) is the
 *     caller's to check, once per bound graph (workspace.py does, in numpy;
 *     the subgraphs repro_split writes are well formed by construction,
 *     and repro_bisect_depth checks each node's region itself);
 *   - every id taken from adj or from `order` is range-checked against
 *     [0, n) before it indexes gain / state / side / vwgt or enters the
 *     queue (which only the kernel writes), every side[] entry is 0 or 1
 *     before it indexes a side weight, every label, pool kind, seed index
 *     and block id is range-checked before it indexes a table, and every
 *     key before it indexes a bucket;
 *   - heap, moves, grown, queue and the outputs are used only below the
 *     capacity passed with them (the pool's order row: n entries).  n +
 *     xadj[n] entries bound every push count: a vertex is pushed as a seed
 *     at most once (growing seeds only a vertex that is then absorbed or
 *     blocked; FM seeds each boundary vertex once a pass and the queue is
 *     emptied between passes) and as a neighbour only by a vertex being
 *     absorbed / moved, which happens at most once per vertex (and pass)
 *     and pushes at most its degree;
 *   - no signed overflow: the caller admits only graphs with n and
 *     W = sum |wgt| below 2^62 (so gains and sums of gains fit in int64,
 *     sums of their squares in __int128, and FM's stopping rule compares
 *     its products exactly in 192 bits), and total vertex weight and the
 *     caps below 2^62; a pool also needs attempts * W < 2^53 (see
 *     bisect_pool);
 *   - a broken rule returns a negative code, never a trap.  Outputs are
 *     then partially written garbage the caller drops.
 *
 * work[0..4) accumulates queue pops, queue pushes (FM's seeds included), FM
 * passes and pushes of the vertex popped last in the same pass (always 0: a
 * stale entry is dropped, not renewed).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum {
    ERR_ID = -1,       /* vertex id outside [0, n) */
    ERR_CAPACITY = -2, /* heap, moves, grown, queue or output would overflow */
    ERR_SIDE = -3,     /* assignment entry other than 0 or 1 */
    ERR_LABEL = -4,    /* label, slot, pool kind, seed or block out of range */
    ERR_XADJ = -5      /* a node's xadj does not tile its adjacency */
};

enum { POPS, PUSHES, PASSES, REPUSHES };

typedef struct {
    int64_t key, tie, vertex;
} entry_t;

typedef struct {
    int64_t n;
    const int64_t *xadj, *adj, *wgt, *vwgt; /* wgt, vwgt: NULL for unit */
} graph_t;

/* The searches' priority queue over the caller's heap buffer (cap entries
 * of three words), in one of two layouts picked by queue_init:
 *   - a binary heap of (key, tie, vertex) triples;
 *   - buckets, one a key of [-offset, buckets - offset): entry e's vertex
 *     and successor are words e and cap + e, bucket b's first and last
 *     entries words 2 cap + b and 2 cap + buckets + b.  A bucket is a FIFO
 *     list, a popped entry goes to a free list, and no bucket below
 *     `lowest` holds an entry.  The tie is not stored: pushes come in
 *     increasing tie order, so FIFO within a key is (key, tie) order.
 * Either layout holds at most cap entries at once and counts work alike. */
typedef struct {
    int64_t size, cap;
    int64_t *work;
    int64_t popped; /* vertex of the last pop, -1 before the first */
    entry_t *at;    /* the heap */
    int64_t buckets, offset; /* buckets == 0: the heap */
    int64_t *vertex, *next, *head, *tail;
    int64_t lowest, fresh, free_list; /* entries [fresh, cap) were never used */
} queue_t;

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

/* Caller checked size > 0.  The hole left by the top walks down to a leaf
 * along the smaller children, then the last entry rises from there: the
 * descent has no data-dependent branch but its end. */
static inline entry_t heap_pop(entry_t *at, int64_t *size)
{
    entry_t top = at[0], last = at[--*size];
    int64_t i = 0, n = *size, child;
    while ((child = 2 * i + 1) < n) {
        /* at[child + 1] is at most the slot just vacated: readable */
        child += (child + 1 < n) & before(&at[child + 1], &at[child]);
        at[i] = at[child];
        i = child;
    }
    if (n > 0)
        sift_up(at, i, last);
    return top;
}

/* The largest sum of edge weights at one vertex, or -1 if an edge weighs
 * less than 0 (every sum stays below W < 2^62) */
static int64_t heaviest_vertex(const graph_t *g)
{
    int64_t heaviest = 0;
    for (int64_t u = 0; u < g->n; u++) {
        int64_t sum = g->xadj[u + 1] - g->xadj[u];
        if (g->wgt) {
            sum = 0;
            for (int64_t e = g->xadj[u]; e < g->xadj[u + 1]; e++) {
                if (g->wgt[e] < 0)
                    return -1;
                sum += g->wgt[e];
            }
        }
        heaviest = sum > heaviest ? sum : heaviest;
    }
    return heaviest;
}

/* The queue of one graph's searches over `words` (cap entries).  With D the
 * heaviest vertex, keys lie in [-2D, D]: growing's gains in [0, 2D] (twice
 * a vertex's weight into the block), FM's in [-D, D] (its weight across
 * minus its weight inside).  Buckets when their 3D + 1 take at most half of
 * min(n + m, cap) -- heads and tails then fit beside the entries, and
 * resetting them costs less than a search's own scan -- else the heap. */
static void queue_init(queue_t *q, const graph_t *g, int64_t *words, int64_t cap, int64_t *work)
{
    int64_t limit = g->n + g->xadj[g->n], heaviest = heaviest_vertex(g);
    memset(q, 0, sizeof *q);
    q->cap = cap;
    q->work = work;
    q->popped = -1;
    q->at = (entry_t *)words;
    limit = (cap < limit ? cap : limit) / 2;
    if (heaviest >= 0 && limit >= 1 && heaviest <= (limit - 1) / 3) {
        q->buckets = 3 * heaviest + 1;
        q->offset = 2 * heaviest;
        q->vertex = words;
        q->next = words + cap;
        q->head = words + 2 * cap;
        q->tail = q->head + q->buckets;
    }
}

static void queue_reset(queue_t *q)
{
    q->size = 0;
    q->popped = -1;
    if (q->buckets) {
        memset(q->head, 0xff, (size_t)q->buckets * sizeof *q->head); /* every head -1 */
        q->lowest = q->buckets;
        q->fresh = 0;
        q->free_list = -1;
    }
}

static inline int queue_push(queue_t *q, int64_t key, int64_t tie, int64_t vertex)
{
    if (q->size >= q->cap)
        return ERR_CAPACITY;
    if (q->buckets) {
        /* unsigned: a key outside the range wraps above it, never indexes */
        uint64_t b = (uint64_t)key + (uint64_t)q->offset;
        if (b >= (uint64_t)q->buckets)
            return ERR_CAPACITY;
        int64_t e = q->free_list;
        if (e >= 0)
            q->free_list = q->next[e];
        else
            e = q->fresh++; /* no free entry: [0, fresh) are all held, fresh < cap */
        q->vertex[e] = vertex;
        q->next[e] = -1;
        if (q->head[b] < 0)
            q->head[b] = e;
        else
            q->next[q->tail[b]] = e;
        q->tail[b] = e;
        q->lowest = (int64_t)b < q->lowest ? (int64_t)b : q->lowest;
        q->size++;
    } else {
        entry_t e = {key, tie, vertex};
        sift_up(q->at, q->size++, e);
    }
    q->work[PUSHES]++;
    q->work[REPUSHES] += vertex == q->popped;
    return 0;
}

/* Caller checked size > 0, so a bucket at or above `lowest` holds an entry.
 * A bucket's pop carries tie 0: no caller reads it. */
static inline entry_t queue_pop(queue_t *q)
{
    entry_t top;
    if (q->buckets) {
        while (q->head[q->lowest] < 0)
            q->lowest++;
        int64_t b = q->lowest, e = q->head[b];
        q->head[b] = q->next[e];
        q->next[e] = q->free_list;
        q->free_list = e;
        q->size--;
        top.key = b - q->offset;
        top.tie = 0;
        top.vertex = q->vertex[e];
    } else {
        top = heap_pop(q->at, &q->size);
    }
    q->work[POPS]++;
    q->popped = top.vertex;
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
    int64_t *grown, int64_t grown_cap, queue_t *q)
{
    const int64_t n = g->n;
    int64_t counter = 0, weight0 = 0, count = 0, next = 0;

    queue_reset(q);
    if (n <= 0)
        return 0;
    memset(gain, 0, (size_t)n * sizeof *gain);
    memset(in_block, 0, (size_t)n);
    memset(blocked, 0, (size_t)n);

    while (weight0 < target0) {
        if (q->size == 0) {
            /* (re)start from a fresh random seed (disconnected graphs) */
            for (; next < n; next++) {
                CHECK_ID(order[next]);
                if (!in_block[order[next]] && !blocked[order[next]])
                    break;
            }
            if (next >= n)
                break;
            TRY(queue_push(q, 0, counter++, order[next]));
        }
        /* gains only grow and the largest is popped first, so the first
         * entry of an unassigned vertex to surface carries its current gain */
        int64_t u = queue_pop(q).vertex;
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
            TRY(queue_push(q, -gain[v], counter++, v));
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
    int64_t *kept, int64_t *moves, int64_t moves_cap, queue_t *q)
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
        queue_reset(q);
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
                TRY(queue_push(q, -gu, u, u));
        }
        int64_t counter = n; /* later pushes sort after the seeds on equal gain */
        int64_t count = 0, best_prefix = 0, balance_total = 0, best_total = 0;
        /* moves since the best prefix, the sum and sum of squares of their gains */
        int64_t steps = 0, fallen = 0;
        __int128 squares = 0;
        passes++;
        q->work[PASSES]++;

        while (q->size) {
            entry_t top = queue_pop(q);
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
                TRY(queue_push(q, -gain[v], counter++, v));
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

/* The two searches as Python's BisectionTree calls them one at a time
 * (the public functions of bipartition.py and fm2way.py). */
int64_t repro_greedy_graph_growing(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, const int64_t *order, int64_t target0, int64_t max0,
    int64_t *gain, uint8_t *in_block, uint8_t *blocked,
    int64_t *grown, int64_t grown_cap, int64_t *heap, int64_t heap_cap,
    int64_t *work)
{
    graph_t g = {n, xadj, adj, wgt, vwgt};
    queue_t q;
    queue_init(&q, &g, heap, heap_cap, work);
    return grow_greedy(&g, order, target0, max0, gain, in_block, blocked, grown, grown_cap, &q);
}

int64_t repro_fm2way(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, int64_t max0, int64_t max1, int64_t rounds,
    int64_t patience, int8_t *side, int64_t *gain, uint8_t *locked,
    int64_t *kept, int64_t *moves, int64_t moves_cap,
    int64_t *heap, int64_t heap_cap, int64_t *work)
{
    graph_t g = {n, xadj, adj, wgt, vwgt};
    queue_t q;
    queue_init(&q, &g, heap, heap_cap, work);
    return fm2way(&g, max0, max1, rounds, patience, side, gain, locked, kept, moves, moves_cap, &q);
}

enum { KIND_GGG, KIND_BFS, KIND_RANDOM, KINDS };
/* one stats row a pool slot */
enum { ROW_KIND, ROW_RAN, ROW_INFEASIBLE, ROW_CUT, ROW_POPS, ROW_PUSHES, ROW_PASSES, ROW_LEN };

#define GOLDEN_GAMMA 0x9e3779b97f4a7c15u

/* splitmix64's output function: a bijection of 64-bit words */
static inline uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
    return z ^ (z >> 31);
}

/* Pool slot `slot`'s visiting order of 0..n-1 for a bisection seeded `seed`:
 * a Fisher-Yates shuffle (i from n-1 down to 1 swaps i with j = the high
 * word of r * (i + 1)) fed by splitmix64 from the key
 * mix64(seed ^ mix64(slot + gamma)).  The slot is mixed before it meets
 * the seed, so the slots of one seed start from unrelated keys and their
 * streams do not overlap; an order depends on (seed, slot, n) alone, not on
 * how many slots the pool has or runs.  tests/oracles.py::slot_order is the
 * same derivation in Python. */
static void slot_order(uint64_t seed, int64_t slot, int64_t n, int64_t *order)
{
    uint64_t state = mix64(seed ^ mix64((uint64_t)slot + GOLDEN_GAMMA));
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        state += GOLDEN_GAMMA;
        int64_t j = (int64_t)(((unsigned __int128)mix64(state) * (uint64_t)(i + 1)) >> 64);
        int64_t swap = order[i];
        order[i] = order[j];
        order[j] = swap;
    }
}

/* A pool's per-vertex scratch (n entries each unless noted) */
typedef struct {
    int64_t *gain;
    uint8_t *in_block, *blocked, *visited;
    int64_t *grown;
    int8_t *side, *best_side;
    int64_t *order, *fm_gain;
    uint8_t *locked;
    int64_t *kept, *moves, moves_cap; /* kept: rounds entries, moves: moves_cap */
} pool_scratch_t;

/* What every pool of a call shares: the kinds, the size and the rules */
typedef struct {
    const int64_t *kinds;
    int64_t kinds_len, attempts;
    double sigmas;
    int64_t rounds;
} pool_spec_t;

/* A bisection's whole attempt pool (tests/oracles.py::portfolio): slot
 * i seeds with kind kinds[i % kinds_len] -- greedy growing, BFS growth or
 * the random walk -- from slot_order(seed, i) written into order[] (n
 * entries; only a slot that runs builds its order), polishes the seed with
 * 2-way FM and keeps the best (infeasibility, cut), the first on ties.  A
 * slot is skipped once its kind has run, a feasible assignment exists and
 * the mean of the kind's cuts lies more than `sigmas` standard deviations
 * above the best cut: the rule in doubles with Python's order of
 * operations, exact while every sum of cuts stays below 2^53 (the caller
 * admits attempts * sum |wgt| < 2^53, so sums convert to doubles exactly
 * and each operation rounds once, as Python's).  Points *best at the best
 * assignment (side or best_side of the scratch) and writes one row of
 * ROW_LEN to rows[] a slot (kind, ran, infeasibility, cut, queue pops,
 * queue pushes, FM passes; zeros past the kind for a skipped slot).
 * Returns 0 or a negative ERR_*. */
static int64_t bisect_pool(
    const graph_t *g, int64_t target0, int64_t max0, int64_t max1, const pool_spec_t *spec,
    int64_t patience, uint64_t seed, pool_scratch_t s, int64_t *rows, queue_t *q,
    const int8_t **best)
{
    const int64_t n = g->n, *work = q->work;
    /* per kind: runs, sum and sum of squares of the post-FM cuts */
    int64_t runs[KINDS] = {0}, cuts[KINDS] = {0};
    __int128 squares[KINDS] = {0};
    int64_t total = 0, best_infeasible = 0, best_cut = 0;
    int have_best = 0;

    if (n < 0 || spec->kinds_len <= 0)
        return ERR_LABEL;
    for (int64_t u = 0; u < n; u++)
        total += VWGT(g, u);

    for (int64_t slot = 0; slot < spec->attempts; slot++) {
        int64_t *row = rows + slot * ROW_LEN, kind = spec->kinds[slot % spec->kinds_len];
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
            if (mean - spec->sigmas * sqrt(0.0 > variance ? 0.0 : variance) > (double)best_cut)
                continue;
        }
        slot_order(seed, slot, n, s.order);
        const int64_t pops = work[POPS], pushes = work[PUSHES], passes = work[PASSES];

        /* the seed: block 0 is what the search grew, everything else is 1 */
        memset(s.side, 1, (size_t)n);
        if (kind == KIND_RANDOM) {
            /* the vertices whose preceding weight in the order is below the
             * target: tests/oracles.py::random_walk's searchsorted, as a walk */
            int64_t before = 0;
            for (int64_t i = 0; i < n && before < target0; i++) {
                int64_t v = s.order[i];
                CHECK_ID(v);
                s.side[v] = 0;
                before += VWGT(g, v);
            }
        } else {
            int64_t count = kind == KIND_GGG
                ? grow_greedy(g, s.order, target0, max0, s.gain, s.in_block, s.blocked, s.grown,
                              n, q)
                : grow_bfs(g, s.order, target0, s.visited, s.grown, n);
            if (count < 0)
                return count;
            for (int64_t i = 0; i < count; i++)
                s.side[s.grown[i]] = 0;
        }
        int64_t rc = fm2way(g, max0, max1, spec->rounds, patience, s.side, s.fm_gain, s.locked,
                            s.kept, s.moves, s.moves_cap, q);
        if (rc < 0)
            return rc;

        int64_t w0 = 0, crossing = 0;
        for (int64_t u = 0; u < n; u++) {
            if (s.side[u] == 0)
                w0 += VWGT(g, u);
            for (int64_t e = g->xadj[u]; e < g->xadj[u + 1]; e++) {
                CHECK_ID(g->adj[e]);
                if (s.side[g->adj[e]] != s.side[u])
                    crossing += WGT(g, e);
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
            int8_t *swap = s.best_side;
            s.best_side = s.side;
            s.side = swap;
            best_infeasible = infeasible;
            best_cut = cut;
            have_best = 1;
        }
    }
    *best = s.best_side;
    return 0;
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
 * slot_of[b] >= 0, in one pass (tests/oracles.py::extract_subgraphs): slot s's
 * vertices keep their order and are renumbered 0.., each row lists the
 * neighbours inside the slot by new id, stably sorted (lexsort's order), and
 * the slot's subgraph lands in the outputs at the starts info[] names --
 * xadj at out_xadj[vertex start + s] (n_s + 1 entries from 0), adj / wgt at
 * the edge start (m_s entries; a slot's region is the degree sum of its
 * vertices, so m_s may leave a gap), vwgt and ids at the vertex start.
 * out_ids[] holds ids[v] (v itself when ids == NULL) for each vertex v;
 * out_wgt / out_vwgt are written only when wgt / vwgt are given.  One row of
 * SPLIT_LEN a slot: n_s, m_s, vertex start, edge start, total vertex weight,
 * 1 if every kept edge weighs 1.  local[] (n) and the sort scratch (two
 * halves of sort_cap, sort_cap >= the largest degree) are scratch.
 * Returns 0 or a negative ERR_*. */
static int64_t split_graph(
    const graph_t *g, const int32_t *labels, const int64_t *slot_of, int64_t label_count,
    int64_t slots, const int64_t *ids, int64_t *local, int64_t *out_xadj, int64_t *out_adj,
    int64_t *out_wgt, int64_t adj_cap, int64_t *out_vwgt, int64_t *out_ids,
    int64_t *sort_scratch, int64_t sort_cap, int64_t *info)
{
    const int64_t n = g->n, *xadj = g->xadj, *adj = g->adj, *wgt = g->wgt, *vwgt = g->vwgt;
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

int64_t repro_split(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, const int32_t *labels, const int64_t *slot_of,
    int64_t label_count, int64_t slots, const int64_t *ids, int64_t *local,
    int64_t *out_xadj, int64_t *out_adj, int64_t *out_wgt, int64_t adj_cap,
    int64_t *out_vwgt, int64_t *out_ids, int64_t *sort_scratch, int64_t sort_cap,
    int64_t *info)
{
    graph_t g = {n, xadj, adj, wgt, vwgt};
    return split_graph(&g, labels, slot_of, label_count, slots, ids, local, out_xadj, out_adj,
                       out_wgt, adj_cap, out_vwgt, out_ids, sort_scratch, sort_cap, info);
}

/* One row of repro_bisect_depth's nodes: the node's subgraph in the depth's
 * arena -- n, m, where its xadj, vertices and edges start, 1 if its edges
 * all weigh 1 -- then its place in the tree -- blocks to make (k >= 2),
 * its first block, its seed's index -- then target0, max0, max1 and FM's
 * patience.  A child row is the first nine columns and the child's total
 * vertex weight. */
enum {
    NODE_N, NODE_M, NODE_XADJ, NODE_VERTEX, NODE_EDGE, NODE_UNIT, NODE_K, NODE_FIRST,
    NODE_SEED, NODE_TARGET0, NODE_MAX0, NODE_MAX1, NODE_PATIENCE, NODE_LEN
};
enum { CHILD_WEIGHT = NODE_SEED + 1, CHILD_LEN };

/* One depth of recursive bisection's tree (recursive.initial_partition;
 * a deep split round is one depth of k == 2 nodes over repro_split's arena):
 * node i's subgraph is read from the arena (xadj, adj, wgt, vwgt, ids; wgt
 * and vwgt NULL when all weights are 1, ids NULL when the ids are the
 * vertices themselves) at its row's starts; its pool runs from
 * seeds[its seed index] and writes its rows at rows + i * attempts *
 * ROW_LEN.  A node with k == 2 writes its two blocks to part[ids]; a larger
 * node splits k into k0 = ceil(k / 2) and k1 = k - k0, and each side with
 * two blocks or more becomes a child whose subgraph split_graph writes into
 * the next arena (out_*) at the node's own starts, the child's xadj at its
 * vertex start plus its index among the depth's children -- a side with
 * one block goes to part[] at once.  Children are numbered in node order,
 * side 0 first, one row of CHILD_LEN each in children[]: side 0 makes k0
 * blocks from the node's first, side 1 k1 from first + k0, and their seed
 * indices are the node's + 1 and + k0 (side 0's subtree holds k0 - 1
 * bisections), so seed i is the i-th bisection of the depth-first
 * preorder.  The pool's
 * scratch holds scratch_n vertices, the queue's words heap_cap entries.
 * Returns the number of children, or a negative ERR_*. */
int64_t repro_bisect_depth(
    int64_t nodes, const int64_t *node_rows,
    const int64_t *xadj, int64_t xadj_len, const int64_t *adj, const int64_t *wgt,
    int64_t adj_len, const int64_t *vwgt, const int64_t *ids, int64_t vertex_len,
    const uint64_t *seeds, int64_t seed_count,
    const int64_t *pool, int64_t pool_len, int64_t attempts, double sigmas, int64_t rounds,
    int64_t scratch_n, int64_t *gain, uint8_t *in_block, uint8_t *blocked, uint8_t *visited,
    int64_t *grown, int8_t *side, int8_t *best_side, int64_t *order, int64_t *fm_gain,
    uint8_t *locked, int64_t *kept, int64_t *moves, int64_t moves_cap,
    int32_t *labels, int64_t *local, int64_t *sort_scratch, int64_t sort_cap,
    int64_t *out_xadj, int64_t out_xadj_len, int64_t *out_adj, int64_t *out_wgt,
    int64_t out_adj_len, int64_t *out_vwgt, int64_t *out_ids, int64_t out_vertex_len,
    int64_t *children, int32_t *part, int64_t part_len, int64_t *rows,
    int64_t *heap, int64_t heap_cap, int64_t *work)
{
    const pool_spec_t spec = {pool, pool_len, attempts, sigmas, rounds};
    const pool_scratch_t s = {gain, in_block, blocked, visited, grown, side, best_side, order,
                              fm_gain, locked, kept, moves, moves_cap};
    int64_t count = 0; /* children written */

    if (nodes < 0 || attempts < 1)
        return ERR_LABEL;
    for (int64_t i = 0; i < nodes; i++) {
        const int64_t *r = node_rows + i * NODE_LEN;
        const int64_t n = r[NODE_N], m = r[NODE_M], x0 = r[NODE_XADJ], v0 = r[NODE_VERTEX];
        const int64_t e0 = r[NODE_EDGE], k = r[NODE_K], first = r[NODE_FIRST];
        /* the node's regions lie inside the arena, its xadj tiles its edges */
        if (n < 0 || m < 0 || x0 < 0 || v0 < 0 || e0 < 0 || n > scratch_n
            || x0 > xadj_len - n - 1 || v0 > vertex_len - n || e0 > adj_len - m)
            return ERR_CAPACITY;
        const int64_t *node_xadj = xadj + x0;
        if (node_xadj[0] != 0 || node_xadj[n] != m)
            return ERR_XADJ;
        for (int64_t u = 0; u < n; u++)
            if (node_xadj[u] > node_xadj[u + 1])
                return ERR_XADJ;
        if (k < 2 || first < 0 || first > INT32_MAX - k + 1
            || (uint64_t)r[NODE_SEED] >= (uint64_t)seed_count)
            return ERR_LABEL;
        graph_t g = {n, node_xadj, adj + e0, wgt && !r[NODE_UNIT] ? wgt + e0 : NULL,
                     vwgt ? vwgt + v0 : NULL};
        const int64_t *node_ids = ids ? ids + v0 : NULL;
        const int8_t *best = NULL;
        queue_t q;
        queue_init(&q, &g, heap, heap_cap, work);
        int64_t rc = bisect_pool(&g, r[NODE_TARGET0], r[NODE_MAX0], r[NODE_MAX1], &spec,
                                 r[NODE_PATIENCE], seeds[r[NODE_SEED]], s,
                                 rows + i * attempts * ROW_LEN, &q, &best);
        if (rc < 0)
            return rc;

        /* side 0 makes blocks [first, first + k0), side 1 the rest; a side
         * of one block is that block, a side of more is a child */
        const int64_t k0 = (k + 1) / 2;
        const int64_t slot_of[2] = {k > 2 ? 0 : -1, k > 3 ? 1 : -1};
        const int64_t slots = (slot_of[0] >= 0) + (slot_of[1] >= 0);
        for (int64_t u = 0; u < n; u++) {
            int64_t id = node_ids ? node_ids[u] : u;
            if ((uint64_t)id >= (uint64_t)part_len)
                return ERR_ID;
            labels[u] = best[u];
            if (slot_of[best[u]] < 0)
                part[id] = (int32_t)(first + (best[u] ? k0 : 0));
        }
        if (!slots)
            continue;
        if (v0 + count > out_xadj_len - n - slots || v0 > out_vertex_len - n
            || e0 > out_adj_len - m || (g.wgt && !out_wgt) || (g.vwgt && !out_vwgt))
            return ERR_CAPACITY;
        const int64_t c0 = count;
        int64_t info[2 * SPLIT_LEN];
        rc = split_graph(&g, labels, slot_of, 2, slots, node_ids, local, out_xadj + v0 + c0,
                         out_adj + e0, g.wgt ? out_wgt + e0 : NULL, m,
                         g.vwgt ? out_vwgt + v0 : NULL, out_ids + v0, sort_scratch, sort_cap,
                         info);
        if (rc < 0)
            return rc;
        for (int64_t c = 0; c < slots; c++, count++) {
            const int64_t *row = info + c * SPLIT_LEN;
            int64_t *child = children + count * CHILD_LEN;
            child[NODE_N] = row[SPLIT_N];
            child[NODE_M] = row[SPLIT_M];
            child[NODE_XADJ] = v0 + c0 + row[SPLIT_VERTEX_START] + c;
            child[NODE_VERTEX] = v0 + row[SPLIT_VERTEX_START];
            child[NODE_EDGE] = e0 + row[SPLIT_EDGE_START];
            child[NODE_UNIT] = row[SPLIT_UNIT];
            child[NODE_K] = c ? k - k0 : k0;
            child[NODE_FIRST] = c ? first + k0 : first;
            child[NODE_SEED] = r[NODE_SEED] + (c ? k0 : 1);
            child[CHILD_WEIGHT] = row[SPLIT_WEIGHT];
        }
    }
    return count;
}
