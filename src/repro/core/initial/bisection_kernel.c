/* Native sequential searches of repro.core.initial: greedy graph growing,
 * BFS growth and 2-way FM, each a port of the Python loop of the same name
 * (bipartition.py, fm2way.py), which stays as oracle and fallback.
 *
 * Three exported functions, no state, no Python objects: ctypes calls them
 * with the GIL released.  One calling convention: the int64 arrays of a
 * BisectionWorkspace first -- n, xadj (n + 1), adj and wgt (xadj[n] each),
 * vwgt (n); wgt == NULL or vwgt == NULL means unit weights -- then the
 * search's own arguments and scratch (which the caller allocates and the
 * kernel initialises), then the heap buffer, its capacity in entries, and
 * the work counters.
 *
 * Why the port is bit-identical: the queue holds (key, tie, vertex) triples
 * ordered by (key, tie), and tie is unique per entry (greedy growing counts
 * pushes; FM seeds vertex u with tie u < n and counts later pushes from n).
 * The order is total, so the sequence of pops is a function of the sequence
 * of pushes and any correct heap -- this one, Python's heapq -- produces it.
 *
 * Memory-safety contract (tests/test_initial_kernel.py holds it to this):
 *   - adj and wgt are read only inside [xadj[u], xadj[u+1]) for 0 <= u < n;
 *     that xadj starts at 0, never descends and ends at len(adj) is the
 *     caller's to check, once per workspace (workspace.py does, in numpy);
 *   - every id taken from adj or from `order` is range-checked against
 *     [0, n) before it indexes gain / state / side / vwgt or enters the heap
 *     or the queue (which only the kernel writes), and every side[] entry is
 *     0 or 1 before it indexes a side weight;
 *   - heap, moves, grown and queue are written only below the capacity
 *     passed with them.  n + xadj[n] entries bound every push count: a
 *     vertex is pushed as a seed at most once (growing seeds only a vertex
 *     that is then absorbed or blocked; FM seeds each boundary vertex once
 *     a pass and the heap is emptied between passes) and as a neighbour only
 *     by a vertex being absorbed / moved, which happens at most once per
 *     vertex (and pass) and pushes at most its degree;
 *   - no signed overflow: the caller admits only workspaces with
 *     4 n^3 G^2 < 2^126, G >= every sum of incident |weights| (so gains,
 *     sums of gains and both sides of the stopping rule fit, the latter in
 *     __int128), and total vertex weight and the caps below 2^62;
 *   - a broken rule returns a negative code, never a trap.  Outputs are
 *     then partially written garbage the caller drops.
 *
 * work[0..4) accumulates heap pops, heap pushes (FM's seeds included), FM
 * passes and pushes of the vertex popped last in the same pass (always 0: a
 * stale entry is dropped, not renewed).
 */
#include <stdint.h>
#include <string.h>

enum {
    ERR_ID = -1,       /* vertex id outside [0, n) */
    ERR_CAPACITY = -2, /* heap, moves, grown or queue would overflow */
    ERR_SIDE = -3      /* assignment entry other than 0 or 1 */
};

enum { POPS, PUSHES, PASSES, REPUSHES };

typedef struct {
    int64_t key, tie, vertex;
} entry_t;

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

/* Grow block 0 from random seeds by absorbing the frontier vertex of highest
 * gain until it weighs target0; a vertex that would pass max0 is blocked for
 * good.  Returns the number of vertices written to grown[] (absorption
 * order), or a negative ERR_*. */
int64_t repro_greedy_graph_growing(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, const int64_t *order, int64_t target0, int64_t max0,
    int64_t *gain, uint8_t *in_block, uint8_t *blocked,
    int64_t *grown, int64_t grown_cap, int64_t *heap, int64_t heap_cap,
    int64_t *work)
{
    heap_t h = {(entry_t *)heap, 0, heap_cap, work, -1};
    int64_t counter = 0, weight0 = 0, count = 0, next = 0;

    if (n <= 0)
        return 0;
    memset(gain, 0, (size_t)n * sizeof *gain);
    memset(in_block, 0, (size_t)n);
    memset(blocked, 0, (size_t)n);

    while (weight0 < target0) {
        if (h.size == 0) {
            /* (re)start from a fresh random seed (disconnected graphs) */
            for (; next < n; next++) {
                CHECK_ID(order[next]);
                if (!in_block[order[next]] && !blocked[order[next]])
                    break;
            }
            if (next >= n)
                break;
            TRY(heap_push(&h, 0, counter++, order[next]));
        }
        /* gains only grow and the largest is popped first, so the first
         * entry of an unassigned vertex to surface carries its current gain */
        int64_t u = heap_pop(&h).vertex;
        if (in_block[u] || blocked[u])
            continue;
        int64_t w = vwgt ? vwgt[u] : 1;
        if (weight0 + w > max0) {
            blocked[u] = 1;
            continue;
        }
        if (count >= grown_cap)
            return ERR_CAPACITY;
        in_block[u] = 1;
        grown[count++] = u;
        weight0 += w;
        for (int64_t e = xadj[u]; e < xadj[u + 1]; e++) {
            int64_t v = adj[e];
            CHECK_ID(v);
            if (in_block[v])
                continue;
            gain[v] += 2 * (wgt ? wgt[e] : 1); /* edge flips from cut to internal */
            TRY(heap_push(&h, -gain[v], counter++, v));
        }
    }
    return count;
}

/* Plain BFS growth from random seeds until block 0 weighs target0.  queue[]
 * is both the FIFO and the answer: returns how many of its leading entries
 * were dequeued into block 0, or a negative ERR_*.  Edge weights, heap and
 * counters are part of the shared calling convention and unused. */
int64_t repro_bfs_growing(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, const int64_t *order, int64_t target0,
    uint8_t *visited, int64_t *queue, int64_t queue_cap,
    int64_t *heap, int64_t heap_cap, int64_t *work)
{
    int64_t weight0 = 0, head = 0, tail = 0, next = 0;
    (void)wgt, (void)heap, (void)heap_cap, (void)work;

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
        weight0 += vwgt ? vwgt[u] : 1;
        for (int64_t e = xadj[u]; e < xadj[u + 1]; e++) {
            int64_t v = adj[e];
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
 * appends its kept prefix to moves[] and the prefix's length to kept[]: the
 * caller replays them onto its own assignment.  Returns the number of passes
 * run (<= rounds), or a negative ERR_*. */
int64_t repro_fm2way(
    int64_t n, const int64_t *xadj, const int64_t *adj, const int64_t *wgt,
    const int64_t *vwgt, int64_t max0, int64_t max1, int64_t rounds,
    int64_t patience, int8_t *side, int64_t *gain, uint8_t *locked,
    int64_t *kept, int64_t *moves, int64_t moves_cap,
    int64_t *heap, int64_t heap_cap, int64_t *work)
{
    heap_t h = {(entry_t *)heap, 0, heap_cap, work, -1};
    const int64_t max_weight[2] = {max0, max1};
    int64_t side_weight[2] = {0, 0};
    int64_t passes = 0, base = 0; /* moves[0..base) holds the earlier passes' prefixes */

    for (int64_t u = 0; u < n; u++) {
        if (side[u] & ~1)
            return ERR_SIDE;
        side_weight[side[u]] += vwgt ? vwgt[u] : 1;
    }

    while (passes < rounds) {
        /* gains, and the boundary as the pass's seeds: (-gain, u, u) */
        h.size = 0;
        h.popped = -1;
        for (int64_t u = 0; u < n; u++) {
            int64_t g = 0, cut_edges = 0;
            for (int64_t e = xadj[u]; e < xadj[u + 1]; e++) {
                int64_t v = adj[e], w = wgt ? wgt[e] : 1;
                CHECK_ID(v);
                int64_t across = side[v] != side[u];
                g += across ? w : -w;
                cut_edges += across;
            }
            gain[u] = g;
            locked[u] = 0;
            if (cut_edges)
                TRY(heap_push(&h, -g, u, u));
        }
        int64_t counter = n; /* later pushes sort after the seeds on equal gain */
        int64_t count = 0, best_prefix = 0, balance_total = 0, best_total = 0;
        /* moves since the best prefix, the sum and sum of squares of their gains */
        int64_t steps = 0, fallen = 0;
        __int128 squares = 0;
        passes++;
        work[PASSES]++;

        while (h.size) {
            entry_t top = heap_pop(&h);
            int64_t u = top.vertex;
            if (locked[u])
                continue;
            int64_t g = gain[u];
            if (g != -top.key)
                continue; /* stale: the update that changed the gain pushed its own entry */
            locked[u] = 1;
            int src = side[u], dst = 1 - src;
            int64_t w = vwgt ? vwgt[u] : 1;
            if (side_weight[dst] + w > max_weight[dst])
                continue; /* cannot move this pass */
            if (base + count >= moves_cap)
                return ERR_CAPACITY;
            side[u] = (int8_t)dst;
            side_weight[src] -= w;
            side_weight[dst] += w;
            balance_total += g;
            moves[base + count++] = u;
            if (balance_total > best_total) {
                best_total = balance_total;
                best_prefix = count;
                steps = fallen = 0;
                squares = 0;
            } else {
                steps++;
                fallen += g;
                squares += (__int128)g * g;
                /* steps >= variance / (4 mean^2), cleared of divisions */
                if (steps > patience) {
                    __int128 f2 = (__int128)fallen * fallen;
                    if (fallen == 0 || 4 * (steps - 1) * f2 >= steps * squares - f2)
                        break;
                }
            }
            for (int64_t e = xadj[u]; e < xadj[u + 1]; e++) {
                int64_t v = adj[e], w2 = 2 * (wgt ? wgt[e] : 1);
                CHECK_ID(v);
                if (locked[v])
                    continue;
                gain[v] += side[v] == dst ? -w2 : w2;
                TRY(heap_push(&h, -gain[v], counter++, v));
            }
        }

        /* keep the best prefix; the tail beyond it goes back */
        for (int64_t i = best_prefix; i < count; i++) {
            int64_t u = moves[base + i], w = vwgt ? vwgt[u] : 1;
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
