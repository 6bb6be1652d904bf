/* Native label-propagation chunk of repro.core: one call rates, picks and
 * commits a whole chunk, for clustering (repro_lp_cluster_chunk) and for
 * refinement (repro_lp_refine_chunk).  The numpy pipelines of
 * lp_clustering.py and lp_refine.py (sort the (owner, label) keys, reduce the
 * runs, segment argmax, bulk commit) stay as oracle and fallback.
 *
 * Two exported functions, no state, no Python objects: ctypes calls them
 * with the GIL released.  One calling convention: the chunk's adjacency as
 * segments of one array -- n, chunk / starts / degs (count each), adj and wgt
 * (adj_len each; wgt == NULL means every edge weighs unit_wgt) -- then the
 * shared arrays of the phase (vwgt == NULL means every vertex weighs
 * unit_vwgt), then the rating map (slot, seen, rating, cap), then the
 * outputs (out_cap entries each), info[2] and the stream.
 *
 * The stream is the compressed source (NULL: the CSR segments above).  With
 * it, starts / adj / wgt are not read: vertex chunk[i]'s degs[i] neighbours
 * are decoded by decode_kernel.c's repro_decode_neighborhood -- the decoder
 * of repro_decode_chunk, with every check it makes -- into the stream's
 * one-neighbourhood scratch, and rated from there, so nothing decoded
 * outlives its vertex.  Neighbours come out in the sorted order the chunk
 * decode writes, though the winner below does not depend on it.  The caller
 * sends only chunks without a chunk-encoded (hub) neighbourhood this way.
 *
 * The rating map is the paper's (PAPER.md section IV-A1): per vertex, each
 * incident edge weight is added to the entry of the neighbour's label, the
 * winner is read off the labels seen, and those entries are reset.  slot[]
 * has one entry per label and holds 1 + the label's index in seen[] (0:
 * unseen), rating[] runs parallel to seen[]: a label whose edges sum to 0
 * is still seen, as it is a pair of the sorted list.
 *
 * Why this is bit-identical to the sorted pair list: every decision of the
 * chunk reads the labels and weights as they stood at chunk entry (phase 1
 * below writes neither); the rank of a (vertex, label) pair is the same
 * integer expression, evaluated modulo 2^64 and compared signed, as numpy
 * int64 does; and the pair list is sorted by label, so "the latest of the
 * equal ranks wins" is "the larger label wins".  The winner is therefore
 * max (rank, label), which needs no order.  Phase 2 commits the movers in
 * chunk order by the scalar rule that bulk_size_constrained_commit names as
 * its reference.
 *
 * Contract (tests/test_lp_kernel.py holds it to this):
 *   - every chunk id is checked 0 <= u < n before it indexes anything, and
 *     starts[i] >= 0, degs[i] >= 0, starts[i] + degs[i] <= adj_len (without
 *     forming the sum) before adj / wgt are read -- with a stream, the
 *     decoder checks degs[i] against the scratch, the vertex's byte range,
 *     header, value count and neighbour ids before anything is rated;
 *   - every neighbour id is checked against [0, n) before it indexes the
 *     label array, every label (a neighbour's and the vertex's own) against
 *     the map's size before it indexes slot[] or a weight array;
 *   - seen[] and rating[] are written only below cap, the outputs only
 *     below out_cap (count > out_cap is refused before anything is written);
 *   - slot[] is all zero on every return, error returns included;
 *   - rating sums, ranks and gains wrap modulo 2^64 like numpy's.  The
 *     weight sums of the commit do not wrap: the caller admits only vertex
 *     weights >= 0 whose total stays below 2^62, and limits inside int64;
 *   - a broken rule returns a negative code and the chunk index of the
 *     vertex in info[BAD], never a trap.  The shared arrays are untouched
 *     then (errors arise in phase 1 only); the outputs are garbage.  A
 *     stream the decoder refuses returns ERR_DECODE + its own code.
 *
 * Returns the number of vertices moved; moved[] holds them in chunk order,
 * info[TARGETS] counts the chunk vertices that had a target at all.
 */
#include <stdint.h>

enum {
    ERR_VERTEX = -1,   /* chunk vertex id outside [0, n) */
    ERR_SEGMENT = -2,  /* starts[i] / degs[i] negative or past the adjacency */
    ERR_NEIGHBOR = -3, /* neighbour id outside [0, n) */
    ERR_LABEL = -4,    /* cluster or block id outside the rating map */
    ERR_CAPACITY = -5, /* seen list or an output too short */
    ERR_DECODE = -100  /* plus the decoder's code (decode_kernel.c, -1..-7) */
};

enum { TARGETS, BAD };

/* the byte stream and offsets of repro.graph.compressed, and the scratch of
 * one neighbourhood: nbrs / wgts (cap entries each, wgts NULL for unit
 * weights) and the decoder's interval pairs */
typedef struct {
    const uint8_t *data;
    int64_t data_len;
    const int64_t *offsets;
    int64_t intervals;
    int64_t *nbrs, *wgts;
    int64_t cap;
    int64_t *pairs;
    int64_t pairs_cap;
} stream_t;

/* decode_kernel.c's neighbourhood decoder: 0, or its ERR_* (-1..-7) */
__attribute__((visibility("hidden"))) int repro_decode_neighborhood(
    const uint8_t *data, int64_t data_len, const int64_t *offsets, int64_t n, int64_t u,
    int64_t deg, int64_t room, int intervals, int64_t *nbrs, int64_t *wgts,
    int64_t *pairs, int64_t pairs_cap);

typedef struct {
    int64_t n;
    const int64_t *chunk, *starts, *degs;
    const int64_t *adj, *wgt;
    int64_t unit_wgt, adj_len;
    const stream_t *stream;
} segments_t;

typedef struct {
    int64_t *slot, *seen;
    uint64_t *rating;
    int64_t labels, cap;
} rating_map_t;

/* 0 <= v < n in one comparison (n >= 0) */
#define IN_RANGE(v, n) ((uint64_t)(v) < (uint64_t)(n))

static inline int64_t forget(rating_map_t *m, int64_t seen, int64_t code)
{
    for (int64_t j = 0; j < seen; j++)
        m->slot[m->seen[j]] = 0;
    return code;
}

/* Rate chunk vertex i: one map entry per distinct label among its
 * neighbours (labels are int64 in label64 or int32 in label32).  Returns how
 * many were seen, or an error with the map already reset. */
static inline int64_t rate(const segments_t *s, int64_t i, const int64_t *label64,
                           const int32_t *label32, rating_map_t *m)
{
    const int64_t *adj = s->adj, *wgt = s->wgt;
    const stream_t *z = s->stream;
    int64_t start = 0, deg = s->degs[i], seen = 0;
    /* marked unlikely so that the call's register spills land on this path,
     * whose per-vertex decode dwarfs them, not on the CSR path's loop */
    if (__builtin_expect(z != 0, 0)) {
        int rc = repro_decode_neighborhood(z->data, z->data_len, z->offsets, s->n, s->chunk[i],
                                           deg, z->cap, (int)z->intervals, z->nbrs, z->wgts,
                                           z->pairs, z->pairs_cap);
        if (rc)
            return ERR_DECODE + rc;
        adj = z->nbrs;
        wgt = z->wgts;
    } else {
        start = s->starts[i];
        if (start < 0 || deg < 0 || start > s->adj_len || deg > s->adj_len - start)
            return ERR_SEGMENT;
    }
    for (int64_t e = start; e < start + deg; e++) {
        int64_t v = adj[e];
        if (!IN_RANGE(v, s->n))
            return forget(m, seen, ERR_NEIGHBOR);
        int64_t label = label64 ? label64[v] : label32[v];
        if (!IN_RANGE(label, m->labels))
            return forget(m, seen, ERR_LABEL);
        int64_t j = m->slot[label];
        if (j == 0) {
            if (seen >= m->cap)
                return forget(m, seen, ERR_CAPACITY);
            m->seen[seen] = label;
            m->rating[seen] = 0;
            m->slot[label] = j = ++seen;
        }
        m->rating[j - 1] += (uint64_t)(wgt ? wgt[e] : s->unit_wgt);
    }
    return seen;
}

/* a + b <= limit for weights the caller keeps far from overflow */
static inline int fits(int64_t a, int64_t b, int64_t limit)
{
    return (int64_t)((uint64_t)a + (uint64_t)b) <= limit;
}

/* fav[i]: the best-ranked label among vertex i's neighbours (-1: none);
 * best[i]: the same over the labels it may join (its own, or one whose
 * weight still fits), -1 where the best of those loses to one that does not
 * fit; nc[i]: distinct neighbour labels. */
int64_t repro_lp_cluster_chunk(
    int64_t n, const int64_t *chunk, const int64_t *starts, const int64_t *degs,
    int64_t count, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, int64_t *clusters, int64_t *cluster_weights,
    const int64_t *vwgt, int64_t unit_vwgt, int64_t max_cluster_weight,
    int64_t *slot, int64_t *seen, int64_t *rating, int64_t cap, int64_t *fav,
    int64_t *best, int64_t *nc, int64_t *moved, int64_t out_cap, int64_t *info,
    const stream_t *stream)
{
    segments_t s = {n, chunk, starts, degs, adj, wgt, unit_wgt, adj_len, stream};
    rating_map_t m = {slot, seen, (uint64_t *)rating, n, cap};
    info[TARGETS] = 0;
    info[BAD] = -1;
    if (count < 0 || count > out_cap)
        return ERR_CAPACITY;
    for (int64_t i = 0; i < count; i++) {
        info[BAD] = i;
        int64_t u = chunk[i];
        if (!IN_RANGE(u, n))
            return ERR_VERTEX;
        int64_t own = clusters[u];
        if (!IN_RANGE(own, n))
            return ERR_LABEL;
        int64_t labels = rate(&s, i, clusters, 0, &m);
        if (labels < 0)
            return labels;
        int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
        int64_t fav_rank = 0, fav_label = -1, best_rank = 0, best_label = -1;
        int best_ok = 0;
        for (int64_t j = 0; j < labels; j++) {
            int64_t c = m.seen[j];
            m.slot[c] = 0;
            uint64_t current = c == own;
            /* rating first, then staying put, then a seeded jitter */
            uint64_t jitter =
                ((((uint64_t)c * 0x9E3779B1u) ^ ((uint64_t)u * 0x85EBCA6Bu)) >> 7) & 0x3F;
            int64_t rank = (int64_t)(((m.rating[j] * 2 + current) << 6) | jitter);
            if (fav_label < 0 || rank > fav_rank || (rank == fav_rank && c > fav_label)) {
                fav_rank = rank;
                fav_label = c;
            }
            /* a label that does not fit competes at rank -1 (the oracle's
             * np.where(ok, rank, -1)) and, winning, leaves no target */
            int ok = current || fits(cluster_weights[c], weight, max_cluster_weight);
            int64_t value = ok ? rank : -1;
            if (best_label < 0 || value > best_rank || (value == best_rank && c > best_label)) {
                best_rank = value;
                best_label = c;
                best_ok = ok;
            }
        }
        nc[i] = labels;
        fav[i] = fav_label;
        best[i] = best_ok ? best_label : -1;
    }
    int64_t targets = 0, moves = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t target = best[i];
        if (target < 0)
            continue;
        targets++;
        int64_t u = chunk[i], own = clusters[u];
        int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
        if (target == own || !fits(cluster_weights[target], weight, max_cluster_weight))
            continue;
        cluster_weights[own] -= weight;
        cluster_weights[target] += weight;
        clusters[u] = target;
        moved[moves++] = u;
    }
    info[TARGETS] = targets;
    return moves;
}

/* best[i]: the block of highest positive gain among vertex i's neighbouring
 * blocks other than its own whose weight limit still admits it (-1: none);
 * gain(b) = rating(b) - rating(own block). */
int64_t repro_lp_refine_chunk(
    int64_t n, const int64_t *chunk, const int64_t *starts, const int64_t *degs,
    int64_t count, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, int64_t k, int32_t *part, int64_t *block_weights,
    const int64_t *vwgt, int64_t unit_vwgt, const int64_t *limits, int64_t *slot,
    int64_t *seen, int64_t *rating, int64_t cap, int64_t *best, int64_t *moved,
    int64_t out_cap, int64_t *info, const stream_t *stream)
{
    segments_t s = {n, chunk, starts, degs, adj, wgt, unit_wgt, adj_len, stream};
    rating_map_t m = {slot, seen, (uint64_t *)rating, k, cap};
    info[TARGETS] = 0;
    info[BAD] = -1;
    if (count < 0 || count > out_cap)
        return ERR_CAPACITY;
    for (int64_t i = 0; i < count; i++) {
        info[BAD] = i;
        int64_t u = chunk[i];
        if (!IN_RANGE(u, n))
            return ERR_VERTEX;
        int64_t own = part[u];
        if (!IN_RANGE(own, k))
            return ERR_LABEL;
        int64_t labels = rate(&s, i, 0, part, &m);
        if (labels < 0)
            return labels;
        int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
        uint64_t own_rating = m.slot[own] ? m.rating[m.slot[own] - 1] : 0;
        int64_t best_gain = 0, best_block = -1;
        for (int64_t j = 0; j < labels; j++) {
            int64_t b = m.seen[j];
            m.slot[b] = 0;
            int64_t gain = (int64_t)(m.rating[j] - own_rating);
            if (b == own || gain <= 0 || !fits(block_weights[b], weight, limits[b]))
                continue;
            if (best_block < 0 || gain > best_gain || (gain == best_gain && b > best_block)) {
                best_gain = gain;
                best_block = b;
            }
        }
        best[i] = best_block;
    }
    int64_t targets = 0, moves = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t target = best[i];
        if (target < 0)
            continue;
        targets++;
        int64_t u = chunk[i], own = part[u];
        int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
        if (target == own || !fits(block_weights[target], weight, limits[target]))
            continue;
        block_weights[own] -= weight;
        block_weights[target] += weight;
        part[u] = (int32_t)target;
        moved[moves++] = u;
    }
    info[TARGETS] = targets;
    return moves;
}
