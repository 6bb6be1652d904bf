/* Native rating map of repro.core: one call runs a whole label-propagation
 * round -- every chunk of it rated, picked and committed in turn -- for
 * clustering (repro_lp_cluster_round) and for refinement
 * (repro_lp_refine_round); or rates and picks one batch without the commit,
 * for distributed LP (repro_lp_cluster_pick, repro_lp_refine_pick); or
 * aggregates the coarse edges of a chunk of coarse vertices
 * (repro_contract_chunk, below them with its own contract).  The numpy
 * pipelines it replaced (sort the (owner, label) keys, reduce the runs,
 * segment argmax, bulk commit) stay in tests/oracles.py as the reference.
 *
 * Seven exported functions, no state, no Python objects: ctypes calls them
 * with the GIL released.  The LP and contraction functions share one calling
 * convention: the vertices and the graph -- n, chunk / indptr / degs, count,
 * adj and wgt (adj_len each; wgt == NULL means every edge weighs unit_wgt)
 * -- then the shared arrays of the phase (vwgt == NULL means every vertex
 * weighs unit_vwgt), then the rating map (slot, seen, rating, cap), then the
 * outputs, info[3] and the stream.  The seventh, repro_group_by_label, is
 * the counting sort that hands contraction its groups.
 *
 * Segments are keyed by vertex id, as the graph stores them: chunk[i] is a
 * vertex id, checked against [0, n) before it indexes anything, and vertex u
 * owns adj[indptr[u], indptr[u + 1]) (a CSR graph's indptr, n + 1 entries;
 * degs == NULL) or degs[u] neighbours in the stream (a compressed graph's
 * degrees, n entries; indptr == NULL).  No entry gathers a chunk's segments
 * first.
 *
 * The stream is the compressed source (NULL: the CSR segments above).  With
 * it, indptr / adj / wgt are not read: vertex u's neighbours, as many as
 * degs gives, are handed to the rating map by the row visitor of
 * graph/neighborhood.h -- with every check the chunk decode makes, chunk by
 * chunk for a chunk-encoded hub -- as they are decoded, so no row is
 * written and the stream needs no scratch but one block's interval pairs.
 * A degree above the stream's cap is refused (ERR_DECODE + the decoder's
 * ERR_METADATA).  Neighbours come in ascending order, though nothing below
 * depends on it: ratings are sums and emit() sorts.  A neighbour's label
 * refused before a later fault of its row is the code returned (the header
 * states the order).
 *
 * The rating map is the paper's (PAPER.md section IV-A1): per vertex, each
 * incident edge weight is added to the entry of the neighbour's label, the
 * winner is read off the labels seen, and those entries are reset.  slot[]
 * has one entry per label and holds 1 + the label's index in seen[] (0:
 * unseen), rating[] runs parallel to seen[]: a label whose edges sum to 0
 * is still seen, as it is a pair of the sorted list.
 *
 * Reading ahead.  Rounds visit vertices in random order, so on a level that
 * does not fit in cache every visit starts with misses: the segment, the
 * row, then one label a neighbour.  Before chunk vertex i is rated,
 * read_ahead() asks the cache for what rate() will read of a vertex further
 * on in the same chunk, keyed by its id chunk[j] as in rate():
 *   - at i + 16, its indptr entry (the stream's: its degree and offsets)
 *     and its own label, once 0 <= chunk[j] < n;
 *   - at i + 8, the first line of its row (of its bytes in the stream),
 *     once its segment passed rate()'s check (the stream's degree and byte
 *     range visit_stream_row()'s);
 *   - at i + 4, CSR only, the labels of its first 8 neighbours, each once
 *     0 <= v < n.  The stream's would have to be decoded twice.
 * Each stage reads only what rate() reads, after the check rate() makes
 * first, and skips what fails it; a prefetch changes no result, and the
 * fault is reported when the round reaches its vertex, with the same code
 * and info[BAD].  The distances leave every line at least four vertices'
 * work to arrive before the next stage, or rate(), reads it.  Contraction
 * reads its members ahead the same way on CSR, and not on the stream.
 * On the benchmark ladder's kmer(70 000, 4) partition (gcc 12 -O3, a
 * 2-vCPU Xeon with 2 MiB of L2 a core; EXPERIMENTS.md "LP rounds read
 * ahead"), alternating runs measured the first two stages alone at a
 * 1.05x speed-up over none, the label stage in the rounds at a further
 * 1.10x and in contraction at a further 1.07x.  An in-process sweep read
 * no setting of 8/4/2, 16/8/4 or 32/16/8 and no cap of 8, 16 or 32 labels
 * consistently ahead of another.
 *
 * A round is the chunks bounds[2j] .. bounds[2j + 1] (positions in chunk[],
 * the round's visiting order) for j < chunks, run in that order -- the
 * runtime's execution order, so every schedule policy is kept.  Each chunk
 * is phase 1 below, then phase 2, before the next one starts: chunk j + 1
 * reads chunk j's commits, as the per-chunk loop did.
 *
 * Why a chunk is bit-identical to the sorted pair list: every decision of
 * the chunk reads the labels and weights as they stood at chunk entry
 * (phase 1 writes neither); the rank of a (vertex, label) pair is the same
 * integer expression, evaluated modulo 2^64 and compared signed, as numpy
 * int64 does; and the pair list is sorted by label, so "the latest of the
 * equal ranks wins" is "the larger label wins".  The winner is therefore
 * max (rank, label), which needs no order.  Phase 2 commits the movers in
 * chunk order by the scalar rule that bulk_size_constrained_commit names as
 * its reference, and writes clustering's favourites.
 *
 * The two picks are phase 1 of one chunk without phase 2: the rank's batch
 * of distributed LP is the chunk, and the movers with their targets come
 * back in chunk order (moved[] / target[]) for the caller to commit.  They
 * write nothing shared -- clusters / cluster_weights / part / block_weights
 * are const -- so every rank of a batch reads the labels as the batch found
 * them.  Clustering keys its jitter by the chunk index i (the vertex's
 * position in its rank's batch), not by the vertex id as the round does,
 * and moves a vertex to its favourite label (fav[i]), not to best[i], if
 * that is not its own and fits; refinement moves it to best[i].
 *
 * Contract (tests/test_lp_kernel.py and tests/test_dlp_kernel.py hold it
 * to this):
 *   - a round checks every chunk's bounds, 0 <= lo <= hi <= count and
 *     hi - lo <= out_cap, and chunks <= stats_cap, before anything is
 *     written; a pick refuses count > out_cap the same way.  Either returns
 *     ERR_SEGMENT / ERR_CAPACITY then, info[BAD] = -1;
 *   - every chunk id is checked 0 <= u < n before it indexes indptr, degs
 *     or anything else, and its segment 0 <= indptr[u] <= indptr[u + 1] <=
 *     adj_len before adj / wgt are read -- with a stream, the visitor
 *     checks the degree against the stream's cap and the vertex's byte range
 *     before it reads a byte, and every neighbour id before it is rated;
 *   - every neighbour id is checked against [0, n) before it indexes the
 *     label array, every label (a neighbour's and the vertex's own) against
 *     the map's size before it indexes slot[] or a weight array;
 *   - reading ahead keeps the two rules above for the vertices it reads
 *     ahead of, and reports nothing: their faults are reported in turn;
 *   - seen[] and rating[] are written only below cap, fav / best / nc only
 *     below out_cap, a round's stats[] only below STATS * chunks and moved[]
 *     (NULL: not written) only below count;
 *   - slot[] is all zero on every return, error returns included;
 *   - rating sums, ranks and gains wrap modulo 2^64 like numpy's.  The
 *     weight sums of the commit do not wrap: the caller admits only vertex
 *     weights >= 0 whose total stays below 2^62, and limits inside int64;
 *   - a broken rule returns a negative code and the vertex's position in
 *     chunk[] in info[BAD], never a trap.  Errors arise in phase 1 only: the
 *     chunks before it stay committed, its own shared arrays (favourites
 *     included) are untouched, the outputs are garbage.  A stream the
 *     decoder refuses returns ERR_DECODE + its own code.
 *
 * The LP functions return the number of vertices moved (picked, for the
 * picks); moved[] holds them in chunk order, info[TARGETS] counts the
 * vertices that had a target at all, info[READ] the edges read.  A round
 * also fills one stats row a chunk: its edges, targets, moves, the vertices
 * it bumped (nc >= t_bump, clustering only), their nc summed, and its
 * nanoseconds on CLOCK_MONOTONIC.
 */
#define _POSIX_C_SOURCE 200809L
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

#include "../../graph/neighborhood.h"

enum {
    ERR_VERTEX = -1,   /* chunk vertex id outside [0, n) */
    ERR_SEGMENT = -2,  /* an adjacency segment negative or past the adjacency,
                          group offsets that do not run up inside the chunk,
                          or chunk bounds that do not run up inside the round */
    ERR_NEIGHBOR = -3, /* neighbour id outside [0, n) */
    ERR_LABEL = -4,    /* cluster or block id outside the rating map */
    ERR_CAPACITY = -5, /* seen list or an output too short */
    ERR_DECODE = -100  /* plus the row reader's code (neighborhood.h: -1..-7, -12) */
};

enum { TARGETS, BAD, READ };

/* the columns of a round's stats row, one row a chunk */
enum { EDGES, ROW_TARGETS, MOVES, BUMPED, BUMPED_NC, NANOS, STATS };

typedef struct {
    int64_t n;
    const int64_t *chunk, *indptr, *degs;
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

/* the rating sink over a copy of the map's fields: one map entry per distinct
 * label (int64 label64 or int32 label32) among the neighbours, each weight
 * added to its label's; stops with the code in `code` */
typedef struct {
    const int64_t *label64;
    const int32_t *label32;
    int64_t *slot, *list;
    uint64_t *rating;
    int64_t labels, cap, seen, code;
} rater_t;

static inline __attribute__((always_inline)) int rate_label(rater_t *r, int64_t v, int64_t w,
                                                          int wide)
{
    int64_t label = wide ? r->label64[v] : r->label32[v];
    if (!IN_RANGE(label, r->labels)) {
        r->code = ERR_LABEL;
        return 1;
    }
    int64_t j = r->slot[label];
    if (j == 0) {
        if (r->seen >= r->cap) {
            r->code = ERR_CAPACITY;
            return 1;
        }
        r->list[r->seen] = label;
        r->rating[r->seen] = 0;
        r->slot[label] = j = ++r->seen;
    }
    r->rating[j - 1] += (uint64_t)w;
    return 0;
}

/* the visitor's sinks, one a label width */
static inline int rate_edge64(void *ctx, int64_t v, int64_t w)
{
    return rate_label(ctx, v, w, 1);
}

static inline int rate_edge32(void *ctx, int64_t v, int64_t w)
{
    return rate_label(ctx, v, w, 0);
}

static inline rater_t rater(const int64_t *label64, const int32_t *label32,
                            const rating_map_t *m, int64_t seen)
{
    return (rater_t){label64, label32, m->slot, m->seen, m->rating, m->labels, m->cap, seen, 0};
}

/* rate(), vertex i's row visited from the stream; out of line, so that the
 * visitor's registers stay off the CSR path's loop */
static __attribute__((noinline)) int64_t rate_stream(const segments_t *s, int64_t i,
                                                     const int64_t *label64,
                                                     const int32_t *label32, rating_map_t *m,
                                                     int64_t seen, uint64_t *edges)
{
    rater_t r = rater(label64, label32, m, seen);
    const stream_t *z = s->stream;
    int64_t u = s->chunk[i], deg = s->degs[u], unit = s->unit_wgt;
    /* one copy of the visitor a label width and weight flag: a flag folded
     * away measured 3-5 % faster compressed rounds than both tested per
     * neighbour (gcc 12 -O3, weblike(40 000, 14)) */
    int rc = label64 ? z->weighted ? visit_stream_row(z, s->n, u, deg, 1, unit, rate_edge64, &r)
                                   : visit_stream_row(z, s->n, u, deg, 0, unit, rate_edge64, &r)
             : z->weighted ? visit_stream_row(z, s->n, u, deg, 1, unit, rate_edge32, &r)
                           : visit_stream_row(z, s->n, u, deg, 0, unit, rate_edge32, &r);
    if (rc)
        return forget(m, r.seen, rc > 0 ? r.code : ERR_DECODE + rc);
    *edges += (uint64_t)deg;
    return r.seen;
}

/* Vertex u's segment of the adjacency (u checked by the caller), [*start,
 * *start + *deg): 1 if 0 <= indptr[u] <= indptr[u + 1] <= adj_len; 0 and
 * nothing stored if not.  The one check rate(), read_ahead() and
 * contraction make before they read a row. */
static inline int segment(const segments_t *s, int64_t u, int64_t *start, int64_t *deg)
{
    int64_t a = s->indptr[u], end = s->indptr[u + 1];
    if (a < 0 || end < a || end > s->adj_len)
        return 0;
    *start = a;
    *deg = end - a;
    return 1;
}

/* Rate chunk vertex i (its id checked by the caller) into a map already
 * holding `seen` labels (0: a fresh vertex; contraction adds a group's
 * members one after another): one map entry per distinct label among its
 * neighbours (labels are int64 in label64 or int32 in label32), its degree
 * added to *edges.  Returns how many are seen now, or an error with the map
 * already reset. */
static inline int64_t rate(const segments_t *s, int64_t i, const int64_t *label64,
                           const int32_t *label32, rating_map_t *m, int64_t seen,
                           uint64_t *edges)
{
    if (__builtin_expect(s->stream != 0, 0))
        return rate_stream(s, i, label64, label32, m, seen, edges);
    rater_t r = rater(label64, label32, m, seen);
    int64_t start, deg;
    if (!segment(s, s->chunk[i], &start, &deg))
        return forget(m, seen, ERR_SEGMENT);
    for (int64_t e = start; e < start + deg; e++) {
        int64_t v = s->adj[e];
        if (!IN_RANGE(v, s->n))
            return forget(m, r.seen, ERR_NEIGHBOR);
        if (rate_label(&r, v, s->wgt ? s->wgt[e] : s->unit_wgt, label64 != 0))
            return forget(m, r.seen, r.code);
    }
    *edges += (uint64_t)deg;
    return r.seen;
}

/* How far ahead of the vertex being rated read_ahead() asks for each stage,
 * in chunk positions, and for how many neighbours' labels: the header's
 * "Reading ahead" gives the runs that chose them. */
#define AHEAD_SEGMENT 16
#define AHEAD_ROW 8
#define AHEAD_LABELS 4
#define FANOUT 8

/* The header's "Reading ahead", before chunk vertex i is rated, for the
 * vertices below hi.  Every read is one rate() makes, after the check it
 * makes first; anything that fails one is skipped and left for rate() to
 * report. */
static inline __attribute__((always_inline)) void read_ahead(const segments_t *s, int64_t i,
                                                             int64_t hi, const int64_t *label64,
                                                             const int32_t *label32)
{
    const stream_t *z = s->stream;
    int64_t j = i + AHEAD_SEGMENT, u, start, deg;
    if (j < hi && IN_RANGE(u = s->chunk[j], s->n)) {
        if (z) {
            __builtin_prefetch(&s->degs[u]);
            prefetch_stream_offsets(z, s->n, u);
        } else {
            __builtin_prefetch(&s->indptr[u]);
        }
        __builtin_prefetch(label64 ? (const void *)&label64[u] : &label32[u]);
    }
    j = i + AHEAD_ROW;
    if (j < hi && IN_RANGE(u = s->chunk[j], s->n)) {
        if (z) {
            prefetch_stream_bytes(z, s->n, u, s->degs[u]);
        } else if (segment(s, u, &start, &deg) && deg > 0) {
            __builtin_prefetch(&s->adj[start]);
            if (s->wgt)
                __builtin_prefetch(&s->wgt[start]);
        }
    }
    j = i + AHEAD_LABELS;
    if (z || j >= hi || !IN_RANGE(u = s->chunk[j], s->n) || !segment(s, u, &start, &deg))
        return;
    for (int64_t e = start; e < start + (deg < FANOUT ? deg : FANOUT); e++) {
        int64_t v = s->adj[e];
        if (IN_RANGE(v, s->n))
            __builtin_prefetch(label64 ? (const void *)&label64[v] : &label32[v]);
    }
}

/* a + b <= limit for weights the caller keeps far from overflow */
static inline int fits(int64_t a, int64_t b, int64_t limit)
{
    return (int64_t)((uint64_t)a + (uint64_t)b) <= limit;
}

static inline int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* The chunk bounds of a round, checked before anything is written: each
 * [lo, hi) runs up inside [0, count) and fits out_cap, one stats row each. */
static int64_t check_round(int64_t count, const int64_t *bounds, int64_t chunks,
                           int64_t out_cap, int64_t stats_cap, int64_t *info)
{
    info[TARGETS] = info[READ] = 0;
    info[BAD] = -1;
    if (count < 0 || chunks < 0 || chunks > stats_cap)
        return ERR_CAPACITY;
    for (int64_t j = 0; j < chunks; j++) {
        int64_t lo = bounds[2 * j], hi = bounds[2 * j + 1];
        if (lo < 0 || hi < lo || hi > count)
            return ERR_SEGMENT;
        if (hi - lo > out_cap)
            return ERR_CAPACITY;
    }
    return 0;
}

/* Phase 1 of a clustering chunk, the vertices at positions [lo, hi): per
 * vertex (row r = i - lo), fav[r] is the best-ranked label among its
 * neighbours (-1: none); best[r] the same over the labels it may join (its
 * own, or one whose weight still fits), -1 where the best of those loses to
 * one that does not fit; nc[r] its distinct neighbour labels.  The jitter is
 * keyed by the vertex id, or with by_index by its position i.  Reads
 * clusters[] / cluster_weights[], writes neither; returns 0 or an error.
 * Inlined into each caller, so each loop is compiled on its own, by_index
 * folded away. */
static inline __attribute__((always_inline)) int64_t cluster_phase1(
    const segments_t *s, rating_map_t *m, int64_t lo, int64_t hi, const int64_t *clusters,
    const int64_t *cluster_weights, const int64_t *vwgt, int64_t unit_vwgt,
    int64_t max_cluster_weight, int by_index, int64_t *fav, int64_t *best, int64_t *nc,
    uint64_t *edges, int64_t *info)
{
    for (int64_t i = lo; i < hi; i++) {
        read_ahead(s, i, hi, clusters, 0);
        info[BAD] = i;
        int64_t u = s->chunk[i];
        if (!IN_RANGE(u, s->n))
            return ERR_VERTEX;
        int64_t own = clusters[u];
        if (!IN_RANGE(own, s->n))
            return ERR_LABEL;
        int64_t labels = rate(s, i, clusters, 0, m, 0, edges);
        if (labels < 0)
            return labels;
        int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
        uint64_t key = by_index ? (uint64_t)i : (uint64_t)u;
        int64_t fav_rank = 0, fav_label = -1, best_rank = 0, best_label = -1;
        int best_ok = 0;
        for (int64_t j = 0; j < labels; j++) {
            int64_t c = m->seen[j];
            m->slot[c] = 0;
            uint64_t current = c == own;
            /* rating first, then staying put, then a seeded jitter */
            uint64_t jitter = ((((uint64_t)c * 0x9E3779B1u) ^ (key * 0x85EBCA6Bu)) >> 7) & 0x3F;
            int64_t rank = (int64_t)(((m->rating[j] * 2 + current) << 6) | jitter);
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
        nc[i - lo] = labels;
        fav[i - lo] = fav_label;
        best[i - lo] = best_ok ? best_label : -1;
    }
    return 0;
}

/* Shared memory's clustering round: chunk by chunk, phase 1, then every
 * vertex with neighbours records its favourite in favorites[] and every
 * vertex with a target commits to it in chunk order if it still fits. */
int64_t repro_lp_cluster_round(
    int64_t n, const int64_t *chunk, const int64_t *indptr, const int64_t *degs,
    int64_t count, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, const int64_t *bounds, int64_t chunks, int64_t *clusters,
    int64_t *cluster_weights, const int64_t *vwgt, int64_t unit_vwgt,
    int64_t max_cluster_weight, int64_t t_bump, int64_t *favorites, int64_t *slot,
    int64_t *seen, int64_t *rating, int64_t cap, int64_t *fav, int64_t *best, int64_t *nc,
    int64_t out_cap, int64_t *moved, int64_t *stats, int64_t stats_cap, int64_t *info,
    const stream_t *stream)
{
    segments_t s = {n, chunk, indptr, degs, adj, wgt, unit_wgt, adj_len, stream};
    rating_map_t m = {slot, seen, (uint64_t *)rating, n, cap};
    int64_t rc = check_round(count, bounds, chunks, out_cap, stats_cap, info);
    if (rc < 0)
        return rc;
    int64_t moves = 0, all_targets = 0;
    for (int64_t j = 0; j < chunks; j++) {
        int64_t t0 = now_ns(), lo = bounds[2 * j], hi = bounds[2 * j + 1];
        uint64_t edges = 0, bumped_nc = 0;
        rc = cluster_phase1(&s, &m, lo, hi, clusters, cluster_weights, vwgt, unit_vwgt,
                            max_cluster_weight, 0, fav, best, nc, &edges, info);
        if (rc < 0)
            return rc;
        int64_t targets = 0, first = moves, bumped = 0;
        for (int64_t i = lo; i < hi; i++) {
            int64_t r = i - lo, u = chunk[i], target = best[r];
            if (nc[r] > 0)
                favorites[u] = fav[r];
            if (nc[r] >= t_bump) {
                bumped++;
                bumped_nc += (uint64_t)nc[r];
            }
            if (target < 0)
                continue;
            targets++;
            int64_t own = clusters[u];
            int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
            if (target == own || !fits(cluster_weights[target], weight, max_cluster_weight))
                continue;
            cluster_weights[own] -= weight;
            cluster_weights[target] += weight;
            clusters[u] = target;
            if (moved)
                moved[moves] = u;
            moves++;
        }
        int64_t *row = stats + STATS * j;
        row[EDGES] = (int64_t)edges;
        row[ROW_TARGETS] = targets;
        row[MOVES] = moves - first;
        row[BUMPED] = bumped;
        row[BUMPED_NC] = (int64_t)bumped_nc;
        row[NANOS] = now_ns() - t0;
        all_targets += targets;
        info[READ] += (int64_t)edges;
    }
    info[TARGETS] = all_targets;
    return moves;
}

/* Distributed LP's clustering pick (repro.dist.dlp), one rank's batch as the
 * chunk: phase 1 with the jitter keyed by chunk index, then, in chunk order,
 * every vertex whose fav[i] is not its own cluster and fits
 * max_cluster_weight goes to moved[] and fav[i] to target[] beside it.
 * clusters[] and cluster_weights[] are read, never written, error or not:
 * the caller commits.  Returns the number of movers. */
int64_t repro_lp_cluster_pick(
    int64_t n, const int64_t *chunk, const int64_t *indptr, const int64_t *degs,
    int64_t count, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, const int64_t *clusters, const int64_t *cluster_weights,
    const int64_t *vwgt, int64_t unit_vwgt, int64_t max_cluster_weight,
    int64_t *slot, int64_t *seen, int64_t *rating, int64_t cap, int64_t *fav,
    int64_t *best, int64_t *nc, int64_t *moved, int64_t *target, int64_t out_cap,
    int64_t *info, const stream_t *stream)
{
    segments_t s = {n, chunk, indptr, degs, adj, wgt, unit_wgt, adj_len, stream};
    rating_map_t m = {slot, seen, (uint64_t *)rating, n, cap};
    uint64_t edges = 0;
    info[TARGETS] = info[READ] = 0;
    info[BAD] = -1;
    if (count < 0 || count > out_cap)
        return ERR_CAPACITY;
    int64_t rc = cluster_phase1(&s, &m, 0, count, clusters, cluster_weights, vwgt, unit_vwgt,
                                max_cluster_weight, 1, fav, best, nc, &edges, info);
    if (rc < 0)
        return rc;
    int64_t moves = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t u = chunk[i], f = fav[i];
        int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
        if (f < 0 || f == clusters[u] || !fits(cluster_weights[f], weight, max_cluster_weight))
            continue;
        moved[moves] = u;
        target[moves++] = f;
    }
    info[TARGETS] = moves;
    info[READ] = (int64_t)edges;
    return moves;
}

/* Phase 1 of a refinement chunk, the vertices at positions [lo, hi):
 * best[i - lo] is the block of highest positive gain among vertex i's
 * neighbouring blocks other than its own whose weight limit still admits it
 * (-1: none); gain(b) = rating(b) - rating(own block).  Reads part[] /
 * block_weights[], writes neither; returns 0 or an error. */
static inline __attribute__((always_inline)) int64_t refine_phase1(
    const segments_t *s, rating_map_t *m, int64_t lo, int64_t hi, const int32_t *part,
    const int64_t *block_weights, const int64_t *vwgt, int64_t unit_vwgt,
    const int64_t *limits, int64_t *best, uint64_t *edges, int64_t *info)
{
    for (int64_t i = lo; i < hi; i++) {
        read_ahead(s, i, hi, 0, part);
        info[BAD] = i;
        int64_t u = s->chunk[i];
        if (!IN_RANGE(u, s->n))
            return ERR_VERTEX;
        int64_t own = part[u];
        if (!IN_RANGE(own, m->labels))
            return ERR_LABEL;
        int64_t labels = rate(s, i, 0, part, m, 0, edges);
        if (labels < 0)
            return labels;
        int64_t weight = vwgt ? vwgt[u] : unit_vwgt;
        uint64_t own_rating = m->slot[own] ? m->rating[m->slot[own] - 1] : 0;
        int64_t best_gain = 0, best_block = -1;
        for (int64_t j = 0; j < labels; j++) {
            int64_t b = m->seen[j];
            m->slot[b] = 0;
            int64_t gain = (int64_t)(m->rating[j] - own_rating);
            if (b == own || gain <= 0 || !fits(block_weights[b], weight, limits[b]))
                continue;
            if (best_block < 0 || gain > best_gain || (gain == best_gain && b > best_block)) {
                best_gain = gain;
                best_block = b;
            }
        }
        best[i - lo] = best_block;
    }
    return 0;
}

/* Shared memory's refinement round: chunk by chunk, phase 1, then every
 * vertex with a target commits to it in chunk order if it still fits. */
int64_t repro_lp_refine_round(
    int64_t n, const int64_t *chunk, const int64_t *indptr, const int64_t *degs,
    int64_t count, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, const int64_t *bounds, int64_t chunks, int64_t k,
    int32_t *part, int64_t *block_weights, const int64_t *vwgt, int64_t unit_vwgt,
    const int64_t *limits, int64_t *slot, int64_t *seen, int64_t *rating, int64_t cap,
    int64_t *best, int64_t out_cap, int64_t *moved, int64_t *stats, int64_t stats_cap,
    int64_t *info, const stream_t *stream)
{
    segments_t s = {n, chunk, indptr, degs, adj, wgt, unit_wgt, adj_len, stream};
    rating_map_t m = {slot, seen, (uint64_t *)rating, k, cap};
    int64_t rc = check_round(count, bounds, chunks, out_cap, stats_cap, info);
    if (rc < 0)
        return rc;
    int64_t moves = 0, all_targets = 0;
    for (int64_t j = 0; j < chunks; j++) {
        int64_t t0 = now_ns(), lo = bounds[2 * j], hi = bounds[2 * j + 1];
        uint64_t edges = 0;
        rc = refine_phase1(&s, &m, lo, hi, part, block_weights, vwgt, unit_vwgt, limits, best,
                           &edges, info);
        if (rc < 0)
            return rc;
        int64_t targets = 0, first = moves;
        for (int64_t i = lo; i < hi; i++) {
            int64_t target = best[i - lo];
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
            if (moved)
                moved[moves] = u;
            moves++;
        }
        int64_t *row = stats + STATS * j;
        row[EDGES] = (int64_t)edges;
        row[ROW_TARGETS] = targets;
        row[MOVES] = moves - first;
        row[BUMPED] = row[BUMPED_NC] = 0;
        row[NANOS] = now_ns() - t0;
        all_targets += targets;
        info[READ] += (int64_t)edges;
    }
    info[TARGETS] = all_targets;
    return moves;
}

/* Distributed LP's refinement pick (repro.dist.dlp), one rank's batch as the
 * chunk: phase 1, then, in chunk order, every vertex with a best[i] goes to
 * moved[] and best[i] to target[] beside it.  part[] and block_weights[] are
 * read, never written, error or not: the caller applies every move and the
 * rebalancer repairs what the batch overfilled.  Returns the number of
 * movers. */
int64_t repro_lp_refine_pick(
    int64_t n, const int64_t *chunk, const int64_t *indptr, const int64_t *degs,
    int64_t count, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, int64_t k, const int32_t *part, const int64_t *block_weights,
    const int64_t *vwgt, int64_t unit_vwgt, const int64_t *limits, int64_t *slot,
    int64_t *seen, int64_t *rating, int64_t cap, int64_t *best, int64_t *moved,
    int64_t *target, int64_t out_cap, int64_t *info, const stream_t *stream)
{
    segments_t s = {n, chunk, indptr, degs, adj, wgt, unit_wgt, adj_len, stream};
    rating_map_t m = {slot, seen, (uint64_t *)rating, k, cap};
    uint64_t edges = 0;
    info[TARGETS] = info[READ] = 0;
    info[BAD] = -1;
    if (count < 0 || count > out_cap)
        return ERR_CAPACITY;
    int64_t rc = refine_phase1(&s, &m, 0, count, part, block_weights, vwgt, unit_vwgt, limits,
                               best, &edges, info);
    if (rc < 0)
        return rc;
    int64_t moves = 0;
    for (int64_t i = 0; i < count; i++) {
        if (best[i] < 0)
            continue;
        moved[moves] = chunk[i];
        target[moves++] = best[i];
    }
    info[TARGETS] = moves;
    info[READ] = (int64_t)edges;
    return moves;
}

/* emit() below: up to FEW labels are insertion-sorted; more are read off a
 * bitmap if their id range spans at most WIDE words a label, else sorted by
 * the C library.  On kmer(70 000, 4) the bitmap takes the deep levels, where
 * a coarse vertex sees much of the level, and the sort about one coarse
 * vertex in a hundred. */
#define FEW 16
#define WIDE 8

static int ascending(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Write the `touched` labels of the map but `mine` ascending, with their
 * ratings, into label[] / weight[], and reset the map; returns how many.
 * The bitmap lives in seen[]'s unused tail, over the words of [lo, hi]. */
static inline int64_t emit(rating_map_t *m, int64_t touched, int64_t mine, int64_t *label,
                           int64_t *weight)
{
    int64_t *a = m->seen, d = 0;
    if (touched > FEW) {
        int64_t lo = a[0], hi = a[0];
        for (int64_t j = 1; j < touched; j++) {
            lo = a[j] < lo ? a[j] : lo;
            hi = a[j] > hi ? a[j] : hi;
        }
        int64_t first = lo >> 6, words = (hi >> 6) - first + 1;
        if (words <= WIDE * touched && words <= m->cap - touched) {
            uint64_t *bits = (uint64_t *)(a + touched);
            for (int64_t w = 0; w < words; w++)
                bits[w] = 0;
            for (int64_t j = 0; j < touched; j++) {
                int64_t c = a[j] - (first << 6);
                bits[c >> 6] |= (uint64_t)1 << (c & 63);
            }
            for (int64_t w = 0; w < words; w++)
                for (uint64_t b = bits[w]; b; b &= b - 1) {
                    int64_t c = ((first + w) << 6) | __builtin_ctzll(b);
                    int64_t j = m->slot[c];
                    m->slot[c] = 0;
                    if (c == mine)
                        continue;
                    label[d] = c;
                    weight[d++] = (int64_t)m->rating[j - 1];
                }
            return d;
        }
        qsort(a, (size_t)touched, sizeof *a, ascending);
    } else {
        for (int64_t i = 1; i < touched; i++) {
            int64_t v = a[i], j = i;
            for (; j > 0 && a[j - 1] > v; j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
    }
    for (int64_t j = 0; j < touched; j++) {
        int64_t c = a[j];
        uint64_t sum = m->rating[m->slot[c] - 1];
        m->slot[c] = 0;
        if (c == mine)
            continue;
        label[d] = c;
        weight[d++] = (int64_t)sum;
    }
    return d;
}

/* Contraction on the rating map (PAPER.md section IV-B): the coarse
 * neighbourhoods of group_count coarse vertices.  Group g is the chunk
 * vertices [groups[g] - groups[0], groups[g + 1] - groups[0]) -- the members
 * of coarse vertex g, whose own label is g.  Every member's neighbourhood is
 * rated into one map keyed by the neighbour's label (labels[v], below
 * label_count), the own label is dropped, and the labels left are written
 * ascending with their summed weights: label[] / weight[] continue where the
 * previous group stopped, degree[g] counts group g's.
 *
 * Why this is byte-identical to the sorted (owner, label) pair list of
 * kernels/contraction.py and of coarsening/contraction.py: both hold one
 * pair per distinct (group, label) -- a label whose edges sum to 0 included
 * -- with the weights summed modulo 2^64, owners in group order and labels
 * ascending within.  With every coarse vertex a group, in coarse id order,
 * the pairs are the coarse CSR itself: every caller (buffered and one-pass
 * contraction, a rank of distributed contraction) numbers its coarse
 * vertices first, so label[] / weight[] are the coarse adjncy / adjwgt.
 *
 * Contract, besides the one above (tests/test_contract_kernel.py):
 *   - every chunk id u is checked against [0, n), then its segment as the
 *     LP entries check it (a stream's degs[u] >= 0), and the degrees summed
 *     over the chunk <= out_cap, all before anything is written: an edge
 *     adds at most one pair, so label[] and weight[] are then written only
 *     below out_cap;
 *   - groups[] never runs down and groups[group_count] - groups[0] <= count,
 *     checked (without forming a sum that overflows) before a group is read;
 *     degree[] is written only below group_count;
 *   - every neighbour's label is checked against [0, label_count) before it
 *     is rated;
 *   - an error returns the chunk index of the vertex in info[BAD] (-1 for a
 *     group that has none), the outputs are garbage then, slot[] is zero.
 *
 * Returns the number of pairs written, info[READ] the edges read. */
int64_t repro_contract_chunk(
    int64_t n, const int64_t *chunk, const int64_t *indptr, const int64_t *degs,
    int64_t count, const int64_t *adj, const int64_t *wgt, int64_t unit_wgt,
    int64_t adj_len, int64_t label_count, const int64_t *labels, int64_t *slot,
    int64_t *seen, int64_t *rating, int64_t cap, const int64_t *groups, int64_t group_count,
    int64_t *label, int64_t *weight, int64_t out_cap, int64_t *degree, int64_t *info,
    const stream_t *stream)
{
    segments_t s = {n, chunk, indptr, degs, adj, wgt, unit_wgt, adj_len, stream};
    rating_map_t m = {slot, seen, (uint64_t *)rating, label_count, cap};
    uint64_t read = 0;
    info[TARGETS] = info[READ] = 0;
    info[BAD] = -1;
    if (count < 0 || group_count < 0)
        return ERR_CAPACITY;
    int64_t edges = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t u = chunk[i], start, deg;
        info[BAD] = i;
        if (!IN_RANGE(u, n))
            return ERR_VERTEX;
        if (stream ? (deg = degs[u]) < 0 : !segment(&s, u, &start, &deg))
            return ERR_SEGMENT;
        if (deg > out_cap - edges)
            return ERR_CAPACITY;
        edges += deg;
    }
    int64_t written = 0;
    for (int64_t g = 0; g < group_count; g++) {
        info[BAD] = -1;
        /* groups[g] >= groups[0] by induction, so the differences fit */
        if (groups[g + 1] < groups[g] ||
            (uint64_t)groups[g + 1] - (uint64_t)groups[0] > (uint64_t)count)
            return ERR_SEGMENT;
        int64_t lo = (int64_t)((uint64_t)groups[g] - (uint64_t)groups[0]);
        int64_t hi = (int64_t)((uint64_t)groups[g + 1] - (uint64_t)groups[0]);
        int64_t touched = 0;
        for (int64_t i = lo; i < hi; i++) {
            info[BAD] = i;
            /* members lie anywhere in adj: read them ahead (CSR only) */
            if (!stream)
                read_ahead(&s, i, count, labels, 0);
            touched = rate(&s, i, labels, 0, &m, touched, &read);
            if (touched < 0)
                return touched;
        }
        int64_t d = emit(&m, touched, g, label + written, weight + written);
        degree[g] = d;
        written += d;
    }
    info[READ] = (int64_t)read;
    return written;
}

/* Counting sort of the vertices 0..count-1 by labels[v] (below
 * label_count): members[] lists them label by label, ascending within one
 * -- the permutation np.argsort(labels, kind="stable") returns -- and label
 * c's run is members[offsets[c] .. offsets[c + 1]) (label_count + 1
 * entries).  A label out of range returns ERR_LABEL with its vertex in
 * info[BAD], before anything but offsets[] is written. */
int64_t repro_group_by_label(const int64_t *labels, int64_t count, int64_t label_count,
                             int64_t *offsets, int64_t *members, int64_t *info)
{
    info[TARGETS] = 0;
    info[BAD] = -1;
    if (count < 0 || label_count < 0)
        return ERR_CAPACITY;
    for (int64_t c = 0; c <= label_count; c++)
        offsets[c] = 0;
    for (int64_t v = 0; v < count; v++) {
        int64_t c = labels[v];
        if (!IN_RANGE(c, label_count)) {
            info[BAD] = v;
            return ERR_LABEL;
        }
        offsets[c + 1]++;
    }
    for (int64_t c = 0; c < label_count; c++)
        offsets[c + 1] += offsets[c];
    for (int64_t v = 0; v < count; v++)
        members[offsets[labels[v]]++] = v;
    /* the scatter moved every start to the next label's: shift them back */
    for (int64_t c = label_count; c > 0; c--)
        offsets[c] = offsets[c - 1];
    offsets[0] = 0;
    return 0;
}
