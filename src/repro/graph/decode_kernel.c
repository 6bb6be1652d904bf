/* The native codec of repro.graph.compressed: the chunk decode, the crossing
 * walk and the packet encoder, one file over one row reader (neighborhood.h:
 * MIN_INTERVAL_LEN, the reader's codes and the visitor).
 *
 * Three exported functions, no state, no Python objects: ctypes calls them
 * with the GIL released.  repro_decode_chunk, the visitor with the store
 * sink, fills the same (owner, neighbors, weights) arrays as the numpy
 * reference decoder (tests/oracles.py) for every row, chunk-encoded hubs
 * included; the stream layout is described in compressed.py.
 * repro_crossing_weight sums the weight of a labelling's crossing edges as
 * it visits every row, with no row written: the cut of a compressed graph
 * (repro.graph.access.crossing_weight; its reference is the block loop in
 * tests/oracles.py).  The LP rounds and contraction (core/kernels/lp_kernel.c)
 * and the FM pass (core/refinement/fm_kernel.c) read rows through the same
 * header.  repro_encode_run writes the bytes, per-vertex byte starts and
 * stats deltas of the numpy and per-vertex reference encoders
 * (tests/oracles.py) for one run of vertices.
 *
 * Reader's memory-safety contract (tests/test_bulk_decode.py and
 * tests/test_visitor.py hold it to this; neighborhood.h states the rest):
 *   - vertex u is read only inside data[offsets[u], offsets[u+1]), and only
 *     after 0 <= u < n and 0 <= offsets[u] <= offsets[u+1] <= data_len held;
 *   - the chunk decode writes vertex u only inside its own degs[i] output
 *     slots, and only after degs[i] >= 0 and the running slot count stayed
 *     <= capacity; the crossing walk takes a degree only in [0, stream->cap];
 *   - `pairs` is written only below pairs_cap;
 *   - a stream that breaks a rule returns a negative code (and the chunk
 *     index, or the vertex, in *bad) instead of trapping.  Outputs are then
 *     partially written garbage the caller drops.
 *
 * A neighborhood above hub_threshold is chunk-encoded: chunks of chunk_length
 * values (the last one shorter), each a VarInt byte length and a block laid
 * out like a plain neighborhood, its first values relative to u and its
 * weights from 0.  Both directions walk it chunk by chunk; a chunk's length
 * is checked against what is left of the vertex's byte range before its
 * block is read.
 *
 * Writer's memory-safety contract (tests/test_compress_kernel.py holds it to
 * this):
 *   - first_edge is read at [0, count], nbrs and wgts only inside
 *     [0, edges), and a row only after first_edge[0] >= 0 and
 *     first_edge[i] <= first_edge[i+1] <= first_edge[0] + edges held;
 *   - out is written only below out_cap, a row only after its measured
 *     bytes were checked against what is left; starts only at [0, count),
 *     stats only at [0, 5);
 *   - every neighbor id is checked to lie in [0, 2^62) and every vertex id
 *     lo + i below 2^62 before any difference is taken, so no structural
 *     value overflows; a weight gap wraps modulo 2^64 like numpy's
 *     subtraction and is refused unless its sign fold fits 63 bits;
 *   - a row above hub_threshold has its ids checked whole before its chunks
 *     are measured (each chunk's weight gaps from 0), so a descent or a
 *     repeat across a chunk boundary is caught as inside a plain row;
 *   - a row it cannot take as it is -- a descent (the caller sorts and calls
 *     again), a neighbor listed twice or a weight gap too wide (refused) --
 *     returns a negative code with the run index of the vertex in *bad.
 *     The size pass (out == NULL) writes nothing but *bad, so a caller that
 *     sizes first refuses before writing a byte.
 */
#include <stddef.h>
#include <stdint.h>

#include "neighborhood.h"

/* the writer's codes, after the reader's (neighborhood.h) */
enum {
    ERR_DESCENT = -8,   /* encoder: a row's neighbors descend (the caller sorts, calls again) */
    ERR_DUPLICATE = -9, /* encoder: a row lists the same neighbor twice */
    ERR_WEIGHT = -10,   /* encoder: an edge-weight gap whose sign fold does not fit 63 bits */
    ERR_CAPACITY = -11  /* encoder: the output buffer is shorter than the run's bytes */
};

/* Decode the neighborhoods of chunk[0..count) back to back: the visitor with
 * the store sink.  Returns 0, or a negative ERR_* with *bad set to the chunk
 * index it was found at.  The loop keeps its own checks, in this order: with
 * them after the owner fill it measured 8-15 % slower per edge (gcc 12 -O3,
 * permuted chunks of weblike(40 000, 14)). */
int64_t repro_decode_chunk(const uint8_t *data, int64_t data_len,
                           const int64_t *offsets, int64_t n,
                           const int64_t *chunk, const int64_t *degs,
                           int64_t count, int64_t hub_threshold, int64_t chunk_length,
                           int32_t intervals,
                           int64_t *owner, int64_t *nbrs, int64_t *wgts,
                           int64_t capacity,
                           int64_t *pairs, int64_t pairs_cap, int64_t *bad)
{
    int64_t out = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t u = chunk[i], deg = degs[i];
        *bad = i;
        if (u < 0 || u >= n || deg < 0 || deg > capacity - out)
            return ERR_METADATA;
        int64_t lo = offsets[u], hi = offsets[u + 1];
        if (lo < 0 || lo > hi || hi > data_len)
            return ERR_METADATA;
        for (int64_t t = 0; t < deg; t++)
            owner[out + t] = i;
        row_t row = {nbrs + out, wgts ? wgts + out : NULL, 0};
        int rc = visit_neighborhood(data + lo, data + hi, u, n, deg, intervals, wgts != NULL, 0,
                                    hub_threshold, chunk_length, pairs, pairs_cap, store, &row);
        if (rc)
            return rc;
        out += deg;
    }
    return out == capacity ? 0 : ERR_METADATA;
}

/* the crossing sink: adds w where v's label is not the row owner's */
typedef struct {
    const int32_t *label32;
    const int64_t *label64;
    int64_t own;
    uint64_t sum;
} crossing_t;

static inline int cross(void *ctx, int64_t v, int64_t w)
{
    crossing_t *c = ctx;
    if ((c->label64 ? c->label64[v] : c->label32[v]) != c->own)
        c->sum += (uint64_t)w;
    return 0;
}

/* The weight of the directed edges of vertices 0..n-1 whose endpoints carry
 * different labels (int32 label32, else int64 label64, n entries each): every
 * row visited from the stream, degs[u] neighbours each, unit weights where it
 * holds none.  Sums wrap modulo 2^64 like numpy's.  Returns 0 with the sum in
 * *out, or the visitor's negative ERR_* with the vertex in *bad. */
int64_t repro_crossing_weight(int64_t n, const int64_t *degs, const int32_t *label32,
                              const int64_t *label64, const stream_t *stream, int64_t *out,
                              int64_t *bad)
{
    crossing_t c = {label32, label64, 0, 0};
    *bad = -1;
    for (int64_t u = 0; u < n; u++) {
        c.own = label64 ? label64[u] : label32[u];
        int rc = visit_stream_row(stream, n, u, degs[u], stream->weighted != 0, 1, cross, &c);
        if (rc) {
            *bad = u;
            return rc;
        }
    }
    *out = (int64_t)c.sum;
    return 0;
}

/* ---------------------------------------------------------------------- */
/* The encoder                                                             */
/* ---------------------------------------------------------------------- */

/* ids and signed values stay strictly inside +-2^62: a sign fold fits 63 bits */
#define FOLD_LIMIT ((int64_t)1 << 62)

/* bytes of the VarInt of v < 2^63 (varint.varint_len) */
static inline int64_t varint_bytes(uint64_t v)
{
    return (64 - __builtin_clzll(v | 1) + 6) / 7;
}

/* bit 0 = sign (varint.zigzag_encode); |x| < 2^62 */
static inline uint64_t fold_sign(int64_t x)
{
    return x < 0 ? ((uint64_t)-x << 1) | 1 : (uint64_t)x << 1;
}

static inline uint8_t *put_varint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = (uint8_t)(v | 0x80);
        v >>= 7;
    }
    *p++ = (uint8_t)v;
    return p;
}

/* One row's byte layout after its header, and the walk's state.  A row is
 * cut into maximal runs of consecutive ids; a run of >= MIN_INTERVAL_LEN ids
 * is an interval (with interval encoding on), any other run is residuals
 * whose gaps after the first are 0. */
typedef struct {
    int64_t ni, covered;                /* intervals, the ids they cover */
    int64_t iv_bytes, res_bytes, w_bytes;
    int64_t prev_end, prev_res;         /* -1 before the first of each */
} shape_t;

static inline uint64_t interval_head(const shape_t *s, int64_t left, int64_t u)
{
    return s->prev_end < 0 ? fold_sign(left - u) : (uint64_t)(left - s->prev_end);
}

static inline uint64_t residual_head(const shape_t *s, int64_t v, int64_t u)
{
    return s->prev_res < 0 ? fold_sign(v - u) : (uint64_t)(v - s->prev_res - 1);
}

static inline void measure_run(shape_t *s, const int64_t *row, int64_t j, int64_t k, int64_t u,
                               int intervals)
{
    if (intervals && k - j >= MIN_INTERVAL_LEN) {
        s->iv_bytes += varint_bytes(interval_head(s, row[j], u)) +
                       varint_bytes((uint64_t)(k - j - MIN_INTERVAL_LEN));
        s->ni++;
        s->covered += k - j;
        s->prev_end = row[j] + (k - j);
    } else {
        s->res_bytes += varint_bytes(residual_head(s, row[j], u)) + (k - j - 1);
        s->prev_res = row[k - 1];
    }
}

/* Check vertex u's row (ids in [0, 2^62), strictly ascending, weight gaps
 * that fold into 63 bits) and measure it.  Returns 0 or a negative ERR_*. */
static inline int measure_row(shape_t *s, const int64_t *row, const int64_t *rw, int64_t deg,
                              int64_t u, int intervals)
{
    *s = (shape_t){0, 0, 0, 0, 0, -1, -1};
    int64_t prev = -1, j = 0;
    for (int64_t t = 0; t < deg; t++) {
        int64_t v = row[t];
        if (v < 0 || v >= FOLD_LIMIT)
            return ERR_RANGE;
        if (v <= prev)
            return v < prev ? ERR_DESCENT : ERR_DUPLICATE;
        if (t && v != prev + 1) {
            measure_run(s, row, j, t, u, intervals);
            j = t;
        }
        prev = v;
    }
    measure_run(s, row, j, deg, u, intervals);
    if (rw) {
        uint64_t prev_w = 0;
        for (int64_t t = 0; t < deg; t++) {
            /* wraps modulo 2^64 like numpy's w - prev_w */
            int64_t gap = (int64_t)((uint64_t)rw[t] - prev_w);
            if (gap <= -FOLD_LIMIT || gap >= FOLD_LIMIT)
                return ERR_WEIGHT;
            s->w_bytes += varint_bytes(fold_sign(gap));
            prev_w = (uint64_t)rw[t];
        }
    }
    return 0;
}

/* bytes of a measured row (or chunk) after its header */
static inline int64_t block_bytes(const shape_t *s, int intervals)
{
    return (intervals ? varint_bytes((uint64_t)s->ni) : 0) + s->iv_bytes + s->res_bytes +
           s->w_bytes;
}

/* Check and measure vertex u's row above hub_threshold: its ids whole (in
 * [0, 2^62), strictly ascending), then chunk by chunk of chunk_length its
 * runs and weight gaps, each chunk's first gap against 0.  Sums the chunks'
 * shapes into *s; returns the bytes after the header, each chunk's length
 * prefix included, or a negative ERR_*. */
static int64_t measure_chunks(shape_t *s, const int64_t *row, const int64_t *rw, int64_t deg,
                              int64_t u, int intervals, int64_t chunk_length)
{
    for (int64_t t = 0, prev = -1; t < deg; prev = row[t++]) {
        if (row[t] < 0 || row[t] >= FOLD_LIMIT)
            return ERR_RANGE;
        if (row[t] <= prev)
            return row[t] < prev ? ERR_DESCENT : ERR_DUPLICATE;
    }
    int64_t bytes = 0;
    *s = (shape_t){0, 0, 0, 0, 0, -1, -1};
    for (int64_t at = 0, count; at < deg; at += count) {
        count = deg - at < chunk_length ? deg - at : chunk_length;
        shape_t c;
        int rc = measure_row(&c, row + at, rw ? rw + at : NULL, count, u, intervals);
        if (rc)
            return rc;
        int64_t b = block_bytes(&c, intervals);
        bytes += varint_bytes((uint64_t)b) + b;
        s->ni += c.ni;
        s->covered += c.covered;
        s->w_bytes += c.w_bytes;
    }
    return bytes;
}

/* Write a measured row after its header: [interval count], then the
 * interval pairs from p on and the residuals from p + iv_bytes on in one
 * walk over the runs, then the weight gaps. */
static inline void write_row(uint8_t *p, const shape_t *m, const int64_t *row, const int64_t *rw,
                             int64_t deg, int64_t u, int intervals)
{
    if (intervals)
        p = put_varint(p, (uint64_t)m->ni);
    uint8_t *res = p + m->iv_bytes;
    if (!m->ni) {
        res = put_varint(res, fold_sign(row[0] - u));
        for (int64_t t = 1; t < deg; t++)
            res = put_varint(res, (uint64_t)(row[t] - row[t - 1] - 1));
    } else {
        shape_t s = {0, 0, 0, 0, 0, -1, -1};
        for (int64_t j = 0, k; j < deg; j = k) {
            for (k = j + 1; k < deg && row[k] == row[k - 1] + 1; k++)
                ;
            if (k - j >= MIN_INTERVAL_LEN) {
                p = put_varint(p, interval_head(&s, row[j], u));
                p = put_varint(p, (uint64_t)(k - j - MIN_INTERVAL_LEN));
                s.prev_end = row[j] + (k - j);
            } else {
                res = put_varint(res, residual_head(&s, row[j], u));
                for (int64_t t = j + 1; t < k; t++)
                    *res++ = 0;
                s.prev_res = row[k - 1];
            }
        }
    }
    uint64_t prev_w = 0;
    for (int64_t t = 0; rw && t < deg; t++) {
        res = put_varint(res, fold_sign((int64_t)((uint64_t)rw[t] - prev_w)));
        prev_w = (uint64_t)rw[t];
    }
}

/* Write a row measure_chunks took after its header: per chunk its byte
 * length, then its block. */
static void write_chunks(uint8_t *p, const int64_t *row, const int64_t *rw, int64_t deg,
                         int64_t u, int intervals, int64_t chunk_length)
{
    for (int64_t at = 0, count; at < deg; at += count) {
        count = deg - at < chunk_length ? deg - at : chunk_length;
        shape_t c;
        measure_row(&c, row + at, rw ? rw + at : NULL, count, u, intervals);
        int64_t b = block_bytes(&c, intervals);
        p = put_varint(p, (uint64_t)b);
        write_row(p, &c, row + at, rw ? rw + at : NULL, count, u, intervals);
        p += b;
    }
}

static inline __attribute__((always_inline)) int64_t encode_run(
    int64_t lo, const int64_t *first_edge, int64_t count, const int64_t *nbrs, int64_t edges,
    const int64_t *wgts, int intervals, int64_t hub_threshold, int64_t chunk_length,
    uint8_t *out, int64_t out_cap, int64_t *starts, int64_t *stats, int64_t *bad,
    const int write)
{
    int64_t pos = 0, num_iv = 0, iv_edges = 0, header_bytes = 0, weight_bytes = 0, hubs = 0;
    *bad = 0;
    if (count < 0 || lo < 0 || lo > FOLD_LIMIT - count || edges < 0 || hub_threshold < 0 ||
        chunk_length < 1)
        return ERR_METADATA;
    int64_t fe0 = first_edge[0];
    if (fe0 < 0)
        return ERR_METADATA;
    for (int64_t i = 0; i < count; i++) {
        int64_t a = first_edge[i], b = first_edge[i + 1];
        *bad = i;
        if (b < a || b - fe0 > edges)
            return ERR_METADATA;
        const int64_t *row = nbrs + (a - fe0);
        const int64_t *rw = wgts && b > a ? wgts + (a - fe0) : NULL;
        int64_t deg = b - a, head = varint_bytes((uint64_t)a), bytes = head;
        shape_t s = {0, 0, 0, 0, 0, -1, -1};
        int hub = deg > hub_threshold;
        if (hub) {
            int64_t body = measure_chunks(&s, row, rw, deg, lo + i, intervals, chunk_length);
            if (body < 0)
                return body;
            bytes += body;
        } else if (deg) {
            int rc = measure_row(&s, row, rw, deg, lo + i, intervals);
            if (rc)
                return rc;
            bytes += block_bytes(&s, intervals);
        }
        if (write) {
            if (bytes > out_cap - pos)
                return ERR_CAPACITY;
            starts[i] = pos;
            uint8_t *p = put_varint(out + pos, (uint64_t)a);
            if (hub)
                write_chunks(p, row, rw, deg, lo + i, intervals, chunk_length);
            else if (deg)
                write_row(p, &s, row, rw, deg, lo + i, intervals);
        }
        pos += bytes;
        header_bytes += head;
        weight_bytes += s.w_bytes;
        num_iv += s.ni;
        iv_edges += s.covered;
        hubs += hub;
    }
    *bad = count;
    if (first_edge[count] - fe0 != edges)
        return ERR_METADATA;
    if (write) {
        stats[0] += num_iv;
        stats[1] += iv_edges;
        stats[2] += header_bytes;
        stats[3] += weight_bytes;
        stats[4] += hubs;
    }
    return pos;
}

/* Encode the consecutive vertices lo..lo+count-1 back to back: per vertex
 * the first-edge header, then [interval count, pairs], residual gaps and, if
 * wgts, weight gaps -- as one block, or above hub_threshold as chunks of
 * chunk_length values, each its byte length and its block.  With out == NULL
 * only sizes and checks the run (the return value is the exact byte count);
 * with out writes the bytes, the byte start of every vertex into
 * starts[0..count) and adds (intervals, interval edges, header bytes, weight
 * bytes, chunk-encoded vertices) into stats[0..5).  Returns the bytes, or a
 * negative ERR_* with *bad set to the run index of the vertex. */
int64_t repro_encode_run(int64_t lo, const int64_t *first_edge, int64_t count,
                         const int64_t *nbrs, int64_t edges, const int64_t *wgts,
                         int32_t intervals, int64_t hub_threshold, int64_t chunk_length,
                         uint8_t *out, int64_t out_cap, int64_t *starts, int64_t *stats,
                         int64_t *bad)
{
    if (!out)
        return encode_run(lo, first_edge, count, nbrs, edges, wgts, intervals, hub_threshold,
                          chunk_length, NULL, 0, NULL, NULL, bad, 0);
    if (!starts || !stats || out_cap < 0)
        return ERR_METADATA;
    return encode_run(lo, first_edge, count, nbrs, edges, wgts, intervals, hub_threshold,
                      chunk_length, out, out_cap, starts, stats, bad, 1);
}
