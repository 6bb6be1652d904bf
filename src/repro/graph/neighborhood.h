/* The row reader of repro.graph.compressed, shared by every compiled reader
 * of the stream: decode_kernel.c (the chunk decode, the crossing walk),
 * core/kernels/lp_kernel.c (the LP rounds and picks, contraction) and
 * core/refinement/fm_kernel.c (the FM pass, the gain-table build).  All
 * static inline: each reader compiles its own copy with its sink inlined.
 *
 * visit_neighborhood hands vertex u's neighbours, and their weights, to a
 * sink in ascending id order, one call each, without writing a row: an
 * interval is expanded at the residual merge pointer that its overlap check
 * walks, a chunk-encoded hub chunk by chunk.  The weights of a block follow
 * its residuals; a second cursor starts there, found by skipping the block's
 * deg - covered residual VarInts, and reads weight i as neighbour i is
 * visited, so neighbour and weight pair up as in the decoded row.  The store
 * sink writes the sorted row the chunk decode and the FM pass read.
 *
 * Every check of the row is made where the decoder always made it, so with a
 * sink that never stops the walk the code of a faulty row is the decoder's:
 * the header, then the interval block (before any neighbour is visited),
 * then the residuals in stream order (a range or overlap fault as the
 * residual is read), then the weights, then the byte count.  A weight fault
 * -- a weight VarInt that is truncated or too long, or a residual one the
 * skip to the weights could not read -- is held until the residuals are
 * walked and returned only if they hold none (a residual the skip could not
 * read fails the walk at that residual or before).
 *
 * A sink returns 0 to go on or a positive value to stop the walk, and the
 * visitor returns that value at once.  So for a row with two faults, a sink's
 * refusal of a neighbour (a label out of range, a full rating map) met
 * before a later bad byte is what the caller reports, as a bad residual or
 * interval met first is; a bad weight or byte count anywhere in the row is
 * reported only after every neighbour was visited, so a sink's refusal wins
 * over it.
 *
 * Memory safety: vertex u's bytes are read only inside [p, end), each chunk
 * only inside its length, after that was checked against what is left;
 * pairs[] is written only below pairs_cap; every structural value is
 * range-checked before it is added to another, so no signed overflow;
 * weights are prefix sums of arbitrary gaps and wrap modulo 2^64 exactly like
 * numpy's cumsum; at most deg neighbours are visited.
 */
#ifndef REPRO_NEIGHBORHOOD_H
#define REPRO_NEIGHBORHOOD_H

#include <stddef.h>
#include <stdint.h>

#define MIN_INTERVAL_LEN 3

/* the reader's codes; the writer's continue in decode_kernel.c */
enum {
    ERR_TRUNCATED = -1, /* varint runs past the end of the neighborhood */
    ERR_TOO_LONG = -2,  /* varint does not fit 63 bits */
    ERR_INTERVALS = -3, /* interval count or lengths exceed the degree */
    ERR_OVERLAP = -4,   /* a residual falls inside an interval */
    ERR_COUNT = -5,     /* neighborhood holds more or fewer values than its degree asks for */
    ERR_RANGE = -6,     /* neighbor id outside [0, n) (encoder: [0, 2^62)) */
    ERR_METADATA = -7,  /* vertex id, byte range, degree or buffer size */
    ERR_CHUNK = -12     /* a chunk's byte length runs past its neighborhood */
};

/* the compressed source of the LP, contraction, FM and crossing walks
 * (_native.Stream): a graph's byte stream and offsets, its interval flag,
 * whether it holds edge weights, the largest degree a row may claim (cap)
 * with one row's scratch of that many ids and weights (NULL where the reader
 * visits rows instead of decoding them), the interval pairs of one block
 * and the chunking threshold and chunk length of its format */
typedef struct {
    const uint8_t *data;
    int64_t data_len;
    const int64_t *offsets;
    int64_t intervals;
    int64_t *nbrs, *wgts;
    int64_t cap;
    int64_t *pairs;
    int64_t pairs_cap;
    int64_t hub_threshold, chunk_length;
    int64_t weighted;
} stream_t;

/* 0 to go on, a positive value to stop the walk with */
typedef int (*visit_fn)(void *ctx, int64_t v, int64_t w);

#define VISIT_INLINE static inline __attribute__((always_inline))

/* read_varint() whole, out of line, for what its inline widths leave: four
 * bytes or more, or a VarInt cut short.  Nine bytes carry 63 bits; a tenth
 * may only be the terminator 0x00, which is what the oracle accepts too. */
static __attribute__((noinline, unused)) int read_long_varint(const uint8_t **pp,
                                                              const uint8_t *end, int64_t *out)
{
    const uint8_t *p = *pp;
    uint64_t v = 0;
    for (int shift = 0; shift < 63; shift += 7) {
        if (p >= end)
            return ERR_TRUNCATED;
        uint8_t b = *p++;
        v |= (uint64_t)(b & 0x7F) << shift;
        if (!(b & 0x80)) {
            *pp = p;
            *out = (int64_t)v;
            return 0;
        }
    }
    if (p >= end)
        return ERR_TRUNCATED;
    if (*p != 0)
        return ERR_TOO_LONG;
    *pp = p + 1;
    *out = (int64_t)v;
    return 0;
}

/* Read one VarInt from [*pp, end): one to three bytes inline (a gap below
 * 2^21, nearly every value of a row), the rest by read_long_varint, so each
 * inlined copy of the visitor stays small. */
VISIT_INLINE int read_varint(const uint8_t **pp, const uint8_t *end, int64_t *out)
{
    const uint8_t *p = *pp;
    if (__builtin_expect(p < end && *p < 0x80, 1)) { /* one byte */
        *out = *p;
        *pp = p + 1;
        return 0;
    }
    if (end - p >= 2 && p[1] < 0x80) { /* two */
        *out = (p[0] & 0x7F) | (int64_t)p[1] << 7;
        *pp = p + 2;
        return 0;
    }
    if (end - p >= 3 && p[2] < 0x80) { /* three */
        *out = (p[0] & 0x7F) | (int64_t)(p[1] & 0x7F) << 7 | (int64_t)p[2] << 14;
        *pp = p + 3;
        return 0;
    }
    return read_long_varint(pp, end, out);
}

/* sign bit in bit 0 (varint.zigzag_decode); |result| < 2^62 */
VISIT_INLINE int64_t unfold_sign(int64_t zz)
{
    int64_t mag = zz >> 1;
    return (zz & 1) ? -mag : mag;
}

#define VISIT_READ(var)                            \
    do {                                           \
        int rc_ = read_varint(&p, end, &(var));    \
        if (rc_)                                   \
            return rc_;                            \
    } while (0)

/* the weight cursor of a block: its position, the running prefix sum and the
 * first fault it met (0: none; a faulted cursor reads nothing more) */
typedef struct {
    const uint8_t *at;
    uint64_t sum;
    int rc;
} weights_t;

/* the next neighbour's weight: `unit` for an unweighted row */
VISIT_INLINE int64_t next_weight(weights_t *c, const uint8_t *end, int weighted, int64_t unit)
{
    if (!weighted)
        return unit;
    int64_t gap;
    if (c->rc || (c->rc = read_varint(&c->at, end, &gap)))
        return 0;
    c->sum += (uint64_t)unfold_sign(gap);
    return (int64_t)c->sum;
}

#define VISIT(v)                                                         \
    do {                                                                 \
        int64_t w_ = next_weight(&wc, end, weighted, unit);              \
        int stop_ = sink(ctx, (v), w_);                                  \
        if (stop_)                                                       \
            return stop_;                                                \
    } while (0)

/* One non-chunked block of `deg` > 0 neighbours of vertex u in [p, end):
 * [interval count, pairs], residuals, [weights]. */
VISIT_INLINE int visit_block(const uint8_t *p, const uint8_t *end, int64_t u, int64_t n,
                             int64_t deg, int intervals, int weighted, int64_t unit,
                             int64_t *pairs, int64_t pairs_cap, visit_fn sink, void *ctx)
{
    int64_t num_iv = 0, covered = 0, v;

    if (intervals) {
        VISIT_READ(num_iv);
        if (num_iv > deg / MIN_INTERVAL_LEN || 2 * num_iv > pairs_cap)
            return ERR_INTERVALS;
        int64_t prev_end = 0;
        for (int64_t j = 0; j < num_iv; j++) {
            int64_t left, len = 0;
            VISIT_READ(v);
            if (j == 0) {
                left = u + unfold_sign(v);
                if (left < 0)
                    return ERR_RANGE;
            } else {
                if (v >= n)
                    return ERR_RANGE;
                left = prev_end + v;
            }
            VISIT_READ(len);
            if (len > deg - covered - MIN_INTERVAL_LEN)
                return ERR_INTERVALS;
            len += MIN_INTERVAL_LEN;
            if (left > n - len)
                return ERR_RANGE;
            covered += len;
            prev_end = left + len;
            pairs[2 * j] = left;
            pairs[2 * j + 1] = len;
        }
    }

    weights_t wc = {end, 0, 0};
    if (weighted) {
        wc.at = p;
        for (int64_t r = 0; r < deg - covered && !wc.rc; r++)
            wc.rc = read_varint(&wc.at, end, &v);
    }

    /* residuals arrive ascending; before each, visit the intervals below it */
    int64_t next_iv = 0, prev = 0;
    for (int64_t r = 0; r < deg - covered; r++) {
        VISIT_READ(v);
        if (r == 0) {
            v = u + unfold_sign(v);
            if (v < 0 || v >= n)
                return ERR_RANGE;
        } else {
            if (v >= n - prev - 1)
                return ERR_RANGE;
            v += prev + 1;
        }
        while (next_iv < num_iv && pairs[2 * next_iv] <= v) {
            int64_t left = pairs[2 * next_iv], len = pairs[2 * next_iv + 1];
            if (v < left + len)
                return ERR_OVERLAP;
            for (int64_t t = 0; t < len; t++)
                VISIT(left + t);
            next_iv++;
        }
        VISIT(v);
        prev = v;
    }
    for (; next_iv < num_iv; next_iv++) {
        int64_t left = pairs[2 * next_iv], len = pairs[2 * next_iv + 1];
        for (int64_t t = 0; t < len; t++)
            VISIT(left + t);
    }

    if (weighted) {
        if (wc.rc)
            return wc.rc;
        p = wc.at;
    }
    return p == end ? 0 : ERR_COUNT;
}

/* Vertex u's `deg` neighbours from its bytes [p, end), header first, to the
 * sink in ascending order (by chunk above hub_threshold: per chunk of
 * chunk_length values, the last one shorter, its VarInt byte length, checked
 * against what is left of [p, end), then its block).  The caller checks the
 * vertex id, the degree and the byte range first; this checks the header,
 * chunk lengths, counts and neighbour ids.  Returns 0, a negative ERR_* or
 * the sink's stop value. */
VISIT_INLINE int visit_neighborhood(const uint8_t *p, const uint8_t *end, int64_t u, int64_t n,
                                    int64_t deg, int intervals, int weighted, int64_t unit,
                                    int64_t hub_threshold, int64_t chunk_length,
                                    int64_t *pairs, int64_t pairs_cap, visit_fn sink, void *ctx)
{
    int64_t header; /* first edge id: deg came from it */
    VISIT_READ(header);
    int hub = deg > hub_threshold;
    if (hub && chunk_length < 1)
        return ERR_METADATA;
    /* one block [p, end) of deg values, or a hub's chunks: one visit_block
     * site, so each reader compiles one copy of it */
    for (int64_t at = 0, count = deg; at < deg; at += count) {
        const uint8_t *stop = end;
        if (hub) {
            int64_t bytes = 0;
            VISIT_READ(bytes);
            if (bytes > end - p)
                return ERR_CHUNK;
            stop = p + bytes;
            count = deg - at < chunk_length ? deg - at : chunk_length;
        }
        int rc = visit_block(p, stop, u, n, count, intervals, weighted, unit, pairs, pairs_cap,
                             sink, ctx);
        if (rc)
            return rc;
        p = stop;
    }
    return p == end ? 0 : ERR_COUNT;
}

/* Vertex u's neighbourhood from the stream z, its degree deg checked against
 * [0, z->cap] and its byte range against the data first (ERR_METADATA). */
VISIT_INLINE int visit_stream_row(const stream_t *z, int64_t n, int64_t u, int64_t deg,
                                  int weighted, int64_t unit, visit_fn sink, void *ctx)
{
    if (u < 0 || u >= n || deg < 0 || deg > z->cap)
        return ERR_METADATA;
    int64_t lo = z->offsets[u], hi = z->offsets[u + 1];
    if (lo < 0 || lo > hi || hi > z->data_len)
        return ERR_METADATA;
    return visit_neighborhood(z->data + lo, z->data + hi, u, n, deg, (int)z->intervals,
                              weighted, unit, z->hub_threshold, z->chunk_length,
                              z->pairs, z->pairs_cap, sink, ctx);
}

/* Ask the cache for what visit_stream_row() reads first of vertex u, after
 * the checks it makes before it reads them: its offsets, and once those are
 * in, the first line of its bytes.  A row either would refuse is not
 * touched, so the visit still reports it; a prefetch changes no result. */
VISIT_INLINE void prefetch_stream_offsets(const stream_t *z, int64_t n, int64_t u)
{
    if (u >= 0 && u < n)
        __builtin_prefetch(&z->offsets[u]);
}

VISIT_INLINE void prefetch_stream_bytes(const stream_t *z, int64_t n, int64_t u, int64_t deg)
{
    if (u < 0 || u >= n || deg < 0 || deg > z->cap)
        return;
    int64_t lo = z->offsets[u], hi = z->offsets[u + 1];
    if (lo < 0 || lo >= hi || hi > z->data_len)
        return;
    __builtin_prefetch(z->data + lo);
}

/* the store sink: the sorted row into nbrs[] and, if wgts, wgts[] */
typedef struct {
    int64_t *nbrs, *wgts, out;
} row_t;

static inline int store(void *ctx, int64_t v, int64_t w)
{
    row_t *r = ctx;
    if (r->wgts)
        r->wgts[r->out] = w;
    r->nbrs[r->out++] = v;
    return 0;
}

#undef VISIT
#undef VISIT_READ
#undef VISIT_INLINE

#endif
