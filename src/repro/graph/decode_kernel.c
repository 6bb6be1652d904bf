/* The native codec of repro.graph.compressed: the chunk decode and the
 * packet encoder, one file, one MIN_INTERVAL_LEN, one error enum.
 *
 * Two exported functions, no state, no Python objects: ctypes calls them with
 * the GIL released.  The one codec of every row, chunk-encoded hubs
 * included: repro_decode_chunk fills the same (owner, neighbors, weights)
 * arrays as the numpy reference decoder (tests/oracles.py); the stream layout
 * is described in compressed.py.  Its per-vertex decoder,
 * decode_neighborhood, is also behind repro_decode_neighborhood, the entry of
 * the compressed LP and contraction chunks (core/kernels/lp_kernel.c) and of
 * the FM pass (core/refinement/fm_kernel.c), which read each neighborhood as
 * they decode it.  repro_encode_run writes the bytes, per-vertex byte starts
 * and stats deltas of the numpy and per-vertex reference encoders
 * (tests/oracles.py) for one run of vertices.
 *
 * Reader's memory-safety contract (tests/test_bulk_decode.py holds it to this):
 *   - vertex u is read only inside data[offsets[u], offsets[u+1]), and only
 *     after 0 <= u < n and 0 <= offsets[u] <= offsets[u+1] <= data_len held;
 *   - vertex u is written only inside its own degs[i] output slots, and only
 *     after degs[i] >= 0 and the running slot count stayed <= capacity
 *     (the LP chunk hands over one vertex's scratch, `room` entries long);
 *   - `pairs` is written only below pairs_cap;
 *   - every structural value is range-checked before it is added to another,
 *     so no signed overflow; weights are prefix sums of arbitrary gaps and
 *     wrap modulo 2^64 exactly like numpy's cumsum;
 *   - a stream that breaks a rule returns a negative code (and the chunk
 *     index of the vertex in *bad) instead of trapping.  Outputs are then
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
#include <stdint.h>
#include <stddef.h>

#define MIN_INTERVAL_LEN 3

enum {
    ERR_TRUNCATED = -1, /* varint runs past the end of the neighborhood */
    ERR_TOO_LONG = -2,  /* varint does not fit 63 bits */
    ERR_INTERVALS = -3, /* interval count or lengths exceed the degree */
    ERR_OVERLAP = -4,   /* a residual falls inside an interval */
    ERR_COUNT = -5,     /* neighborhood holds more or fewer values than its degree asks for */
    ERR_RANGE = -6,     /* neighbor id outside [0, n) (encoder: [0, 2^62)) */
    ERR_METADATA = -7,  /* vertex id, byte range, degree or buffer size */
    ERR_DESCENT = -8,   /* encoder: a row's neighbors descend (the caller sorts, calls again) */
    ERR_DUPLICATE = -9, /* encoder: a row lists the same neighbor twice */
    ERR_WEIGHT = -10,   /* encoder: an edge-weight gap whose sign fold does not fit 63 bits */
    ERR_CAPACITY = -11, /* encoder: the output buffer is shorter than the run's bytes */
    ERR_CHUNK = -12     /* a chunk's byte length runs past its neighborhood */
};

/* Read one VarInt from [*pp, end).  Nine bytes carry 63 bits; a tenth may
 * only be the terminator 0x00, which is what the oracle accepts too. */
static inline int read_varint(const uint8_t **pp, const uint8_t *end, int64_t *out)
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

/* sign bit in bit 0 (varint.zigzag_decode); |result| < 2^62 */
static inline int64_t unfold_sign(int64_t zz)
{
    int64_t mag = zz >> 1;
    return (zz & 1) ? -mag : mag;
}

#define READ(var)                                  \
    do {                                           \
        int rc_ = read_varint(&p, end, &(var));    \
        if (rc_)                                   \
            return rc_;                            \
    } while (0)

/* Decode one non-chunked neighborhood of `deg` > 0 neighbors of vertex u
 * from [p, end) into nbrs[0..deg) (sorted) and, if wgts, wgts[0..deg). */
static int decode_vertex(const uint8_t *p, const uint8_t *end, int64_t u,
                         int64_t n, int64_t deg, int intervals,
                         int64_t *nbrs, int64_t *wgts,
                         int64_t *pairs, int64_t pairs_cap)
{
    int64_t num_iv = 0, covered = 0, v;

    if (intervals) {
        READ(num_iv);
        if (num_iv > deg / MIN_INTERVAL_LEN || 2 * num_iv > pairs_cap)
            return ERR_INTERVALS;
        int64_t prev_end = 0;
        for (int64_t j = 0; j < num_iv; j++) {
            int64_t left, len;
            READ(v);
            if (j == 0) {
                left = u + unfold_sign(v);
                if (left < 0)
                    return ERR_RANGE;
            } else {
                if (v >= n)
                    return ERR_RANGE;
                left = prev_end + v;
            }
            READ(len);
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

    /* residuals arrive ascending; before each, emit the intervals below it */
    int64_t out = 0, next_iv = 0, prev = 0;
    for (int64_t r = 0; r < deg - covered; r++) {
        READ(v);
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
                nbrs[out++] = left + t;
            next_iv++;
        }
        nbrs[out++] = v;
        prev = v;
    }
    for (; next_iv < num_iv; next_iv++) {
        int64_t left = pairs[2 * next_iv], len = pairs[2 * next_iv + 1];
        for (int64_t t = 0; t < len; t++)
            nbrs[out++] = left + t;
    }

    if (wgts) {
        uint64_t w = 0;
        for (int64_t i = 0; i < deg; i++) {
            READ(v);
            w += (uint64_t)unfold_sign(v);
            wgts[i] = (int64_t)w;
        }
    }
    return p == end ? 0 : ERR_COUNT;
}

/* A neighborhood above hub_threshold: per chunk of chunk_length values (the
 * last one shorter) its VarInt byte length, checked against what is left of
 * [p, end), then its block, decoded by decode_vertex into the chunk's slots. */
static int decode_chunks(const uint8_t *p, const uint8_t *end, int64_t u, int64_t n,
                         int64_t deg, int intervals, int64_t chunk_length, int64_t *nbrs,
                         int64_t *wgts, int64_t *pairs, int64_t pairs_cap)
{
    if (chunk_length < 1)
        return ERR_METADATA;
    for (int64_t at = 0, count; at < deg; at += count) {
        int64_t bytes;
        READ(bytes);
        if (bytes > end - p)
            return ERR_CHUNK;
        count = deg - at < chunk_length ? deg - at : chunk_length;
        int rc = decode_vertex(p, p + bytes, u, n, count, intervals, nbrs + at,
                               wgts ? wgts + at : NULL, pairs, pairs_cap);
        if (rc)
            return rc;
        p += bytes;
    }
    return p == end ? 0 : ERR_COUNT;
}

/* The library's one neighborhood decoder, from the header on: vertex u's
 * `deg` neighbors from its bytes [p, end) into nbrs[0..deg) (sorted, by chunk
 * above hub_threshold) and, if wgts, wgts[0..deg).  Both callers check the
 * vertex id, the degree against the room they hand over and the byte range
 * first; this checks the header, chunk lengths and (decode_vertex) counts and
 * neighbor ids. */
static inline int decode_neighborhood(const uint8_t *p, const uint8_t *end, int64_t u,
                                      int64_t n, int64_t deg, int intervals,
                                      int64_t hub_threshold, int64_t chunk_length,
                                      int64_t *nbrs, int64_t *wgts,
                                      int64_t *pairs, int64_t pairs_cap)
{
    int64_t header;
    int rc = read_varint(&p, end, &header); /* first edge id: deg came from it */
    if (rc)
        return rc;
    if (deg == 0)
        return p == end ? 0 : ERR_COUNT;
    if (deg > hub_threshold)
        return decode_chunks(p, end, u, n, deg, intervals, chunk_length, nbrs, wgts, pairs,
                             pairs_cap);
    return decode_vertex(p, end, u, n, deg, intervals, nbrs, wgts, pairs, pairs_cap);
}

/* Vertex u's neighborhood into nbrs / wgts, `room` entries each: the entry
 * of the compressed LP chunk (lp_kernel.c) and of the FM pass (fm_kernel.c),
 * which read each neighborhood from there.  Returns 0 or a negative ERR_*.
 * Hidden: internal to the library, not in _native.SIGNATURES. */
__attribute__((visibility("hidden"))) int repro_decode_neighborhood(
    const uint8_t *data, int64_t data_len, const int64_t *offsets, int64_t n, int64_t u,
    int64_t deg, int64_t room, int intervals, int64_t hub_threshold, int64_t chunk_length,
    int64_t *nbrs, int64_t *wgts, int64_t *pairs, int64_t pairs_cap)
{
    if (u < 0 || u >= n || deg < 0 || deg > room)
        return ERR_METADATA;
    int64_t lo = offsets[u], hi = offsets[u + 1];
    if (lo < 0 || lo > hi || hi > data_len)
        return ERR_METADATA;
    return decode_neighborhood(data + lo, data + hi, u, n, deg, intervals, hub_threshold,
                               chunk_length, nbrs, wgts, pairs, pairs_cap);
}

/* Decode the neighborhoods of chunk[0..count) back to back.  Returns 0, or a
 * negative ERR_* with *bad set to the chunk index it was found at.  The loop
 * keeps its own checks, in this order: with them after the owner fill, or
 * inside a call to repro_decode_neighborhood, it measured 8-15 % slower per
 * edge (gcc 12 -O3, permuted chunks of weblike(40 000, 14)). */
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
        int rc = decode_neighborhood(data + lo, data + hi, u, n, deg, intervals, hub_threshold,
                                     chunk_length, nbrs + out, wgts ? wgts + out : NULL, pairs,
                                     pairs_cap);
        if (rc)
            return rc;
        out += deg;
    }
    return out == capacity ? 0 : ERR_METADATA;
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
