/* Native chunk decode for repro.graph.compressed.CompressedGraph.
 *
 * One exported function, no state, no Python objects: ctypes calls it with
 * the GIL released.  It fills the same (owner, neighbors, weights) arrays the
 * numpy oracle `CompressedGraph._decode_chunk_simple` returns; the stream
 * layout is described in compressed.py.  Its per-vertex decoder,
 * decode_neighborhood, is also behind repro_decode_neighborhood, the entry of
 * the compressed LP chunk (core/kernels/lp_kernel.c), which rates each
 * neighborhood as it decodes it.
 *
 * Memory-safety contract (tests/test_bulk_decode.py holds it to this):
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
 * A vertex above hub_threshold (chunked encoding) gets its owner slots filled
 * and its neighbor/weight slots skipped: the caller splices those in.
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
    ERR_RANGE = -6,     /* neighbor id outside [0, n) */
    ERR_METADATA = -7   /* vertex id, byte range, degree or buffer size */
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

/* The library's one neighborhood decoder, from the header on: vertex u's
 * `deg` neighbors from its bytes [p, end) into nbrs[0..deg) (sorted) and, if
 * wgts, wgts[0..deg).  Both callers check the vertex id, the degree against
 * the room they hand over and the byte range first; this checks the header
 * and (decode_vertex) counts and neighbor ids. */
static inline int decode_neighborhood(const uint8_t *p, const uint8_t *end, int64_t u,
                                      int64_t n, int64_t deg, int intervals,
                                      int64_t *nbrs, int64_t *wgts,
                                      int64_t *pairs, int64_t pairs_cap)
{
    int64_t header;
    int rc = read_varint(&p, end, &header); /* first edge id: deg came from it */
    if (rc)
        return rc;
    if (deg == 0)
        return p == end ? 0 : ERR_COUNT;
    return decode_vertex(p, end, u, n, deg, intervals, nbrs, wgts, pairs, pairs_cap);
}

/* Vertex u's neighborhood into nbrs / wgts, `room` entries each: the entry
 * of the compressed LP chunk (lp_kernel.c), which rates each neighborhood
 * from there.  Returns 0 or a negative ERR_*.  Hidden: internal to the
 * library, not in _native.SIGNATURES. */
__attribute__((visibility("hidden"))) int repro_decode_neighborhood(
    const uint8_t *data, int64_t data_len, const int64_t *offsets, int64_t n, int64_t u,
    int64_t deg, int64_t room, int intervals, int64_t *nbrs, int64_t *wgts,
    int64_t *pairs, int64_t pairs_cap)
{
    if (u < 0 || u >= n || deg < 0 || deg > room)
        return ERR_METADATA;
    int64_t lo = offsets[u], hi = offsets[u + 1];
    if (lo < 0 || lo > hi || hi > data_len)
        return ERR_METADATA;
    return decode_neighborhood(data + lo, data + hi, u, n, deg, intervals, nbrs, wgts, pairs,
                               pairs_cap);
}

/* Decode the neighborhoods of chunk[0..count) back to back.  Returns 0, or a
 * negative ERR_* with *bad set to the chunk index it was found at.  The loop
 * keeps its own checks, in this order: with them after the owner fill, or
 * inside a call to repro_decode_neighborhood, it measured 8-15 % slower per
 * edge (gcc 12 -O3, permuted chunks of weblike(40 000, 14)). */
int64_t repro_decode_chunk(const uint8_t *data, int64_t data_len,
                           const int64_t *offsets, int64_t n,
                           const int64_t *chunk, const int64_t *degs,
                           int64_t count, int64_t hub_threshold,
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
        if (deg > hub_threshold) {
            out += deg;
            continue;
        }
        int rc = decode_neighborhood(data + lo, data + hi, u, n, deg, intervals, nbrs + out,
                                     wgts ? wgts + out : NULL, pairs, pairs_cap);
        if (rc)
            return rc;
        out += deg;
    }
    return out == capacity ? 0 : ERR_METADATA;
}
