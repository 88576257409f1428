/* The counter stream, the reducer of the sample scenarios and the
 * micro-step window of the guided ensemble; see kernels.py.
 *
 * Every random variate of the package is a pure function of (seed,
 * domain, step, pid, slot): counter_keys folds (seed, domain, step, slot)
 * into one key per step and slot with the splitmix64 finalizer mix, and
 * uniform hashes a pid's key under it.  counter_uniform_fill draws the
 * uniforms of a pid array (kernels.counter_uniform); uniform_range and
 * lambda_range draw those of the pid range pid0 .. pid0 + n - 1 with no
 * pid array (a shard of kernels.uniform_range and kernels.lambda_range),
 * lambda_range signing its scales with draw_lambda as ensemble_window
 * signs its own.  The hash is integer arithmetic, and its top 53 bits
 * convert to a double exactly, so a shard of a range draws the bits of
 * the whole.
 *
 * sample_sum and sample_squares reduce one subtree of numpy's pairwise
 * tree of a sample, to numpy's bits: sample_sum its sum in numpy's
 * pairwise order, with its own histogram, threshold and sign counts and
 * maximum, and sample_squares the sum of its squared deviations from the
 * mean, for the std only.  kernels.sample_stats runs the subtrees as
 * shards and adds their sums in the tree's order; see there.  The action
 * deviation's log1p is left to numpy: its SIMD log1p and libm's differ in
 * the last bit on some inputs, so a C log1p would change the
 * deviations.
 *
 * Every floating-point value of the window is computed with the IEEE
 * operations, in the order, that the numpy transcription in
 * tests/test_kernels.py uses, so the result is bitwise the same when
 * built without contraction (-ffp-contract=off) or value-changing math
 * flags: no fused multiply-add, no reciprocal in place of a division, no
 * reassociation.
 *
 * The window's shard holds particles pid0 .. pid0 + m - 1: qs, lams,
 * logws and frozen point at their entries and are advanced in place.
 * keys holds the (slot 0, slot 1) lambda keys of each of the n_sub steps.
 * The particles run in blocks of BLOCK, each block through every step
 * before the next: a block's state stays in L1.
 *
 * The particle loop branches on nothing but the source kind, which is
 * the same for every particle, so gcc vectorizes it: every particle is
 * computed, and selects keep the entries of a frozen one, as the numpy
 * window computes them and discards the result.  An active particle
 * whose cell (q - q_min) / dq is not finite keeps its q, logw and frozen
 * flag too, and fails the step: its table index is undefined, so its
 * lookup reads a clamped cell and is discarded.
 *
 * The window returns n_sub, or the first step at which an active
 * particle's cell is not finite; the step stops there, and the arrays are
 * then partly advanced.
 */
#include <math.h>
#include <stdint.h>

#define BLOCK 512

/* lambda-source kinds, as kernels.SRC_* */
enum { SRC_BINARY, SRC_SPHERE, SRC_SMEARED };

/* distinct odd multipliers that spread the key components over 64 bits */
#define K_SEED 0x9E3779B97F4A7C15ULL
#define K_DOMAIN 0xD1342543DE82EF95ULL
#define K_STEP 0xDABA0B6EB09322E3ULL
#define K_PID 0xC2B2AE3D27D4EB4FULL
#define K_SLOT 0x165667B19E3779F9ULL

/* 0.5 - 2^-54: the uniforms are multiples of 2^-53, so none equals it,
 * and the sign of the difference, which rounding cannot flip, tells
 * u < 0.5 from u >= 0.5 */
#define HALF_DOWN 0x1.fffffffffffffp-2

/* On x86-64, gcc (12 on, which takes an architecture level as a clone)
 * compiles each CLONED function twice: for x86-64-v4, whose AVX-512
 * vectors hold 8 doubles and multiply and convert int64, and for the
 * baseline every x86-64 CPU runs.  The library picks the clones when it
 * is loaded, from the CPU's features.  Both clones do the same integer
 * and IEEE operations, so they give the same bits.  The draws and the
 * window are cloned; the reducer is not: with its leaves of at most 128
 * values cloned, every statistic of 1e7 values took 108 ms against 90 ms
 * for the baseline body (best of 15). */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "default")))
#endif
#ifndef CLONED
#define CLONED
#endif

/* the splitmix64 finalizer */
static inline uint64_t mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* u in [0, 1) of one key: the top 53 bits of its hash times 2^-53; the
 * 53 bits fit an int64_t, whose conversion is exact and vectorizes */
static inline double uniform(uint64_t x)
{
    return (double)(int64_t)(mix(x) >> 11) * 0x1p-53;
}

/* keys[k * n_slots + s] = the key of (seed, domain, step0 + k) with the
 * slot slot0 + s folded in; xor-ing a pid's key pid * K_PID into it
 * gives the key of all five components */
void counter_keys(uint64_t seed, uint64_t domain, uint64_t step0,
                  long n_steps, uint64_t slot0, long n_slots, uint64_t *keys)
{
    const uint64_t b = mix(seed * K_SEED ^ domain * K_DOMAIN);
    for (long k = 0; k < n_steps; k++) {
        const uint64_t base = mix(b ^ (step0 + k) * K_STEP);
        for (long s = 0; s < n_slots; s++)
            keys[k * n_slots + s] = base ^ (slot0 + s) * K_SLOT;
    }
}

/* out[i] = the uniform of pids[i] under a key of counter_keys */
CLONED void counter_uniform_fill(uint64_t key,
                                 const uint64_t *restrict pids, long n,
                                 double *restrict out)
{
    for (long i = 0; i < n; i++)
        out[i] = uniform(pids[i] * K_PID ^ key);
}

/* out[i] = the uniform of pid pid0 + i under a key of counter_keys */
CLONED void uniform_range(uint64_t key, long pid0, long n, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = uniform((uint64_t)(pid0 + i) * K_PID ^ key);
}

/* The signed action scale of a lambda source drawn for a pid's key
 * pid_key under a step's slot keys key0 and key1.  binary: +mag0 where
 * u1 < 0.5, else -mag0.  sphere: the z-coordinate 2 u1 - 1 of a uniform
 * point on the sphere picks the hemisphere, +mag0 where z >= 0, which is
 * exactly where u1 >= 0.5.  smeared: the magnitude
 * mag0 + jitter (2 u2 - 1), signed as for binary; u2, the uniform of
 * slot 1, is drawn for this kind only. */
static inline double draw_lambda(long kind, uint64_t pid_key, uint64_t key0,
                                 uint64_t key1, double mag0, double jitter)
{
    const double u1 = uniform(pid_key ^ key0);
    const double u2 = kind == SRC_SMEARED ? uniform(pid_key ^ key1) : 0.0;
    const double side = kind == SRC_SPHERE ? u1 - HALF_DOWN : HALF_DOWN - u1;
    const double mag = kind == SRC_SMEARED ? (u2 * 2.0 - 1.0) * jitter + mag0
                                           : mag0;
    return copysign(mag, side);
}

/* out[i] = the scale of pid pid0 + i under a step's slot keys key0 and
 * key1 */
CLONED void lambda_range(long kind, uint64_t key0, uint64_t key1, long pid0,
                         long n, double mag0, double jitter, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = draw_lambda(kind, (uint64_t)(pid0 + i) * K_PID, key0, key1,
                             mag0, jitter);
}

/* numpy's pairwise summation, the order of np.add.reduce over a
 * contiguous float64 array (numpy 2.4; Higham, SIAM J. Sci. Comput. 14,
 * 1993): n values above PW_BLOCK are split at n / 2 rounded down to a
 * multiple of 8 and the halves' sums added; a leaf of 8 to PW_BLOCK
 * values is summed in 8 interleaved running sums, added as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then its last
 * n % 8 values in turn; a leaf of under 8 values is a running sum.  The
 * reduction then adds the sum to its identity 0.0, which turns a -0.0
 * sum to +0.0; kernels.sample_stats does that once the subtrees' sums
 * are added. */
#define PW_BLOCK 128

/* A pass over a subtree: the values y are x, or |x| where absval is
 * set.  The first pass (sample_sum) sums y and tallies counts and peak;
 * the second (sample_squares) sums (y - mean)^2. */
struct reduction {
    long absval, second;
    double mean;
    const double *edges, *over;
    long bins, n_over;
    double center, sign;
    int64_t *counts;
    double peak;
};

/* the histogram, threshold, sign and peak tallies of n <= PW_BLOCK values
 * x and their values y.  A value's bin k, edges[k] <= v < edges[k + 1]
 * (or v <= edges[bins] in the last bin), is guessed from its offset in a
 * loop that vectorizes, and the guess is checked against the edges; a
 * value that fails the check, one on an inner edge, off the edges or NaN,
 * is placed by a search or in no bin.  The counts are integers, so
 * their order of addition does not matter. */
static void tally(const double *x, const double *y, long n,
                  struct reduction *r)
{
    const long bins = r->bins, n_over = r->n_over;
    const double *edges = r->edges;
    int64_t *counts = r->counts;
    if (bins) {
        const double lo = edges[0], hi = edges[bins];
        const double scale = (double)bins / (hi - lo);
        const double top = (double)(bins - 1);
        int guess[PW_BLOCK];
        for (long i = 0; i < n; i++) {
            double g = (y[i] - lo) * scale;
            g = g > 0.0 ? g : 0.0;
            guess[i] = (int)(g < top ? g : top);
        }
        for (long i = 0; i < n; i++) {
            const double v = y[i];
            long k = guess[i];
            const int last = k == bins - 1;
            const int in_k = (v >= edges[k])
                             & ((v < edges[k + 1]) | (last & (v == hi)));
            if (!in_k) {
                if (!(v >= lo && v <= hi))
                    continue;
                while (k > 0 && v < edges[k])
                    k--;
                while (k < bins - 1 && v >= edges[k + 1])
                    k++;
            }
            counts[k]++;
        }
    }
    /* a comparison's 0 or 1 taken through a double vectorizes at the
     * baseline, where a bool added to an integer does not */
    for (long t = 0; t < n_over; t++) {
        const double over = r->over[t];
        long c = 0;
        for (long i = 0; i < n; i++) {
            const double above = fabs(x[i]) > over ? 1.0 : 0.0;
            c += (long)above;
        }
        counts[bins + t] += c;
    }
    const double sign = r->sign, center = r->center;
    if (sign != 0.0) {
        long c = 0;
        for (long i = 0; i < n; i++) {
            const double against = sign * x[i] < 0.0 ? 1.0 : 0.0;
            c += (long)against;
        }
        counts[bins + n_over] += c;
    }
    if (!isnan(center)) {
        double peak = r->peak;
        for (long i = 0; i < n; i++) {
            /* a NaN distance sticks, as np.max propagates it */
            const double d = fabs(fabs(x[i]) - center);
            peak = d > peak || isnan(d) ? d : peak;
        }
        r->peak = peak;
    }
}

/* the sum, in numpy's leaf order, of the terms of n <= PW_BLOCK values */
static double leaf(const double *x, long n, struct reduction *r)
{
    double y[PW_BLOCK];
    if (r->second) {
        for (long i = 0; i < n; i++) {
            const double d = (r->absval ? fabs(x[i]) : x[i]) - r->mean;
            y[i] = d * d;
        }
    } else {
        for (long i = 0; i < n; i++)
            y[i] = r->absval ? fabs(x[i]) : x[i];
        tally(x, y, n, r);
    }
    if (n < 8) {
        double s = 0.0;
        for (long i = 0; i < n; i++)
            s += y[i];
        return s;
    }
    double a[8];
    for (int j = 0; j < 8; j++)
        a[j] = y[j];
    long i = 8;
    for (; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++)
            a[j] += y[i + j];
    double s = ((a[0] + a[1]) + (a[2] + a[3]))
               + ((a[4] + a[5]) + (a[6] + a[7]));
    for (; i < n; i++)
        s += y[i];
    return s;
}

static double pairwise(const double *x, long n, struct reduction *r)
{
    if (n <= PW_BLOCK)
        return leaf(x, n, r);
    const long half = n / 2 - n / 2 % 8;
    const double left = pairwise(x, half, r);
    return left + pairwise(x + half, n - half, r);
}

/* The passes of sample_stats over one subtree x[0 .. n - 1], n >= 1, of
 * numpy's pairwise tree, where y is x, or |x| where absval is set; each
 * returns the subtree's pairwise sum, with no identity added.
 * sample_sum sums y, and adds the subtree's tallies to those of the
 * shard's earlier subtrees (zeros and -inf before the first):
 *   counts[k], k < bins = the values y in bin k of edges[0 .. bins],
 *     as np.histogram counts them (bins may be 0, with no edges read);
 *   counts[bins + t], t < n_over = the magnitudes |x| above over[t];
 *   counts[bins + n_over] = the values with sign * x < 0, counted unless
 *     sign is 0;
 *   *peak = the largest ||x| - center|, NaN if any is NaN (np.max), found
 *     unless center is NaN.
 * sample_squares sums (y - mean)^2. */
double sample_sum(const double *x, long n, long absval, const double *edges,
                  long bins, const double *over, long n_over, double center,
                  double sign, int64_t *counts, double *peak)
{
    struct reduction r = {absval, 0, 0.0, edges, over, bins, n_over, center,
                          sign, counts, *peak};
    const double sum = pairwise(x, n, &r);
    *peak = r.peak;
    return sum;
}

double sample_squares(const double *x, long n, long absval, double mean)
{
    struct reduction r = {.absval = absval, .second = 1, .mean = mean};
    return pairwise(x, n, &r);
}

/* table[j] + w * (table[j + 1] - table[j]), as numpy forms it */
static inline double lerp(const double *t, long j, double w)
{
    const double c = t[j];
    return (t[j + 1] - c) * w + c;
}

CLONED long ensemble_window(double *restrict qs, double *restrict lams,
                     double *restrict logws, unsigned char *restrict frozen,
                     long m, long pid0, const double *vb, const double *osm,
                     const double *th, long n, double q_min, double dq,
                     double dt, const uint64_t *keys, long n_sub,
                     long src_kind, double mag0, double jitter, double lo,
                     double hi)
{
    const double top = (double)(n - 2);
    long bad = n_sub;
    for (long b0 = 0; b0 < m; b0 += BLOCK) {
        const long b1 = m - b0 < BLOCK ? m : b0 + BLOCK;
        for (long k = 0; k < bad; k++) {
            const uint64_t key0 = keys[2 * k], key1 = keys[2 * k + 1];
            int fail = 0;
            for (long i = b0; i < b1; i++) {
                const int keep = frozen[i] != 0;
                const uint64_t pid_key = (uint64_t)(pid0 + i) * K_PID;

                const double lam = draw_lambda(src_kind, pid_key, key0, key1,
                                               mag0, jitter);
                lams[i] = keep ? lams[i] : lam;

                /* clamped linear interpolation.  Clamping the cell to
                 * [0, n - 2] first (a NaN to 0) makes truncation equal
                 * floor; np.clip keeps a value equal to a bound, so a
                 * -0.0 cell floors to -0.0, which copysign restores */
                const double q = qs[i];
                const double cell = (q - q_min) / dq;
                const int undefined = !isfinite(cell);
                const int hold = keep | undefined;
                fail |= undefined & !keep;
                double c = cell >= 0.0 ? cell : 0.0;
                c = c <= top ? c : top;
                const long j = (long)c;
                const double a = copysign((double)j, c);
                double w = cell - a;
                w = w < 0.0 ? 0.0 : w;
                w = w > 1.0 ? 1.0 : w;

                /* move, then freeze a leaver at the bound it crossed */
                double qn = (lerp(vb, j, w) + lerp(osm, j, w) * lam) * dt
                            + q;
                const int out = qn < lo || qn > hi;
                double qc = qn >= lo ? qn : lo;
                qc = qc <= hi ? qc : hi;
                qn = out ? qc : qn;
                const double lw = logws[i] - lerp(th, j, w) * dt;
                logws[i] = hold ? logws[i] : lw;
                qs[i] = hold ? q : qn;
                frozen[i] = hold ? frozen[i] : (unsigned char)out;
            }
            if (fail)
                bad = k;
        }
    }
    return bad;
}
