/* Micro-step window of the guided ensemble, one shard of it; see
 * kernels.py.
 *
 * Every value is computed with the IEEE operations, in the order, that
 * the numpy transcription in tests/test_kernels.py uses, so the result is
 * bitwise the same when built without contraction (-ffp-contract=off) or
 * value-changing math flags: no fused multiply-add, no reciprocal in
 * place of a division, no reassociation.  The counter hash is integer
 * arithmetic, exact in both; its 53 bits convert to a double exactly.
 *
 * The shard holds particles pid0 .. pid0 + m - 1: qs, lams, logws and
 * frozen point at their entries and are advanced in place.  keys holds
 * the (slot 0, slot 1) lambda keys of each of the n_sub steps.  The
 * particles run in blocks of BLOCK, each block through every step before
 * the next: a block's state stays in L1.
 *
 * The particle loop branches on nothing but the source kind, which is
 * the same for every particle, so gcc vectorizes it: every particle is
 * computed, and selects keep the entries of a frozen one, as the numpy
 * window computes them and discards the result.  An active particle
 * whose cell (q - q_min) / dq is not finite keeps its q, logw and frozen
 * flag too, and fails the step: its table index is undefined, so its
 * lookup reads a clamped cell and is discarded.
 *
 * Returns n_sub, or the first step at which an active particle's cell is
 * not finite; the step stops there, and the arrays are then partly
 * advanced.
 */
#include <math.h>
#include <stdint.h>

#define BLOCK 512

/* lambda-source kinds, as kernels.SRC_* */
enum { SRC_BINARY, SRC_SPHERE, SRC_SMEARED };

/* kernels._K_PID, the multiplier that spreads a pid over 64 bits */
#define K_PID 0xC2B2AE3D27D4EB4FULL

/* 0.5 - 2^-54, kernels._HALF_DOWN */
#define HALF_DOWN 0x1.fffffffffffffp-2

/* u in [0, 1) of one key: the splitmix64 finalizer of kernels._mix_into,
 * then the top 53 bits times 2^-53, as kernels._uniform_into; the 53 bits
 * fit an int64_t, whose conversion is exact and vectorizes */
static inline double uniform(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return (double)(int64_t)(x >> 11) * 0x1p-53;
}

/* table[j] + w * (table[j + 1] - table[j]), as numpy forms it */
static inline double lerp(const double *t, long j, double w)
{
    const double c = t[j];
    return (t[j + 1] - c) * w + c;
}

/* On x86-64, gcc (12 on, which takes an architecture level as a clone)
 * compiles ensemble_window twice: for x86-64-v4, whose AVX-512 vectors
 * hold 8 doubles and convert int64 to and from double, and for the
 * baseline every x86-64 CPU runs.  The library picks the clone when it is
 * loaded, from the CPU's features.  Both clones do the same IEEE
 * operations, so they give the same bits. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
__attribute__((target_clones("arch=x86-64-v4", "default")))
#endif
long ensemble_window(double *restrict qs, double *restrict lams,
                     double *restrict logws, unsigned char *restrict frozen,
                     long m, long pid0, const double *vb, const double *osm,
                     const double *th, long n, double q_min, double dq,
                     double dt, const uint64_t *keys, long n_sub,
                     long src_kind, double mag0, double jitter, double lo,
                     double hi)
{
    const double top = (double)(n - 2);
    /* the sign of the distance from one half picks +-mag, and rounding
     * cannot flip it (kernels.source_lambda_into); the sphere takes the
     * other sign, and u - h is exactly -(h - u) */
    const double flip = src_kind == SRC_SPHERE ? -1.0 : 1.0;
    const int smeared = src_kind == SRC_SMEARED;
    long bad = n_sub;
    for (long b0 = 0; b0 < m; b0 += BLOCK) {
        const long b1 = m - b0 < BLOCK ? m : b0 + BLOCK;
        for (long k = 0; k < bad; k++) {
            const uint64_t key0 = keys[2 * k], key1 = keys[2 * k + 1];
            int fail = 0;
            for (long i = b0; i < b1; i++) {
                const int keep = frozen[i] != 0;
                const uint64_t pid_key = (uint64_t)(pid0 + i) * K_PID;

                const double side = (HALF_DOWN - uniform(pid_key ^ key0))
                                    * flip;
                double mag = mag0;
                if (smeared)
                    mag = (uniform(pid_key ^ key1) * 2.0 - 1.0) * jitter
                          + mag0;
                const double lam = copysign(mag, side);
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
