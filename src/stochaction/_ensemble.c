/* The counter stream and the micro-step window of the guided ensemble;
 * see kernels.py.
 *
 * Every random variate of the package is a pure function of (seed,
 * domain, step, pid, slot): counter_keys folds (seed, domain, step, slot)
 * into one key per step and slot with the splitmix64 finalizer mix, and
 * uniform hashes a pid's key under it.  counter_uniform_fill and
 * source_lambda_fill are the bulk draws of kernels.counter_uniform and
 * kernels.source_lambda_into; ensemble_window hashes its own lambda draws
 * with the same uniform and source_lambda.  The hash is integer
 * arithmetic, and its top 53 bits convert to a double exactly.
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
void counter_uniform_fill(uint64_t key, const uint64_t *restrict pids,
                          long n, double *restrict out)
{
    for (long i = 0; i < n; i++)
        out[i] = uniform(pids[i] * K_PID ^ key);
}

/* The signed action scale of a lambda source from its uniforms.  binary:
 * +mag0 where u1 < 0.5, else -mag0.  sphere: the z-coordinate 2 u1 - 1
 * of a uniform point on the sphere picks the hemisphere, +mag0 where
 * z >= 0, which is exactly where u1 >= 0.5.  smeared: the magnitude
 * mag0 + jitter (2 u2 - 1), signed as for binary; u2 is read for this
 * kind only. */
static inline double source_lambda(long kind, double u1, double u2,
                                   double mag0, double jitter)
{
    const double side = kind == SRC_SPHERE ? u1 - HALF_DOWN : HALF_DOWN - u1;
    const double mag = kind == SRC_SMEARED ? (u2 * 2.0 - 1.0) * jitter + mag0
                                           : mag0;
    return copysign(mag, side);
}

/* out[i] = the scale of (u1[i], u2[i]); out may be u1 or u2 */
void source_lambda_fill(long kind, const double *u1, const double *u2,
                        long n, double mag0, double jitter, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = source_lambda(kind, u1[i], u2[i], mag0, jitter);
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

                const double u2 = smeared ? uniform(pid_key ^ key1) : 0.0;
                const double lam = source_lambda(src_kind,
                                                 uniform(pid_key ^ key0), u2,
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
