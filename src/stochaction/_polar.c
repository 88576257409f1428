/* RK4 window of the polar-pair equations; see kernels.py.
 *
 * Every value is computed with the IEEE operations, in the order, that
 * the numpy transcription in tests/test_kernels.py uses, so the result is
 * bitwise the same when built without contraction (-ffp-contract=off) or
 * value-changing math flags: no fused multiply-add, no reciprocal in
 * place of a division, no reassociation.
 *
 * gcc turns the sin and cos of one argument into one call of glibc's
 * sincos, which runs the same code as its sin and cos and gives the same
 * bits (checked on 1.8 million arguments from 1e-8 to 1e300).
 *
 * y holds one branch as two planes of n cells, the density omega then the
 * phase S, and is advanced in place.  Returns 0, or -1 if the scratch could
 * not be allocated (y is then untouched).
 *
 * A stage folds its rates into the RK4 sums as it makes them (EMIT):
 * there is no array of rates and no pass that combines them, and stage 4
 * writes y itself.  The loop that makes them (STAGE) is written once and
 * expanded in the window's own body for each of the four stages, each a
 * constant in its copy, as _ensemble.c expands its particle loop for each
 * source kind.  The window divides dg by 2 dq once, into the table dgq,
 * so that an interior cell takes four divisions a stage for every mass:
 * the phase gradient, the flux difference, d2R/dq2 and the quotient by R.
 */
#include <math.h>
#include <stdlib.h>

/* density floor for the amplitude-ratio term only: advection of a steep
 * tail can undershoot to machine-negligible negatives, and the floor, far
 * below any physical scale, keeps sqrt and the division by R finite */
#define OM_FLOOR 1e-300

/* On x86-64, gcc 12 on compiles the window twice, for x86-64-v4 and for
 * the baseline, as _ensemble.c compiles its CLONED functions; the loader
 * picks the clone by the CPU.  A vector lane does the scalar operations,
 * so both clones give the same bits.  gcc clones no static callee of a
 * cloned function, so the stage loop is a macro. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "default")))
#endif
#ifndef CLONED
#define CLONED
#endif

/* No two of the planes, tables and scratch overlap, and a loop of a stage
 * reads no entry that another of its iterations writes: IVDEP tells gcc
 * so, which lets it vectorize the loops.  They read and write some ten
 * arrays of one malloc and the caller's, too many for gcc to check at
 * run time; restrict on the function's locals told it nothing. */
#if defined(__GNUC__) && !defined(__clang__)
#define IVDEP _Pragma("GCC ivdep")
#else
#define IVDEP
#endif

/* Stage NO's rate K of the state entry X, folded into the RK4 sums as the
 * four combination passes of a plain RK4 would fold it: y += dt/6
 * (((2 k2 + k1) + 2 k3) + k4), the sum kept in acc, and the input of
 * stage NO + 1, y + k dt/2 or y + k dt, in next */
#define EMIT(NO, X, K)                                                      \
    do {                                                                    \
        const long x_ = (X);                                                \
        const double k_ = (K);                                              \
        if ((NO) == 1) {                                                    \
            acc[x_] = k_;                                                   \
            next[x_] = k_ * half + y[x_];                                   \
        } else if ((NO) == 2) {                                             \
            acc[x_] = k_ * 2.0 + acc[x_];                                   \
            next[x_] = k_ * half + y[x_];                                   \
        } else if ((NO) == 3) {                                             \
            acc[x_] = acc[x_] + k_ * 2.0;                                   \
            next[x_] = k_ * dt + y[x_];                                     \
        } else {                                                            \
            y[x_] = y[x_] + (acc[x_] + k_) * sixth;                         \
        }                                                                   \
    } while (0)

/* The rates of RK4 stage NO (1 to 4), from the phase gradient dp, flux
 * and amplitude R, each emitted as it is made: the interior cells, then
 * the walls. */
#define STAGE(NO)                                                           \
    do {                                                                    \
        IVDEP for (long i = 1; i < n - 1; i++) {                            \
            const double d2R = ((R[i + 1] - R[i] * 2.0) + R[i - 1]) / h2;   \
            const double qp =                                               \
                ((g[i] * d2R + dgq[i] * (R[i + 1] - R[i - 1])) * nl2h)      \
                / R[i];                                                     \
            EMIT(NO, i, -((flux[i + 1] - flux[i - 1]) / dq2));              \
            EMIT(NO, n + i, -((((0.5 * g[i]) * dp[i]) * dp[i] + V[i])       \
                              + qp));                                       \
        }                                                                   \
                                                                            \
        /* the exact polar wall rows; sin and cos of an infinite phase      \
         * step are NaN */                                                  \
        double th = (S[1] - S[0]) / lam;                                    \
        EMIT(NO, 0, domL * R[0] * R[1] * sin(th));                          \
        EMIT(NO, n, dSL * ((R[1] / R[0]) * cos(th) - 2.0) - V[0]);          \
        th = (S[n - 1] - S[n - 2]) / lam;                                   \
        EMIT(NO, n - 1, domR * R[n - 2] * R[n - 1] * sin(th));              \
        EMIT(NO, 2 * n - 1,                                                 \
             dSR * ((R[n - 2] / R[n - 1]) * cos(th) - 2.0) - V[n - 1]);     \
    } while (0)

CLONED int polar_rk4_window(double *y, long n, const double *g,
                            const double *dg, const double *V, double dq,
                            double dt, long n_steps, double lam)
{
    const long size = 2 * n;
    double *work = malloc(sizeof(double) * (size_t)(3 * size + 4 * n));
    if (work == NULL)
        return -1;
    double *acc = work, *sa = work + size, *sb = work + 2 * size;
    double *dp = work + 3 * size, *flux = dp + n, *R = dp + 2 * n;
    double *dgq = dp + 3 * n;

    const double dq2 = 2.0 * dq, h2 = dq * dq, lam2half = 0.5 * lam * lam;
    const double nl2h = -lam2half;
    const double domL = -(g[0] * lam / h2), domR = g[n - 1] * lam / h2;
    const double dSL = g[0] * lam2half / h2, dSR = g[n - 1] * lam2half / h2;
    const double half = 0.5 * dt, sixth = dt / 6.0;

    /* dg / 2 dq, the weight of R[i + 1] - R[i - 1] in cell i's quantum
     * potential; as 2 dq > 0, a signed zero of dg stays that zero */
    for (long i = 0; i < n; i++)
        dgq[i] = dg[i] / dq2;

    for (long step = 0; step < n_steps; step++)
        for (int no = 1; no <= 4; no++) {
            /* the stage's input: y, then the ping-pong buffers sa, sb, sa */
            const double *in = no == 1 ? y : no == 3 ? sb : sa;
            double *next = no == 2 ? sb : sa;
            const double *om = in, *S = in + n;

            /* dS/dq: central in the interior, one-sided (difference form
             * of (-3 f0 + 4 f1 - f2) / 2h and its mirror) at the edges */
            dp[0] = (-3.0 * (S[0] - S[1]) + (S[1] - S[2])) / dq2;
            IVDEP for (long i = 1; i < n - 1; i++)
                dp[i] = (S[i + 1] - S[i - 1]) / dq2;
            dp[n - 1] = (3.0 * (S[n - 1] - S[n - 2])
                         - (S[n - 2] - S[n - 3])) / dq2;
            IVDEP for (long i = 0; i < n; i++) {
                flux[i] = g[i] * dp[i] * om[i];
                /* a NaN density stays NaN, as under np.maximum */
                R[i] = sqrt(om[i] < OM_FLOOR ? OM_FLOOR : om[i]);
            }
            switch (no) {
            case 1: STAGE(1); break;
            case 2: STAGE(2); break;
            case 3: STAGE(3); break;
            default: STAGE(4);
            }
        }
    free(work);
    return 0;
}
