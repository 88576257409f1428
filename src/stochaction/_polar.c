/* RK4 window of the batched polar-pair equations; see kernels.py.
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
 * y holds nb branches as two (nb, n) planes, densities omega then phases
 * S, and is advanced in place.  Returns 0, or -1 if the scratch could not
 * be allocated (y is then untouched).
 */
#include <math.h>
#include <stdlib.h>

/* density floor for the amplitude-ratio term only: advection of a steep
 * tail can undershoot to machine-negligible negatives, and the floor, far
 * below any physical scale, keeps sqrt and the division by R finite */
#define OM_FLOOR 1e-300

typedef struct {
    long nb, n;
    const double *g, *dg, *A, *V;
    double dq, lam;
    double dq2;        /* 2.0 * dq, the central-difference divisor */
    double h2;         /* dq * dq */
    double neg_lam2half;
    double linkL, linkR, domL, domR, dSL, dSR;
    double *dp, *flux, *R;   /* one branch of scratch each */
} Fields;

/* The right-hand side of one branch: om and S in, their rates out.  No
 * two of the planes, tables and scratch overlap; restrict says so, which
 * lets gcc vectorize the loops. */
static void branch_rhs(const Fields *f, const double *restrict om,
                       const double *restrict S, double *restrict dom,
                       double *restrict dSdt)
{
    const long n = f->n;
    const double dq = f->dq, dq2 = f->dq2, h2 = f->h2, lam = f->lam;
    const double nl2h = f->neg_lam2half;
    const double *restrict g = f->g, *restrict dg = f->dg;
    const double *restrict A = f->A, *restrict V = f->V;
    double *restrict dp = f->dp, *restrict flux = f->flux, *restrict R = f->R;

    /* dS/dq - A: central in the interior, one-sided (difference form
     * of (-3 f0 + 4 f1 - f2) / 2h and its mirror) at the edges */
    dp[0] = (-3.0 * (S[0] - S[1]) + (S[1] - S[2])) / (2.0 * dq) - A[0];
    for (long i = 1; i < n - 1; i++)
        dp[i] = (S[i + 1] - S[i - 1]) / dq2 - A[i];
    dp[n - 1] = (3.0 * (S[n - 1] - S[n - 2]) - (S[n - 2] - S[n - 3]))
                / (2.0 * dq) - A[n - 1];
    for (long i = 0; i < n; i++) {
        flux[i] = g[i] * dp[i] * om[i];
        /* a NaN density stays NaN, as under np.maximum */
        R[i] = sqrt(om[i] < OM_FLOOR ? OM_FLOOR : om[i]);
    }
    for (long i = 1; i < n - 1; i++) {
        dom[i] = -((flux[i + 1] - flux[i - 1]) / dq2);
        double d1R = (R[i + 1] - R[i - 1]) / dq2;
        double d2R = ((R[i + 1] - R[i] * 2.0) + R[i - 1]) / h2;
        double qp = ((g[i] * d2R + dg[i] * d1R) * nl2h) / R[i];
        dSdt[i] = -((((0.5 * g[i]) * dp[i]) * dp[i] + V[i]) + qp);
    }

    /* the exact polar wall rows, with the midpoint gauge link; sin and
     * cos of an infinite phase step are NaN */
    double th = ((S[1] - S[0]) - f->linkL) / lam;
    dom[0] = f->domL * R[0] * R[1] * sin(th);
    dSdt[0] = f->dSL * ((R[1] / R[0]) * cos(th) - 2.0) - V[0];
    th = ((S[n - 1] - S[n - 2]) - f->linkR) / lam;
    dom[n - 1] = f->domR * R[n - 2] * R[n - 1] * sin(th);
    dSdt[n - 1] = f->dSR * ((R[n - 2] / R[n - 1]) * cos(th) - 2.0) - V[n - 1];
}

/* The right-hand side of every branch of src, into dst (both 2 nb n). */
static void rhs(const Fields *f, const double *src, double *dst)
{
    const long n = f->n, cells = f->nb * n;
    for (long b = 0; b < f->nb; b++)
        branch_rhs(f, src + b * n, src + cells + b * n, dst + b * n,
                   dst + cells + b * n);
}

int polar_rk4_window(double *y, long nb, long n, const double *g,
                     const double *dg, const double *A, const double *V,
                     double dq, double dt, long n_steps, double lam)
{
    const long size = 2 * nb * n;
    double *work = malloc(sizeof(double) * (size_t)(3 * size + 3 * n));
    if (work == NULL)
        return -1;
    double *k = work, *acc = work + size, *stage = work + 2 * size;

    const double lam2half = 0.5 * lam * lam, h2 = dq * dq;
    Fields f = {
        .nb = nb, .n = n, .g = g, .dg = dg, .A = A, .V = V,
        .dq = dq, .lam = lam, .dq2 = 2.0 * dq, .h2 = h2,
        .neg_lam2half = -lam2half,
        .linkL = dq * 0.5 * (A[0] + A[1]),
        .linkR = dq * 0.5 * (A[n - 2] + A[n - 1]),
        .domL = -(g[0] * lam / h2), .domR = g[n - 1] * lam / h2,
        .dSL = g[0] * lam2half / h2, .dSR = g[n - 1] * lam2half / h2,
        .dp = work + 3 * size, .flux = work + 3 * size + n,
        .R = work + 3 * size + 2 * n,
    };
    const double half = 0.5 * dt, sixth = dt / 6.0;

    /* y += dt/6 (((2 k2 + k1) + 2 k3) + k4), the sum kept in acc */
    for (long step = 0; step < n_steps; step++) {
        rhs(&f, y, k);
        for (long i = 0; i < size; i++) {
            acc[i] = k[i];
            stage[i] = k[i] * half + y[i];
        }
        rhs(&f, stage, k);
        for (long i = 0; i < size; i++) {
            acc[i] = k[i] * 2.0 + acc[i];
            stage[i] = k[i] * half + y[i];
        }
        rhs(&f, stage, k);
        for (long i = 0; i < size; i++) {
            acc[i] = acc[i] + k[i] * 2.0;
            stage[i] = k[i] * dt + y[i];
        }
        rhs(&f, stage, k);
        for (long i = 0; i < size; i++)
            y[i] = y[i] + (acc[i] + k[i]) * sixth;
    }
    free(work);
    return 0;
}
