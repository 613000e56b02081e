/* Compiled form of the step loop of coinwalk.walk._advance.
 *
 * The buffer layout is the one the numpy loop uses: ``flat`` holds 2 (steps + 1)
 * complex amplitudes as interleaved (re, im) doubles.  Coin 1 sits at a fixed
 * base, index ``steps + 1``, so its left shift keeps the sublattice index;
 * coin 0 sits in a block whose base moves down one slot per step, so its right
 * shift is free too.  Each step maps every occupied (coin 0, coin 1) pair
 * through the 2x2 coin in place and, when ``sums`` is given, reduces
 * sum p, sum d p and sum d^2 p over the new block into column k of the
 * (3, steps + 1) row-major array ``sums``, where d is a site's displacement
 * from the start site: an exact integer, so the sums do not depend on where
 * the walk starts.
 *
 * Subnormals.  The amplitudes near the light-cone edges decay through the
 * subnormal range, and on many x86 cores every multiplication that reads or
 * writes a subnormal takes a microcode assist dozens of times slower than the
 * multiplication itself; scalar code pays one assist per operation where
 * numpy's vector loops pay one per vector.  So a pair whose four components
 * all lie below 2^-511 is mapped scaled up by 2^600: the scaling is exact and
 * done on the bits, the products are all normal, and the result is scaled back
 * down with IEEE rounding, also on the bits.  Where no operand or result of
 * the unscaled map is subnormal the scaled map gives the same bits; elsewhere
 * it lands within one unit of the last subnormal place of the exact map.  Its
 * squares are normal too, so those pairs' sums are kept scaled by 2^1200 and
 * added in at the end of the step.  A pair of four zeros is left as it is.
 *
 * Plain C99 with no Python API: the caller owns and sizes every buffer, and
 * nothing is allocated here.  Every operation is a double one, on every
 * platform.  Build without -ffast-math and with -ffp-contract=off, so the
 * arithmetic is the IEEE operations written below, in the order written, and
 * reruns are bit for bit the same.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define UP 0x1p600
#define DOWN 0x1p-600

static uint64_t bits_of(double a)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    return bits;
}

static double from_bits(uint64_t bits)
{
    double a;
    memcpy(&a, &bits, sizeof a);
    return a;
}

/* a 2^600, exactly, for |a| < 2^-511 */
static double scale_up(double a)
{
    const uint64_t bits = bits_of(a);
    if (bits & 0x7ff0000000000000ULL)
        return a * UP;
    /* subnormal or zero, +-m 2^-1074: convert m rather than multiply a subnormal */
    const double m = (double)(int64_t)(bits & 0x000fffffffffffffULL) * 0x1p-474;
    return bits >> 63 ? -m : m;
}

/* a 2^-600, rounded to nearest even as the multiplication would round it */
static double scale_down(double a)
{
    if (fabs(a) >= 0x1p-422)
        return a * DOWN;
    /* the result is subnormal, +-m 2^-1074: m = |a| 2^474 rounded to an integer
     * <= 2^52 by the addition, whose ulp is 1, and 2^52 is the smallest normal's
     * bit pattern */
    const double m = (fabs(a) * 0x1p474 + 0x1p52) - 0x1p52;
    return from_bits((uint64_t)(int64_t)m | (bits_of(a) & 0x8000000000000000ULL));
}

/* (a, b) <- (c00 a + c01 b, c10 a + c11 b) for v = (a.re, a.im, b.re, b.im);
 * c holds c00, c01, c10, c11 as (re, im) pairs. */
static void coin_map(double *v, const double *c)
{
    const double ar = v[0], ai = v[1], br = v[2], bi = v[3];
    v[0] = (ar * c[0] - ai * c[1]) + (br * c[2] - bi * c[3]);
    v[1] = (ar * c[1] + ai * c[0]) + (br * c[3] + bi * c[2]);
    v[2] = (ar * c[4] - ai * c[5]) + (br * c[6] - bi * c[7]);
    v[3] = (ar * c[5] + ai * c[4]) + (br * c[7] + bi * c[6]);
}

/* Walk ``steps`` steps.  Block site i after step k is displaced 2i - k from
 * the start site.  ``sums`` may be NULL; column 0 is the caller's. */
void coinwalk_advance(double *flat, int64_t steps, const double *coin, double *sums)
{
    const int64_t width = steps + 1;
    double *b1 = flat + 2 * width;
    double c[8];  /* a local copy, which no store to flat can alias */
    memcpy(c, coin, sizeof c);
    for (int64_t k = 1; k < width; k++) {
        const int64_t lo = steps - k;
        /* the k occupied pairs: coin 0 from the last step's block, coin 1 in
         * place; after the map, pair j's coin 0 is at block site j + 1 and its
         * coin 1 at block site j */
        double *b0 = flat + 2 * (lo + 1);
        /* sums over the plain pairs, and over the scaled ones scaled by 2^1200 */
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, u0 = 0.0, u1 = 0.0, u2 = 0.0;
        for (int64_t j = 0; j < k; j++) {
            double *a = b0 + 2 * j, *b = b1 + 2 * j;
            double v[4] = {a[0], a[1], b[0], b[1]};
            const uint64_t any = bits_of(v[0]) | bits_of(v[1]) | bits_of(v[2]) | bits_of(v[3]);
            if ((any << 1) == 0)  /* four +-0: the map gives zeros and the sums gain nothing */
                continue;
            /* all four below 2^-511: no exponent field has bit 9 or 10 set */
            const int scaled = (any & 0x6000000000000000ULL) == 0;
            if (scaled)
                for (int i = 0; i < 4; i++)
                    v[i] = scale_up(v[i]);
            coin_map(v, c);
            if (scaled) {
                a[0] = scale_down(v[0]);
                a[1] = scale_down(v[1]);
                b[0] = scale_down(v[2]);
                b[1] = scale_down(v[3]);
            } else {
                a[0] = v[0];
                a[1] = v[1];
                b[0] = v[2];
                b[1] = v[3];
            }
            if (sums == NULL)
                continue;
            const double qa = v[0] * v[0] + v[1] * v[1], qb = v[2] * v[2] + v[3] * v[3];
            const double da = (double)(2 * j + 2 - k), db = (double)(2 * j - k);
            const double p = qa + qb, dp = da * qa + db * qb, ddp = (da * da) * qa + (db * db) * qb;
            if (scaled) {
                u0 += p;
                u1 += dp;
                u2 += ddp;
            } else {
                s0 += p;
                s1 += dp;
                s2 += ddp;
            }
        }
        if (sums != NULL) {
            sums[k] = s0 + u0 * DOWN * DOWN;
            sums[width + k] = s1 + u1 * DOWN * DOWN;
            sums[2 * width + k] = s2 + u2 * DOWN * DOWN;
        }
    }
}
