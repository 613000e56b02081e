/* Compiled CSV body of coinwalk.export.write_csv.
 *
 * Rows are written as Python's ``%`` operator writes them: an integer as
 * ``%d``, a double as ``%.17g``, NaN of either sign as an empty field, fields
 * joined by commas and each row ended by a newline.  The bytes are the same.
 *
 * Doubles.  %.17g prints D 10^(k - 16), where D is the 17-digit integer
 * x 10^(16 - k) rounded half to even and k is the decimal exponent that puts
 * D in [10^16, 10^17).  For a normal x = m 2^e with 1e-16 < |x| < 1e17, k lies
 * in [-16, 16], so p = 16 - k lies in [0, 32] and N = m 5^p < 2^53 5^32 fits in
 * 128 bits: D is N 2^(e + p), shifted and rounded exactly in integers.  Every
 * other double (subnormal, or outside that range) goes to snprintf, which is
 * exact too, and so does every double where the compiler has no 128-bit
 * integer type.  snprintf prints the decimal point of LC_NUMERIC; the caller
 * takes this path only where that point is ".".
 *
 * Plain C99 with no Python API: the caller owns and sizes every buffer, and
 * nothing is allocated here.
 */
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL

/* the digits of u at out, no sign; returns their count */
static int put_unsigned(char *out, uint64_t u)
{
    char tmp[20];
    int n = 0;
    do {
        tmp[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u != 0);
    for (int i = 0; i < n; i++)
        out[i] = tmp[n - 1 - i];
    return n;
}

#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 u128;

/* 5^0 .. 5^27, the powers below 2^64 */
static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL,
    6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
};

/* the 17 digits of d in [10^16, 10^17), from two halves that fit in 32 bits */
static void put_17_digits(char *out, uint64_t d)
{
    uint32_t hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);
    for (int i = 16; i >= 9; i--, lo /= 10)
        out[i] = (char)('0' + lo % 10);
    for (int i = 8; i >= 0; i--, hi /= 10)
        out[i] = (char)('0' + hi % 10);
}

/* floor(m 2^e 10^p) for p in [0, 32]; *up says whether rounding it half to
 * even adds one */
static uint64_t scaled_floor(uint64_t m, int e, int p, int *up)
{
    const u128 n = p <= 27 ? (u128)m * POW5[p] : (u128)m * POW5[27] * POW5[p - 27];
    const int shift = e + p;
    if (shift >= 0) {  /* m 2^e 10^p is an integer */
        *up = 0;
        return (uint64_t)(n << shift);
    }
    const int s = -shift;  /* below 128: e >= -106 for x > 1e-16 */
    const u128 q = n >> s, rem = n - (q << s), half = (u128)1 << (s - 1);
    *up = rem > half || (rem == half && (q & 1));
    return (uint64_t)q;
}

/* %.17g of the normal double |x| = m 2^e in (1e-16, 1e17) at out; returns the
 * length */
static int put_fast(char *out, uint64_t m, int e)
{
    /* floor(log10 2^(e + 52)) is k or k - 1, never above k, and at least -16
     * for x >= 2^-53; raised to -16 below that, where k is -16 */
    const int t = (e + 52) * 78913;
    int k = t >= 0 ? t >> 18 : -((-t + 262143) >> 18);
    if (k < -16)
        k = -16;
    int up;
    /* below 10^18 at either k, so it fits in 64 bits */
    uint64_t d = scaled_floor(m, e, 16 - k, &up);
    if (d >= TEN17) {  /* k was one low */
        k++;
        d = scaled_floor(m, e, 16 - k, &up);
    }
    d += (uint64_t)up;
    if (d == TEN17) {  /* rounded up to the next power of ten */
        d = TEN16;
        k++;
    }
    char digits[17];
    put_17_digits(digits, d);
    int nd = 17;
    while (digits[nd - 1] == '0')
        nd--;
    int n = 0;
    if (k < -4) {  /* exponent form: d.ddd...e-XX */
        out[n++] = digits[0];
        if (nd > 1) {
            out[n++] = '.';
            memcpy(out + n, digits + 1, (size_t)(nd - 1));
            n += nd - 1;
        }
        out[n++] = 'e';
        out[n++] = '-';
        out[n++] = (char)('0' + -k / 10);
        out[n++] = (char)('0' + -k % 10);
    } else if (k < 0) {  /* 0.000ddd */
        out[n++] = '0';
        out[n++] = '.';
        for (int i = 1; i < -k; i++)
            out[n++] = '0';
        memcpy(out + n, digits, (size_t)nd);
        n += nd;
    } else {  /* k + 1 integer digits, then any fraction */
        const int whole = k + 1;
        for (int i = 0; i < whole; i++)
            out[n++] = i < nd ? digits[i] : '0';
        if (nd > whole) {
            out[n++] = '.';
            memcpy(out + n, digits + whole, (size_t)(nd - whole));
            n += nd - whole;
        }
    }
    return n;
}
#endif

/* %.17g of x at out, NaN as nothing; returns the length, at most 24 */
static int put_double(char *out, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int neg = (int)(bits >> 63);
    const int biased = (int)(bits >> 52 & 0x7ff);
    const uint64_t frac = bits & 0x000fffffffffffffULL;
    if (biased == 0x7ff) {
        if (frac != 0)
            return 0;
        memcpy(out, neg ? "-inf" : "inf", (size_t)(3 + neg));
        return 3 + neg;
    }
    if (biased == 0 && frac == 0) {
        memcpy(out, neg ? "-0" : "0", (size_t)(1 + neg));
        return 1 + neg;
    }
#ifdef __SIZEOF_INT128__
    const double a = neg ? -x : x;
    if (a > 1e-16 && a < 1e17) {  /* subnormals are below 1e-16 */
        if (neg)
            out[0] = '-';
        return neg + put_fast(out + neg, frac | 0x0010000000000000ULL, biased - 1075);
    }
#endif
    char tmp[32];
    const int n = snprintf(tmp, sizeof tmp, "%.17g", x);
    memcpy(out, tmp, (size_t)n);
    return n;
}

/* Format rows [first, first + rows) of the ``ncols`` columns ``cols`` into
 * ``out``; ``kinds[j]`` is 'f' for a double column, 'i' for int64 and 'u' for
 * uint64.  ``out`` holds at least 25 bytes per field.  Returns the number of
 * bytes written. */
int64_t coinwalk_format_rows(const void *const *cols, const char *kinds, int64_t ncols,
                             int64_t first, int64_t rows, char *out)
{
    char *p = out;
    for (int64_t r = first; r < first + rows; r++) {
        for (int64_t j = 0; j < ncols; j++) {
            if (kinds[j] == 'f') {
                p += put_double(p, ((const double *)cols[j])[r]);
            } else if (kinds[j] == 'u') {
                p += put_unsigned(p, ((const uint64_t *)cols[j])[r]);
            } else {
                const int64_t v = ((const int64_t *)cols[j])[r];
                if (v < 0)
                    *p++ = '-';
                p += put_unsigned(p, v < 0 ? 0 - (uint64_t)v : (uint64_t)v);
            }
            *p++ = j + 1 < ncols ? ',' : '\n';
        }
    }
    return (int64_t)(p - out);
}
