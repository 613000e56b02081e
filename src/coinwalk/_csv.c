/* Compiled CSV body of coinwalk.export.write_csv.
 *
 * Rows are written as Python's ``%`` operator writes them: an int64 as
 * ``%d``, a double as ``%.17g``, NaN of either sign as an empty field, fields
 * joined by commas and each row ended by a newline.  The bytes are the same.
 *
 * Doubles.  %.17g prints D 10^(k - 16), where D is the 17-digit integer
 * x 10^(16 - k) rounded half to even and k is the decimal exponent that puts
 * D in [10^16, 10^17).  For a normal x = m 2^e with 1e-16 < |x| < 1e17, k lies
 * in [-16, 16], so p = 16 - k lies in [0, 32] and N = m 5^p < 2^53 5^32 fits in
 * 128 bits: D is N 2^(e + p), shifted and rounded exactly in integers.  The
 * binary exponent puts k at one of two values, and one comparison with the
 * double nearest the upper one's power of ten picks it; where that double is
 * not the power itself (10^-1 .. 10^-16), x equal to it can be one power too
 * high, which D < 10^16 shows and one more rounding corrects.  Two steps take
 * no branch: the floor of the exponent estimate is a shift of an int made
 * positive, and rounding half to even is a bitwise expression of the
 * remainder, where a branch would go either way on real data.  The digits
 * are written two at a time from a table, and each field is laid out with
 * copies of fixed size inside its 25 bytes.  Every other double (subnormal,
 * or outside that range) goes to snprintf, which is exact too, and so does
 * every double where the compiler has no 128-bit integer type.  snprintf
 * prints the decimal point of LC_NUMERIC; the caller takes this path only
 * where that point is ".".
 *
 * The memo.  A double field whose bit pattern equals that of the double field
 * just before it in its row, or that of its own column's field in the row
 * before, copies that field's bytes instead of formatting again: the gap map's
 * theta repeats down its column, gap_pi equals gap_zero, and a band's
 * v_group equals nz but for the sign of zero.  Bits are compared, never
 * values, so 0 and -0 stay apart, and so do NaNs of other payloads.  The
 * memo covers tables of up to MEMO_COLS columns, in arrays on the stack;
 * wider tables format every field.  It starts empty at the first row of each
 * call and of each stage, and reads only fields that call or stage wrote: a
 * copied field holds exactly the bytes its value prints as, so the memo
 * changes no byte, whatever the rows per call or the stages.
 *
 * Two stages.  A call of at least TWO_STAGE_FIELDS fields, where the calling
 * thread may run on two CPUs or more, is split in two: the caller formats the
 * first half of the rows at the start of ``out``, and a second thread the
 * rest at their worst-case offset, 25 bytes a field past the first half.
 * Once the second thread is joined, one memmove closes the gap between the
 * two.  Each row is formatted by the same routine whichever thread runs it,
 * and depends on nothing but its own values: the bytes written do not depend
 * on the number of stages, nor on the number of CPUs.  The second thread is
 * started for each call, on a small stack, by the walk kernel's starter
 * (_walk.c), and joined before the call returns; where it does not start the
 * caller formats every row.
 *
 * Plain C11 with POSIX threads and no Python API: the caller owns and sizes
 * every buffer, and nothing is allocated here but the second thread.
 */
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL
/* the bytes of ``out`` a field may use: the widest field,
 * "-1.7976931348623157e+308", and its delimiter */
#define FIELD_BYTES 25
/* the fewest fields split in two stages: below it starting and joining the
 * second thread costs more than the second CPU saves */
#define TWO_STAGE_FIELDS 3072
#define STACK_BYTES (64 * 1024)
/* the most columns whose fields the memo keeps */
#define MEMO_COLS 8

/* read by the tests, which cover the edges of the split */
const int64_t coinwalk_two_stage_fields = TWO_STAGE_FIELDS;

/* starts fn(arg) where the calling thread may run on two CPUs or more;
 * returns 0 where the caller must do all the work; in _walk.c */
int coinwalk_start_second(pthread_t *thread, void *(*fn)(void *), void *arg, size_t stack);

/* "00" "01" ... "99" */
static const char PAIRS[] =
    "00010203040506070809"
    "10111213141516171819"
    "20212223242526272829"
    "30313233343536373839"
    "40414243444546474849"
    "50515253545556575859"
    "60616263646566676869"
    "70717273747576777879"
    "80818283848586878889"
    "90919293949596979899";

/* the four digits of v < 10^4 at out */
static void put_4_digits(char *out, uint32_t v)
{
    memcpy(out, PAIRS + 2 * (v / 100), 2);
    memcpy(out + 2, PAIRS + 2 * (v % 100), 2);
}

/* the digits of u at out, no sign; returns their count */
static int put_unsigned(char *out, uint64_t u)
{
    char tmp[20];
    int n = 20;
    for (; u >= 100; u /= 100) {
        n -= 2;
        memcpy(tmp + n, PAIRS + 2 * (u % 100), 2);
    }
    if (u >= 10) {
        n -= 2;
        memcpy(tmp + n, PAIRS + 2 * u, 2);
    } else {
        tmp[--n] = (char)('0' + u);
    }
    memcpy(out, tmp + n, (size_t)(20 - n));
    return 20 - n;
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

/* the doubles nearest 10^-16 .. 10^17, at index k + 16; from 10^0 up they
 * are the powers themselves */
static const double POW10[34] = {
    1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5,
    1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
    1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
};

/* the 17 digits of d in [10^16, 10^17) at out */
static void put_17_digits(char *out, uint64_t d)
{
    const uint32_t hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);
    out[0] = (char)('0' + hi / 100000000);
    const uint32_t mid = hi % 100000000;
    put_4_digits(out + 1, mid / 10000);
    put_4_digits(out + 5, mid % 10000);
    put_4_digits(out + 9, lo / 10000);
    put_4_digits(out + 13, lo % 10000);
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
    if (s < 64) {  /* in 64-bit halves, as for every p <= 27: q < 10^18 */
        const uint64_t lo = (uint64_t)n, q = (uint64_t)(n >> 64) << (64 - s) | lo >> s;
        const uint64_t rem = lo & ((1ULL << s) - 1), half = 1ULL << (s - 1);
        *up = (rem > half) | ((rem == half) & (int)(q & 1));
        return q;
    }
    const u128 q = n >> s, rem = n - (q << s), half = (u128)1 << (s - 1);
    *up = (rem > half) | ((rem == half) & (int)(q & 1));
    return (uint64_t)q;
}

/* %.17g of the normal double a = m 2^e in (1e-16, 1e17), signed by neg, in
 * out[0, 24); returns the length */
static int put_fast(char *out, int neg, double a, uint64_t m, int e)
{
    /* floor(log10 2^(e + 52)) is k or k - 1, and at least -17 for a > 1e-16;
     * |t| < 2^23 in this range, so t + 2^24 is positive and shifts exactly */
    const int t = (e + 52) * 78913;
    int k = ((t + (64 << 18)) >> 18) - 64;
    k += a >= POW10[k + 17];
    int up;
    /* below 10^17 at k, and below 10^18 at k - 1, so it fits in 64 bits */
    uint64_t d = scaled_floor(m, e, 16 - k, &up);
    if (d >= TEN17) {  /* k was one low: a guard, never taken with POW10 correctly rounded */
        k++;
        d = scaled_floor(m, e, 16 - k, &up);
    } else if (d < TEN16) {  /* a is the double nearest 10^k, and below it */
        k--;
        d = scaled_floor(m, e, 16 - k, &up);
    }
    d += (uint64_t)up;
    if (d == TEN17) {  /* rounded up to the next power of ten */
        d = TEN16;
        k++;
    }
    /* the 17 digits, then zeros as far as any copy below reads */
    char digits[32];
    put_17_digits(digits, d);
    memcpy(digits + 17, "000000000000000", 15);
    int nd = 17;
    while (digits[nd - 1] == '0')
        nd--;
    /* the field in f[0, 24), every byte written before the copy out: the sign,
     * then at most 23 bytes */
    char f[48];
    char *s = f + neg;
    f[0] = '-';
    int n;
    if (k < -4) {  /* exponent form: d.ddd...e-XX */
        s[0] = digits[0];
        s[1] = '.';
        memcpy(s + 2, digits + 1, 22);
        n = nd > 1 ? nd + 1 : 1;
        s[n] = 'e';
        s[n + 1] = '-';
        memcpy(s + n + 2, PAIRS + 2 * -k, 2);
        n += 4;
    } else if (k < 0) {  /* 0.000ddd */
        memcpy(s, "0.000", 5);
        memcpy(s + 1 - k, digits, 22);
        n = 1 - k + nd;
    } else {  /* k + 1 integer digits, then any fraction */
        const int whole = k + 1;
        memcpy(s, digits, 24);
        n = whole;
        if (nd > whole) {
            s[whole] = '.';
            memcpy(s + whole + 1, digits + whole, 16);
            n = nd + 1;
        }
    }
    memcpy(out, f, 24);
    return neg + n;
}
#endif

/* %.17g of x at out, NaN as nothing; returns the length, at most 24, and
 * writes no further than out[23] */
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
    if (a > 1e-16 && a < 1e17)  /* subnormals are below 1e-16 */
        return put_fast(out, neg, a, frac | 0x0010000000000000ULL, biased - 1075);
#endif
    char tmp[32];
    const int n = snprintf(tmp, sizeof tmp, "%.17g", x);
    memcpy(out, tmp, (size_t)n);
    return n;
}

/* the field of ``len`` bytes at src, written already, again at out, past it;
 * writes no further than out[23].  The 24 bytes read may overlap the 24
 * written, so they pass through a local copy, which keeps both fixed-size */
static int copy_field(char *out, const char *src, int len)
{
    char f[24];
    memcpy(f, src, 24);
    memcpy(out, f, 24);
    return len;
}

/* rows [first, first + rows) at out; returns the bytes written */
static int64_t format_rows(const void *const *cols, const char *kinds, int64_t ncols, int64_t first, int64_t rows,
                           char *out)
{
    /* the memo: per double column, the bits of its last field and where its
     * bytes start; kept up to MEMO_COLS columns, and filled from this call's
     * first row on */
    uint64_t bits_at[MEMO_COLS];
    const char *field_at[MEMO_COLS];
    int len_at[MEMO_COLS];
    const int memo = ncols <= MEMO_COLS;
    char *p = out;
    for (int64_t r = first; r < first + rows; r++) {
        const int above = memo && r > first;  /* the row before is this call's */
        for (int64_t j = 0; j < ncols; j++) {
            if (kinds[j] == 'f') {
                uint64_t bits;
                memcpy(&bits, (const double *)cols[j] + r, sizeof bits);
                int n;
                if (memo && j > 0 && kinds[j - 1] == 'f' && bits == bits_at[j - 1])  /* the field before */
                    n = copy_field(p, field_at[j - 1], len_at[j - 1]);
                else if (above && bits == bits_at[j])  /* the field above */
                    n = copy_field(p, field_at[j], len_at[j]);
                else
                    n = put_double(p, ((const double *)cols[j])[r]);
                if (memo) {
                    bits_at[j] = bits;
                    field_at[j] = p;
                    len_at[j] = n;
                }
                p += n;
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

struct stage {
    const void *const *cols;
    const char *kinds;
    int64_t ncols, first, rows;
    char *out;
    int64_t written;
};

static void *second_stage(void *arg)
{
    struct stage *st = arg;
    st->written = format_rows(st->cols, st->kinds, st->ncols, st->first, st->rows, st->out);
    return NULL;
}

/* Format rows [first, first + rows) of the ``ncols`` columns ``cols`` into
 * ``out``; ``kinds[j]`` is 'f' for a double column and 'i' for int64.
 * ``out`` holds at least FIELD_BYTES bytes per field.  Returns the number of
 * bytes written. */
int64_t coinwalk_format_rows(const void *const *cols, const char *kinds, int64_t ncols, int64_t first, int64_t rows,
                             char *out)
{
    if (rows * ncols < TWO_STAGE_FIELDS)
        return format_rows(cols, kinds, ncols, first, rows, out);
    const int64_t half = rows / 2;
    struct stage st = {.cols = cols, .kinds = kinds, .ncols = ncols, .first = first + half, .rows = rows - half,
                       .out = out + half * ncols * FIELD_BYTES};
    pthread_t second;
    if (!coinwalk_start_second(&second, second_stage, &st, STACK_BYTES))
        return format_rows(cols, kinds, ncols, first, rows, out);
    const int64_t written = format_rows(cols, kinds, ncols, first, half, out);
    pthread_join(second, NULL);
    memmove(out + written, st.out, (size_t)st.written);
    return written + st.written;
}
