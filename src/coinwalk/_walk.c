/* Compiled form of the step loop of coinwalk.walk._advance.
 *
 * The buffer layout is the one the numpy loop uses: ``flat`` holds 2 (steps + 1)
 * complex amplitudes as interleaved (re, im) doubles.  Coin 1 sits at a fixed
 * base, index ``steps + 1``, so its left shift keeps the sublattice index;
 * coin 0 sits in a block whose base moves down one slot per step, so its right
 * shift is free too.  Each step maps every occupied (coin 0, coin 1) pair
 * through the 2x2 coin in place and reduces sum p, sum d p and sum d^2 p over
 * the new block into column k of the (3, steps + 1) row-major array ``sums``,
 * where d is a site's displacement from the start site: an exact integer, so
 * the sums do not depend on where the walk starts.
 *
 * Subnormals.  The amplitudes near the light-cone edges decay through the
 * subnormal range, and on many x86 cores every multiplication that reads or
 * writes a subnormal takes a microcode assist dozens of times slower than the
 * multiplication itself.  So a pair whose four components all lie below 2^-511
 * is scaled up by 2^600 into a copy, exactly, mapped there as a block of one
 * pair, and scaled back down with IEEE rounding; both scalings are done on the
 * bits, and the products are all normal.  Where no operand or result of the
 * unscaled map is subnormal the scaled map gives the same bits; elsewhere it
 * lands within one unit of the last subnormal place of the exact map.  Its
 * squares are normal too, so those pairs' sums are kept scaled by 2^1200 and
 * added in at the end of the step.  A pair of four zeros is skipped: the map
 * would give zeros and the sums gain nothing.
 *
 * Blocks.  Every mapped pair runs in map_lanes, which maps up to BLOCK pairs
 * two at a time in two-lane vectors of the GNU vector extensions (SSE2 and
 * NEON registers, with no -march and no CPU dispatch), the real parts in one
 * vector and the imaginary parts in another; an odd last pair runs in lane 0
 * beside a lane of zeros that is neither stored nor summed.  The lanes' terms
 * are added to the sums one pair at a time in the order of j.  map_pairs takes
 * its range in blocks of BLOCK pairs, the last one maybe short.  Most pairs
 * are plain, neither four zeros nor all four components below 2^-511, and a
 * block of plain pairs is mapped whole; in any other block each pair goes on
 * its own, as a block of one pair, scaled or skipped.  On a 2-vCPU x86-64 VM
 * (gcc 12, the flags below) a plain pair costs about 6 ns on one thread (a
 * 2400-step walk with |c00| = 0.99, median of 31 runs).
 *
 * Two stages.  Pair j of step k reads only pairs j - 1 and j of step k - 1, so
 * a walk of at least TWO_STAGE_STEPS steps, where the calling thread may run on
 * two CPUs or more, is split in two: the caller maps pairs [0, m) of each step
 * and a second thread maps pairs [m, k).  While m holds, the first stage never
 * reads what the second writes, so it runs ahead; the second starts step k once
 * the first has published it, and takes over the first stage's running sums of
 * that step from a ring, so every sum is added in the order of j, as the
 * one-stage loop adds it.  m moves to half the pairs only at the start of each
 * WINDOW steps, where the first stage waits for the second to finish the step
 * before; so at most WINDOW steps' sums are in flight.  Both stages and the
 * one-stage loop run one routine, map_pairs, whose blocks start at the range's
 * first pair, and every operation is the same in the same order, whichever
 * block and lane a pair falls in: the bytes written do not depend on the number
 * of stages, nor on the number of CPUs.  Waits spin, then yield the CPU.  The
 * second thread is started for each call, on a small stack, by
 * coinwalk_start_second, which starts the CSV formatter's (_csv.c) too, and
 * joined before the call returns; where it does not start the caller maps every
 * pair.
 *
 * C11 with POSIX threads, the GNU vector extensions (gcc and clang) and no
 * Python API: the caller owns and sizes every buffer, and nothing is
 * allocated here but the second thread.  Every operation is a double one, on
 * every platform.  Build without -ffast-math and with -ffp-contract=off, so
 * the arithmetic is the IEEE operations written below, in the order written,
 * and reruns are bit for bit the same.
 */
#define _GNU_SOURCE /* sched_getaffinity and CPU_COUNT */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#define UP 0x1p600
#define DOWN 0x1p-600

/* the fewest steps split in two stages: below it the start and the waits cost
 * more than the second CPU saves */
#define TWO_STAGE_STEPS 512
/* steps between moves of the split, and the ring of handed-over sums */
#define WINDOW 32
/* pairs per block of map_pairs: a multiple of the two lanes */
#define BLOCK 8
/* polls of a counter before each wait yields the CPU */
#define SPINS 4096
#define STACK_BYTES (256 * 1024)

/* read by the tests, which cover the edges of both */
const int64_t coinwalk_two_stage_steps = TWO_STAGE_STEPS;
const int64_t coinwalk_window = WINDOW;

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

/* the bits of pair (a, b)'s four components, or'ed: zero in all but the sign
 * bit for four +-0, and with neither bit 9 nor bit 10 of the exponent field set
 * where all four lie below 2^-511 */
static uint64_t pair_bits(const double *a, const double *b)
{
    return bits_of(a[0]) | bits_of(a[1]) | bits_of(b[0]) | bits_of(b[1]);
}

/* 1 for the bits of a plain pair, which is mapped unscaled */
static int is_plain(uint64_t bits)
{
    return (bits & 0x6000000000000000ULL) != 0;
}

/* two lanes of doubles, native on SSE2 and NEON: one lane per pair */
typedef double lanes __attribute__((vector_size(2 * sizeof(double))));

/* Map the n <= BLOCK pairs from pair j of step k, a at coin 0 and b at coin 1,
 * (a, b) <- (c00 a + c01 b, c10 a + c11 b), and add their terms to ``sum``
 * (s0 s1 s2 or u0 u1 u2, see map_pairs) in the order of j; c holds c00, c01,
 * c10, c11 as (re, im) pairs.  Two pairs go at a time in planar (re, im)
 * lanes, and an odd last pair in lane 0, with zeros in lane 1 that are
 * neither stored nor summed.  Inline, so that each call site's loop is
 * compiled for its own n: called, a walk took up to 16% longer. */
static inline void map_lanes(double *a, double *b, const double *c, int n, int64_t j, int64_t k, double *sum)
{
    const lanes c0r = {c[0], c[0]}, c0i = {c[1], c[1]}, c1r = {c[2], c[2]}, c1i = {c[3], c[3]};
    const lanes c2r = {c[4], c[4]}, c2i = {c[5], c[5]}, c3r = {c[6], c[6]}, c3i = {c[7], c[7]};
    static const double none[2] = {0.0, 0.0};
    double s0 = sum[0], s1 = sum[1], s2 = sum[2];
    for (int i = 0; i < 2 * n; i += 4, j += 2) {
        const int two = i + 2 < 2 * n;
        const double *a1 = two ? a + i + 2 : none, *b1 = two ? b + i + 2 : none;
        const lanes ar = {a[i], a1[0]}, ai = {a[i + 1], a1[1]};
        const lanes br = {b[i], b1[0]}, bi = {b[i + 1], b1[1]};
        const lanes xr = (ar * c0r - ai * c0i) + (br * c1r - bi * c1i);
        const lanes xi = (ar * c0i + ai * c0r) + (br * c1i + bi * c1r);
        const lanes yr = (ar * c2r - ai * c2i) + (br * c3r - bi * c3i);
        const lanes yi = (ar * c2i + ai * c2r) + (br * c3i + bi * c3r);
        const lanes qa = xr * xr + xi * xi, qb = yr * yr + yi * yi;
        const lanes da = {(double)(2 * j + 2 - k), (double)(2 * j + 4 - k)};
        const lanes db = {(double)(2 * j - k), (double)(2 * j + 2 - k)};
        const lanes p = qa + qb, dp = da * qa + db * qb, ddp = (da * da) * qa + (db * db) * qb;
        a[i] = xr[0], a[i + 1] = xi[0], b[i] = yr[0], b[i + 1] = yi[0];
        s0 += p[0];
        s1 += dp[0];
        s2 += ddp[0];
        if (two) {
            a[i + 2] = xr[1], a[i + 3] = xi[1], b[i + 2] = yr[1], b[i + 3] = yi[1];
            s0 += p[1];
            s1 += dp[1];
            s2 += ddp[1];
        }
    }
    sum[0] = s0, sum[1] = s1, sum[2] = s2;
}

/* Map pair j of step k on its own, and add its terms to ``acc`` (s0 s1 s2 u0
 * u1 u2, see map_pairs): a scaled pair through a copy scaled up, whose terms
 * go to the scaled sums */
static void map_pair(double *a, double *b, const double *c, int64_t j, int64_t k, double *acc)
{
    const uint64_t any = pair_bits(a, b);
    if ((any << 1) == 0)  /* four +-0: the map gives zeros and the sums gain nothing */
        return;
    if (is_plain(any)) {
        map_lanes(a, b, c, 1, j, k, acc);
        return;
    }
    double up_a[2] = {scale_up(a[0]), scale_up(a[1])}, up_b[2] = {scale_up(b[0]), scale_up(b[1])};
    map_lanes(up_a, up_b, c, 1, j, k, acc + 3);
    a[0] = scale_down(up_a[0]);
    a[1] = scale_down(up_a[1]);
    b[0] = scale_down(up_b[0]);
    b[1] = scale_down(up_b[1]);
}

/* Map pairs [from, to) of step k.  Block site i after step k is displaced
 * 2i - k from the start site.  ``acc`` holds the step's running sums over the
 * plain pairs and, scaled by 2^1200, over the scaled ones (s0 s1 s2 u0 u1 u2);
 * these pairs' terms are added to it in the order of j.  The pairs go in
 * blocks of BLOCK from ``from``, the last block maybe short: a block of plain
 * pairs through map_lanes, any other block one pair at a time through
 * map_pair. */
static void map_pairs(double *flat, int64_t steps, const double *coin, int64_t k, int64_t from, int64_t to,
                      double *acc)
{
    /* the k occupied pairs: coin 0 from the last step's block, coin 1 in
     * place; after the map, pair j's coin 0 is at block site j + 1 and its
     * coin 1 at block site j */
    double *b0 = flat + 2 * (steps - k + 1), *b1 = flat + 2 * (steps + 1);
    double c[8]; /* a local copy, which no store to flat can alias */
    memcpy(c, coin, sizeof c);
    double s[6]; /* the running sums, in a local copy too */
    memcpy(s, acc, sizeof s);
    for (int64_t j = from; j < to; j += BLOCK) {
        const int n = to - j < BLOCK ? (int)(to - j) : BLOCK;
        double *a = b0 + 2 * j, *b = b1 + 2 * j;
        int plain = 1;
        for (int i = 0; i < 2 * n; i += 2)
            plain &= is_plain(pair_bits(a + i, b + i));
        if (plain)
            map_lanes(a, b, c, n, j, k, s);
        else
            for (int i = 0; i < n; i++)
                map_pair(a + 2 * i, b + 2 * i, c, j + i, k, s);
    }
    memcpy(acc, s, sizeof s);
}

/* column k of ``sums`` from the step's running sums */
static void store_sums(double *sums, int64_t steps, int64_t k, const double *acc)
{
    const int64_t width = steps + 1;
    sums[k] = acc[0] + acc[3] * DOWN * DOWN;
    sums[width + k] = acc[1] + acc[4] * DOWN * DOWN;
    sums[2 * width + k] = acc[2] + acc[5] * DOWN * DOWN;
}

/* the first stage's pairs of step k: half the pairs at the start of its window */
static int64_t split(int64_t k)
{
    return (k - (k - 1) % WINDOW) / 2;
}

struct stages {
    double *flat;
    int64_t steps;
    const double *coin;
    double *sums;
    double ring[WINDOW][6]; /* step k's first-stage sums, in row k % WINDOW */
    _Alignas(64) _Atomic int64_t published; /* the last step the first stage mapped */
    _Alignas(64) _Atomic int64_t done;      /* the last step the second stage mapped */
};

static void await_step(_Atomic int64_t *counter, int64_t k)
{
    for (int spins = 0; atomic_load_explicit(counter, memory_order_acquire) < k; spins++)
        if (spins >= SPINS)
            sched_yield();
}

static void *second_stage(void *arg)
{
    struct stages *st = arg;
    for (int64_t k = 1; k <= st->steps; k++) {
        await_step(&st->published, k);
        double *acc = st->ring[k % WINDOW];
        map_pairs(st->flat, st->steps, st->coin, k, split(k), k, acc);
        store_sums(st->sums, st->steps, k, acc);
        atomic_store_explicit(&st->done, k, memory_order_release);
    }
    return NULL;
}

/* the CPUs the calling thread may run on; 1 where that is unknown */
static int usable_cpus(void)
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
#endif
    return 1;
}

/* Start fn(arg) on a second thread with a stack of ``stack`` bytes, where the
 * calling thread may run on two CPUs or more; returns 1 where it started, and
 * 0 where the caller must do all the work. */
int coinwalk_start_second(pthread_t *thread, void *(*fn)(void *), void *arg, size_t stack)
{
    pthread_attr_t attr;
    if (usable_cpus() < 2 || pthread_attr_init(&attr) != 0)
        return 0;
    const int started = pthread_attr_setstacksize(&attr, stack) == 0 && pthread_create(thread, &attr, fn, arg) == 0;
    pthread_attr_destroy(&attr);
    return started;
}

/* both stages; 0 where the second thread did not start and nothing was mapped */
static int two_stages(double *flat, int64_t steps, const double *coin, double *sums)
{
    struct stages st = {.flat = flat, .steps = steps, .coin = coin, .sums = sums};
    atomic_init(&st.published, 0);
    atomic_init(&st.done, 0);
    pthread_t second;
    if (!coinwalk_start_second(&second, second_stage, &st, STACK_BYTES))
        return 0;
    for (int64_t k = 1; k <= steps; k++) {
        if ((k - 1) % WINDOW == 0)  /* the split moves: the second stage's pairs of step k - 1 are read */
            await_step(&st.done, k - 1);
        double *acc = st.ring[k % WINDOW];
        memset(acc, 0, sizeof st.ring[0]);
        map_pairs(flat, steps, coin, k, 0, split(k), acc);
        atomic_store_explicit(&st.published, k, memory_order_release);
    }
    pthread_join(second, NULL);
    return 1;
}

/* Walk ``steps`` steps; column 0 of ``sums`` is the caller's. */
void coinwalk_advance(double *flat, int64_t steps, const double *coin, double *sums)
{
    if (steps >= TWO_STAGE_STEPS && two_stages(flat, steps, coin, sums))
        return;
    for (int64_t k = 1; k <= steps; k++) {
        double acc[6] = {0.0};
        map_pairs(flat, steps, coin, k, 0, k, acc);
        store_sums(sums, steps, k, acc);
    }
}
