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
 * Two stages.  Pair j of step k reads only pairs j - 1 and j of step k - 1, so
 * a walk of at least TWO_STAGE_STEPS steps, where the calling thread may run
 * on two CPUs or more, is split in two: the caller maps pairs [0, m) of each
 * step and a second thread maps pairs [m, k).  While m holds, the first stage
 * never reads what the second writes, so it runs ahead; the second starts step
 * k once the first has published it, and takes over the first stage's running
 * sums of that step from a ring, so every sum is added in the order of j, as
 * the one-stage loop adds it.  m moves to half the pairs only at the start of
 * each WINDOW steps, where the first stage waits for the second to finish the
 * step before; so at most WINDOW steps' sums are in flight.  Both stages and
 * the one-stage loop run one routine, map_pairs, and every operation is the
 * same in the same order: the bytes written do not depend on the number of
 * stages, nor on the number of CPUs.  Waits spin, then yield the CPU.  The
 * second thread is started for each call, on a small stack, by
 * coinwalk_start_second, which starts the CSV formatter's (_csv.c) too, and
 * joined before the call returns; where it does not start the caller maps
 * every pair.
 *
 * Plain C11 with POSIX threads and no Python API: the caller owns and sizes
 * every buffer, and nothing is allocated here but the second thread.  Every
 * operation is a double one, on every platform.  Build without -ffast-math
 * and with -ffp-contract=off, so the arithmetic is the IEEE operations written
 * below, in the order written, and reruns are bit for bit the same.
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

/* Map pairs [from, to) of step k.  Block site i after step k is displaced
 * 2i - k from the start site.  ``acc`` holds the step's running sums over the
 * plain pairs and, scaled by 2^1200, over the scaled ones (s0 s1 s2 u0 u1 u2);
 * these pairs' terms are added to it in the order of j. */
static void map_pairs(double *flat, int64_t steps, const double *coin, int64_t k, int64_t from, int64_t to,
                      double *acc)
{
    /* the k occupied pairs: coin 0 from the last step's block, coin 1 in
     * place; after the map, pair j's coin 0 is at block site j + 1 and its
     * coin 1 at block site j */
    double *b0 = flat + 2 * (steps - k + 1), *b1 = flat + 2 * (steps + 1);
    double c[8]; /* a local copy, which no store to flat can alias */
    memcpy(c, coin, sizeof c);
    double s0 = acc[0], s1 = acc[1], s2 = acc[2], u0 = acc[3], u1 = acc[4], u2 = acc[5];
    for (int64_t j = from; j < to; j++) {
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
    acc[0] = s0, acc[1] = s1, acc[2] = s2;
    acc[3] = u0, acc[4] = u1, acc[5] = u2;
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
