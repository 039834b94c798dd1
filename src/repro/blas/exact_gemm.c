/* Exact-order matrix multiply of the PE arrays (Sections 5.1 and 5.2).
 *
 * C[i][j] sums A[i][z] * B[z][j] over z < q in blocks of w z-steps:
 * each block is summed from +0.0 in z order, and the block sums are
 * folded into C in block order, each product and each add rounded once,
 * as the arrays' separate multipliers and adders do.  On the multi-FPGA
 * array w is the MM unit's block width m and the fold is its extra
 * adder; w <= 0 or w >= q is one block, the single-blade array.  The
 * first block sum is stored and each later one added, which equals a
 * fold from +0.0: a sum that starts from +0.0 is never -0.0.  A (p x q),
 * B (q x r) and C (p x r) are row-major float64; the caller checks the
 * shapes.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reassociated sum would move bits.
 *
 * Each 16-column panel of B is packed into a contiguous q x 16 buffer
 * that stays in cache while every row tile passes it.  A tile keeps
 * ROWS x 16 block sums in registers: 8 rows in 512-bit vectors where the
 * target has AVX-512, else 4 rows in 256-bit vectors (wider tiles spill
 * there).  Edge rows and columns run a scalar strip in the same order,
 * so the tile never changes a cell's bits.
 *
 * The panels are shared out among the caller's threads: each claims the
 * next unclaimed panel from one atomic counter, packs it into its own
 * buffer and computes those 16 columns of C.  A cell is still summed by
 * one thread in the order above, so the bits do not depend on the
 * thread count, and a thread on a busy core simply claims fewer panels.
 * Build with -pthread.
 */
#include <pthread.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#ifdef __AVX512F__
enum { VBYTES = 64, ROWS = 8 };
#else
enum { VBYTES = 32, ROWS = 4 };
#endif
enum { COLS = 16, WIDTH = VBYTES / 8, LANES = COLS / WIDTH };
/* At most this many threads share one call. */
enum { MAX_THREADS = 64 };

/* WIDTH doubles; aligned(8) lets a row of C load from any offset, and
 * may_alias lets a vec access read and write double arrays. */
typedef double vec __attribute__((vector_size(VBYTES), aligned(8),
                                  may_alias));

/* A ROWS x COLS tile of C from the rows of A at a (row stride q) and
 * the packed panel. */
static void tile(ptrdiff_t q, ptrdiff_t r, ptrdiff_t w,
                 const double *restrict a, const double *restrict panel,
                 double *restrict c)
{
    for (ptrdiff_t z0 = 0; z0 < q; z0 += w) {
        ptrdiff_t z1 = z0 + w < q ? z0 + w : q;
        vec s[ROWS][LANES];
        for (int u = 0; u < ROWS; u++)
            for (int v = 0; v < LANES; v++)
                s[u][v] = (vec){0.0};
        for (ptrdiff_t z = z0; z < z1; z++) {
            vec b[LANES];
            for (int v = 0; v < LANES; v++)
                b[v] = *(const vec *)(panel + z * COLS + v * WIDTH);
            for (int u = 0; u < ROWS; u++) {
                double x = a[u * q + z];
                for (int v = 0; v < LANES; v++)
                    s[u][v] = s[u][v] + x * b[v];
            }
        }
        for (int u = 0; u < ROWS; u++)
            for (int v = 0; v < LANES; v++) {
                vec *out = (vec *)(c + u * r + v * WIDTH);
                if (z0 == 0)
                    *out = s[u][v];
                else
                    *out = *out + s[u][v];
            }
    }
}

/* The first n cells of one row of C from its row of A and the packed
 * panel, in the tile's order. */
static void strip(ptrdiff_t q, ptrdiff_t w, ptrdiff_t n,
                  const double *restrict a, const double *restrict panel,
                  double *restrict c)
{
    for (ptrdiff_t z0 = 0; z0 < q; z0 += w) {
        ptrdiff_t z1 = z0 + w < q ? z0 + w : q;
        double s[COLS];
        for (ptrdiff_t j = 0; j < n; j++)
            s[j] = 0.0;
        for (ptrdiff_t z = z0; z < z1; z++)
            for (ptrdiff_t j = 0; j < n; j++)
                s[j] = s[j] + a[z] * panel[z * COLS + j];
        for (ptrdiff_t j = 0; j < n; j++)
            c[j] = z0 == 0 ? s[j] : c[j] + s[j];
    }
}

/* One call's operands and the first column of its next unclaimed
 * panel. */
struct job {
    ptrdiff_t p, q, r, w;
    const double *A, *B;
    double *C;
    ptrdiff_t next;
};

/* Claims panels until none is left, packing each into panel. */
static void work(struct job *job, double *restrict panel)
{
    ptrdiff_t p = job->p, q = job->q, r = job->r, w = job->w;
    const double *restrict A = job->A, *restrict B = job->B;
    double *restrict C = job->C;
    for (;;) {
        ptrdiff_t j = __atomic_fetch_add(&job->next, COLS, __ATOMIC_RELAXED);
        if (j >= r)
            break;
        ptrdiff_t n = r - j < COLS ? r - j : COLS;
        for (ptrdiff_t z = 0; z < q; z++)
            memcpy(panel + z * COLS, B + z * r + j, (size_t)n * sizeof *B);
        ptrdiff_t i = 0;
        if (n == COLS)
            for (; i + ROWS <= p; i += ROWS)
                tile(q, r, w, A + i * q, panel, C + i * r + j);
        for (; i < p; i++)
            strip(q, w, n, A + i * q, panel, C + i * r + j);
    }
}

/* A helper thread and the panel buffer its caller allocated.  A helper
 * that called malloc itself would get a glibc arena of its own, which
 * raised the gang_scaleout benchmark's peak RSS by 19 MB (3%). */
struct helper {
    pthread_t thread;
    struct job *job;
    double *panel;
};

static void *help(void *arg)
{
    struct helper *h = arg;
    work(h->job, h->panel);
    return NULL;
}

/* C = A * B on the calling thread and up to threads - 1 helpers (at
 * most MAX_THREADS in all).  A helper whose buffer cannot be allocated
 * or that cannot start is not used, and the others compute its share.
 * Returns 0, or -1 when the calling thread's own buffer cannot be
 * allocated. */
int gemm(ptrdiff_t p, ptrdiff_t q, ptrdiff_t r, ptrdiff_t w,
         ptrdiff_t threads, const double *restrict A,
         const double *restrict B, double *restrict C)
{
    if (q == 0) {
        memset(C, 0, (size_t)(p * r) * sizeof *C);
        return 0;
    }
    if (w <= 0 || w > q)
        w = q;
    struct job job = {p, q, r, w, A, B, C, 0};
    size_t bytes = (size_t)q * COLS * sizeof *C;
    double *panel = aligned_alloc(64, bytes);
    if (panel == NULL)
        return -1;
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    struct helper helpers[MAX_THREADS - 1];
    ptrdiff_t started = 0;
    for (; started < threads - 1; started++) {
        struct helper *h = &helpers[started];
        h->job = &job;
        h->panel = aligned_alloc(64, bytes);
        if (h->panel == NULL)
            break;
        if (pthread_create(&h->thread, NULL, help, h) != 0) {
            free(h->panel);
            break;
        }
    }
    work(&job, panel);
    while (started > 0) {
        struct helper *h = &helpers[--started];
        pthread_join(h->thread, NULL);
        free(h->panel);
    }
    free(panel);
    return 0;
}
