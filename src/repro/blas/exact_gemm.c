/* Exact-order matrix multiply of the single-blade PE array (Section 5.1).
 *
 * C[i][j] is the sum over z < q of A[i][z] * B[z][j], summed from +0.0
 * in z order with each product and each add rounded once, as a PE's
 * separate multiplier and adder do.  A (p x q), B (q x r) and C (p x r)
 * are row-major float64; the caller checks the shapes.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reassociated sum would move bits.
 *
 * A tile of 4 rows x 16 columns keeps its sums in registers: each z
 * loads the 16 B values of row z once and broadcasts each A element.
 * Edge rows and columns run a scalar loop in the same order.
 */
#include <stddef.h>

/* Four doubles; aligned(8) lets a row of B or C load from any offset,
 * and may_alias lets a v4 access read and write double arrays. */
typedef double v4 __attribute__((vector_size(32), aligned(8), may_alias));

enum { ROWS = 4, COLS = 16, LANES = COLS / 4 };

/* c[j] = sum of a[z] * b[z * r + j] for j < w, from +0.0 in z order. */
static void strip(ptrdiff_t q, ptrdiff_t r, ptrdiff_t w,
                  const double *restrict a, const double *restrict b,
                  double *restrict c)
{
    for (ptrdiff_t j = 0; j < w; j++)
        c[j] = 0.0;
    for (ptrdiff_t z = 0; z < q; z++)
        for (ptrdiff_t j = 0; j < w; j++)
            c[j] = c[j] + a[z] * b[z * r + j];
}

void gemm(ptrdiff_t p, ptrdiff_t q, ptrdiff_t r, const double *restrict A,
          const double *restrict B, double *restrict C)
{
    ptrdiff_t i = 0;
    for (; i + ROWS <= p; i += ROWS) {
        ptrdiff_t j = 0;
        for (; j + COLS <= r; j += COLS) {
            v4 s[ROWS][LANES];
            for (int u = 0; u < ROWS; u++)
                for (int v = 0; v < LANES; v++)
                    s[u][v] = (v4){0.0, 0.0, 0.0, 0.0};
            for (ptrdiff_t z = 0; z < q; z++) {
                v4 b[LANES];
                for (int v = 0; v < LANES; v++)
                    b[v] = *(const v4 *)(B + z * r + j + 4 * v);
                for (int u = 0; u < ROWS; u++) {
                    double a = A[(i + u) * q + z];
                    for (int v = 0; v < LANES; v++)
                        s[u][v] = s[u][v] + a * b[v];
                }
            }
            for (int u = 0; u < ROWS; u++)
                for (int v = 0; v < LANES; v++)
                    *(v4 *)(C + (i + u) * r + j + 4 * v) = s[u][v];
        }
        for (int u = 0; u < ROWS; u++)
            strip(q, r, r - j, A + (i + u) * q, B + j, C + (i + u) * r + j);
    }
    for (; i < p; i++)
        strip(q, r, r, A + i * q, B, C + i * r);
}
