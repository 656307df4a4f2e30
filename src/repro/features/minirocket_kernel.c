/* Compiled MiniRocket transform kernel.
 *
 * One pass per (instance, channel, dilation): build the nine dilated,
 * zero-padded shifts of the series in L1 cache, form each kernel's
 * convolution from the shared c_alpha row, and pool the PPV counts
 * while the convolution row is still cache-hot.  No large
 * intermediates ever touch main memory, which is what makes this path
 * several times faster than the NumPy engine.
 *
 * Two structural optimizations on top of that, both value-preserving:
 *
 *   - The 84 kernels are enumerated as nested (a < b < c) loops so the
 *     shared pair sum (s_a + s_b) is computed once per (a, b) pair —
 *     36 row additions instead of 84 — with the association
 *     (s_a + s_b) + s_c unchanged.
 *   - Dilations with a single bias per kernel (the common case at the
 *     paper's feature budget) fuse the convolution and the PPV count
 *     into one pass, never materializing the conv row.
 *
 * Floating-point arithmetic deliberately mirrors the NumPy reference
 * loop operation for operation:
 *
 *   c_alpha = -(((s0 + s1) + s2) + ... + s8)     (sequential)
 *   conv    = c_alpha + 3.0 * ((sa + sb) + sc)
 *   feature = count(conv > bias) / pool_length   (double division)
 *
 * Build with -ffp-contract=off and WITHOUT -ffast-math (see
 * _ckernel.py); under those flags the output is bit-identical to the
 * reference implementation, and the parity tests assert exactly that.
 */

#include <stdint.h>
#include <string.h>

#define KLEN 9
#define NK 84
#define MAX_LEN 4096

/* Returns 0 on success, 1 when the series is too long for the
 * stack-allocated work buffers (the caller falls back to NumPy).
 * Every instance reads the one shared bias table. */
int mr_transform(
    const double *x,          /* (n, channels, length), C-order */
    int64_t n, int64_t channels, int64_t length,
    const int64_t *dilations, /* (ndil,) */
    const int64_t *nfeat,     /* (ndil,) features per kernel per dilation */
    int64_t ndil,
    const double *biases,     /* concat over (ch, dil) of (84, nf) rows */
    double *out,              /* (n, total_features), C-order */
    int64_t total_features)
{
    double s[KLEN][MAX_LEN];
    double c_alpha[MAX_LEN];
    double pair[MAX_LEN];
    double conv[MAX_LEN];
    const int64_t L = length;

    if (L > MAX_LEN)
        return 1;

    int64_t per_channel_biases = 0;
    for (int64_t di = 0; di < ndil; ++di)
        per_channel_biases += NK * nfeat[di];

    for (int64_t inst = 0; inst < n; ++inst) {
        double *orow = out + inst * total_features;
        int64_t col = 0;
        for (int64_t ch = 0; ch < channels; ++ch) {
            const double *xr = x + (inst * channels + ch) * L;
            const double *bp = biases + ch * per_channel_biases;

            for (int64_t di = 0; di < ndil; ++di) {
                const int64_t d = dilations[di];
                const int64_t nf = nfeat[di];
                const int64_t pad = (KLEN / 2) * d;

                /* nine shifted, zero-padded copies of the series */
                for (int j = 0; j < KLEN; ++j) {
                    const int64_t off = (j - KLEN / 2) * d;
                    if (off == 0) {
                        memcpy(s[j], xr, (size_t)L * sizeof(double));
                    } else if (off > 0) {
                        const int64_t m = L - off > 0 ? L - off : 0;
                        for (int64_t i = 0; i < m; ++i)
                            s[j][i] = xr[i + off];
                        for (int64_t i = m; i < L; ++i)
                            s[j][i] = 0.0;
                    } else {
                        const int64_t m = L + off > 0 ? L + off : 0;
                        for (int64_t i = 0; i < -off && i < L; ++i)
                            s[j][i] = 0.0;
                        for (int64_t i = 0; i < m; ++i)
                            s[j][i - off] = xr[i];
                    }
                }
                for (int64_t i = 0; i < L; ++i) {
                    double acc = s[0][i];
                    for (int j = 1; j < KLEN; ++j)
                        acc += s[j][i];
                    c_alpha[i] = -acc;
                }
                const int64_t vlo = (L > 2 * pad) ? pad : 0;
                const int64_t vhi = (L > 2 * pad) ? L - pad : L;
                const double div_full = (double)L;
                const double div_valid = (double)(vhi - vlo);

                /* Triples in the same lexicographic (a < b < c) order
                 * the kernel table used; k is the running kernel
                 * index.  The shared (s_a + s_b) sum is hoisted out of
                 * the c loop — association (s_a + s_b) + s_c is
                 * unchanged, so conv values are bit-identical. */
                int k = 0;
                for (int a = 0; a < KLEN; ++a) {
                    for (int b = a + 1; b < KLEN; ++b) {
                        const double *sa = s[a];
                        const double *sb = s[b];
                        for (int64_t i = 0; i < L; ++i)
                            pair[i] = sa[i] + sb[i];
                        for (int c = b + 1; c < KLEN; ++c, ++k) {
                            const double *sc = s[c];
                            const double *bk = bp + (int64_t)k * nf;
                            if (nf == 1) {
                                /* One bias per kernel: fuse conv and
                                 * count in a single pass, no conv row
                                 * store.  Integer counts are
                                 * order-free, so this is exact. */
                                const double bv = bk[0];
                                int64_t cnt = 0;
                                if ((k & 1) == 0) { /* padded: full */
                                    for (int64_t i = 0; i < L; ++i)
                                        cnt += c_alpha[i]
                                            + 3.0 * (pair[i] + sc[i]) > bv;
                                    orow[col + k] = (double)cnt / div_full;
                                } else {            /* valid region */
                                    for (int64_t i = vlo; i < vhi; ++i)
                                        cnt += c_alpha[i]
                                            + 3.0 * (pair[i] + sc[i]) > bv;
                                    orow[col + k] = (double)cnt / div_valid;
                                }
                                continue;
                            }
                            for (int64_t i = 0; i < L; ++i)
                                conv[i] = c_alpha[i]
                                    + 3.0 * (pair[i] + sc[i]);
                            for (int64_t f = 0; f < nf; ++f) {
                                const double bv = bk[f];
                                int64_t cnt = 0;
                                if (((k + f) & 1) == 0) { /* full */
                                    for (int64_t i = 0; i < L; ++i)
                                        cnt += conv[i] > bv;
                                    orow[col + (int64_t)k * nf + f] =
                                        (double)cnt / div_full;
                                } else {                  /* valid */
                                    for (int64_t i = vlo; i < vhi; ++i)
                                        cnt += conv[i] > bv;
                                    orow[col + (int64_t)k * nf + f] =
                                        (double)cnt / div_valid;
                                }
                            }
                        }
                    }
                }
                col += NK * nf;
                bp += NK * nf;
            }
        }
    }
    return 0;
}
