/* Compiled MLP^T SGD kernel: the inner loop of CompiledBackend.mlp_sgd.
 *
 * Network-major: each network runs all of its epochs * count steps before
 * the next one starts, so one network's whole state stays in L1 cache.
 * Every element follows the operation order of NumpyBackend's loop; only
 * the dot-product summation order (plain sequential here, BLAS there) and
 * the exp implementation differ.  Build with -ffp-contract=off and never
 * with -ffast-math, or the arithmetic stops following that order.
 *
 * The caller validates every shape and index, and passes C-contiguous
 * float64 arrays (int64 for orders, counts and columns), zeroed velocity
 * buffers and a scratch buffer of 2 * n_hidden doubles.  Nothing is
 * allocated and no global state is kept, so concurrent calls are safe.
 */
#include <math.h>
#include <stdint.h>

static inline __attribute__((always_inline)) void train(
    int64_t n_networks, int64_t F, const int64_t H, int64_t n_epochs, int64_t max_samples,
    int64_t n_orders, const double *restrict x, const double *restrict y,
    double *restrict w_h, double *restrict b_h, double *restrict w_o, double *restrict b_o,
    double *restrict v_w_h, double *restrict v_b_h, double *restrict v_w_o,
    double *restrict v_b_o, const int64_t *restrict orders, const int64_t *restrict counts,
    const int64_t *restrict columns, double lr, double momentum, double clip,
    double *restrict scratch)
{
    double *restrict act = scratch, *restrict delta = scratch + H;
    for (int64_t n = 0; n < n_networks; n++) {
        const double *xn = x + n * max_samples * F, *yn = y + n * max_samples;
        double *restrict wh = w_h + n * F * H, *restrict bh = b_h + n * H, *restrict wo = w_o + n * H;
        double *restrict vwh = v_w_h + n * F * H, *restrict vbh = v_b_h + n * H;
        double *restrict vwo = v_w_o + n * H;
        /* Step s visits sample orders[s / count, s % count, columns[n]]. */
        const int64_t count = counts[n], steps = n_epochs * count, *order = orders + columns[n];
        int64_t sample = steps ? order[0] : 0;
        for (int64_t j = 0; j < H; j++)
            act[j] = 0.0;
        for (int64_t f = 0; f < F; f++)
            for (int64_t j = 0; j < H; j++)
                act[j] += xn[sample * F + f] * wh[f * H + j];
        for (int64_t s = 1, k = 1 % count, epoch = 1 / count; s <= steps; s++) {
            const double *xi = xn + sample * F;
            const int64_t next = s < steps ? order[(epoch * max_samples + k) * n_orders] : sample;
            const double *xnext = xn + next * F;
            if (++k == count) { k = 0; epoch++; }
            double out = 0.0;
            for (int64_t j = 0; j < H; j++) {
                double a = act[j] + bh[j];
                if (a < -60.0) a = -60.0;  /* NaN passes through, as in np.maximum */
                if (a > 60.0) a = 60.0;
                act[j] = a = 1.0 / (exp(-a) + 1.0);
                out += a * wo[j];
            }
            double err = out + b_o[n] - yn[sample];
            if (err < -clip) err = -clip;
            if (err > clip) err = clip;
            for (int64_t j = 0; j < H; j++) {
                delta[j] = err * wo[j] * act[j] * (1.0 - act[j]);
                vwo[j] = vwo[j] * momentum - err * act[j] * lr;
                vbh[j] = vbh[j] * momentum - delta[j] * lr;
                wo[j] += vwo[j];
                bh[j] += vbh[j];
                act[j] = 0.0;
            }
            v_b_o[n] = v_b_o[n] * momentum - err * lr;
            b_o[n] += v_b_o[n];
            /* Update the hidden weights and run the next step's forward
             * product over them in the same pass. */
            for (int64_t f = 0; f < F; f++)
                for (int64_t j = 0; j < H; j++) {
                    vwh[f * H + j] = vwh[f * H + j] * momentum - xi[f] * delta[j] * lr;
                    wh[f * H + j] += vwh[f * H + j];
                    act[j] += xnext[f] * wh[f * H + j];
                }
            sample = next;
        }
    }
}

void mlp_sgd(int64_t n_networks, int64_t n_features, int64_t n_hidden, int64_t n_epochs,
             int64_t max_samples, int64_t n_orders, const double *x, const double *y,
             double *w_h, double *b_h, double *w_o, double *b_o, double *v_w_h, double *v_b_h,
             double *v_w_o, double *v_b_o, const int64_t *orders, const int64_t *counts,
             const int64_t *columns, double lr, double momentum, double clip, double *scratch)
{
#define TRAIN(H) train(n_networks, n_features, H, n_epochs, max_samples, n_orders, x, y, w_h, \
                       b_h, w_o, b_o, v_w_h, v_b_h, v_w_o, v_b_o, orders, counts, columns, lr, \
                       momentum, clip, scratch)
    /* The study's networks have 28 features and so 14 hidden units; a
     * constant width lets the compiler unroll the hidden-unit loops
     * (about 1.5x faster than the generic loop, same bits). */
    if (n_hidden == 14)
        TRAIN(14);
    else
        TRAIN(n_hidden);
}
