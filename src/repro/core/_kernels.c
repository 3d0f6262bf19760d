/* Compiled kernels of CompiledBackend: the MLP^T SGD loop (mlp_sgd) and the
 * GA-kNN leave-one-out fitness pass (gaknn_fitness).
 *
 * Both follow the operation order of NumpyBackend's kernels element by
 * element.  Build with -ffp-contract=off and never with -ffast-math, or the
 * arithmetic stops following that order.  The caller validates every shape
 * and index and passes C-contiguous float64 arrays (int64 for indices).
 * No global state is kept, so concurrent calls are safe.
 *
 * mlp_sgd.  Network-major: each network runs all of its epochs * count
 * steps before the next one starts, so one network's whole state stays in
 * L1 cache.  Only the dot-product summation order (plain sequential here,
 * BLAS there) and the exp implementation differ from NumPy, so trained
 * weights agree within a tolerance.  The caller passes zeroed velocity
 * buffers and a scratch buffer of 2 * n_hidden doubles.
 *
 * gaknn_fitness.  Bit-identical to NumPy: eight rows (left-out benchmarks)
 * are evaluated at once, one per vector lane, so the stable k-smallest
 * selection runs branch-free across lanes.  Sums that NumPy reduces
 * pairwise are reduced with NumPy's pairwise order (valid up to 128 terms).
 */
#include <math.h>
#include <stdint.h>

/* ------------------------------------------------------------------ mlp_sgd */

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

/* ------------------------------------------------------------ gaknn_fitness */
#define LANES 8
/* Largest benchmark, target and neighbour count: NumPy's pairwise sum is a
 * plain 8-accumulator loop up to 128 terms and recurses beyond. */
#define MAX_EXTENT 128

typedef double lanes_d __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t lanes_i __attribute__((vector_size(LANES * sizeof(int64_t))));

static inline lanes_d select_lanes(lanes_i mask, lanes_d yes, lanes_d no)
{
    return (lanes_d)(((lanes_i)yes & mask) | ((lanes_i)no & ~mask));
}

/* NumPy's pairwise sum of a[0..n), n <= 128 (numpy add.reduce along a
 * contiguous axis). */
static inline double pairwise_sum(const double *a, int64_t n)
{
    double res = 0.0;
    if (n < 8) {
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    double r[8];
    for (int q = 0; q < 8; q++)
        r[q] = a[q];
    int64_t i = 8;
    for (; i < n - n % 8; i += 8)
        for (int q = 0; q < 8; q++)
            r[q] += a[i + q];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* pairwise_sum lane by lane. */
static inline lanes_d pairwise_sum_lanes(const lanes_d *a, int64_t n)
{
    lanes_d res = {0};
    if (n < 8) {
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    lanes_d r[8];
    for (int q = 0; q < 8; q++)
        r[q] = a[q];
    int64_t i = 8;
    for (; i < n - n % 8; i += 8)
        for (int q = 0; q < 8; q++)
            r[q] += a[i + q];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += a[i];
    return res;
}

/* Leave-one-out k-NN error of every (cell, genome): fitness[c, p].
 *
 * genomes is (cells, pop, genes), pairwise (cells, genes, B, B), scores
 * (cells, B, targets); 2 <= B <= 128, 1 <= targets <= 128, 1 <= k < B.
 * scratch holds (genes + 1) * B * padded + LANES doubles, padded being B
 * rounded up to a multiple of LANES.  Returns 0, or 1 without a full result
 * when a distance is NaN or a row has fewer than k finite neighbours (the
 * caller then runs the NumPy kernel, which defines those cases).
 */
int gaknn_fitness(int64_t n_cells, int64_t n_pop, int64_t n_genes, int64_t B, int64_t T,
                  int64_t k, const double *genomes, const double *pairwise,
                  const double *scores, double *fitness, double *scratch)
{
    const int64_t padded = (B + LANES - 1) / LANES * LANES, vectors = B * padded / LANES;
    /* columns[g][j][i] = pairwise[c][g][i][j], lanes past B zero; then the
     * (B, padded) distance plane: dist[j][i] is row i's distance to j. */
    lanes_d *columns = (lanes_d *)(((uintptr_t)scratch + sizeof(lanes_d) - 1)
                                   & ~(uintptr_t)(sizeof(lanes_d) - 1));
    lanes_d *dist = columns + n_genes * vectors;
    double *dist_flat = (double *)dist, row_error[MAX_EXTENT];
    lanes_d top[MAX_EXTENT], inverse[MAX_EXTENT], error[MAX_EXTENT];
    lanes_i index[MAX_EXTENT];
    const lanes_i lane = {0, 1, 2, 3, 4, 5, 6, 7}, none = lane * 0 - 1;
    const lanes_d infinity = (lanes_d){0} + INFINITY;

    for (int64_t c = 0; c < n_cells; c++) {
        const double *pw = pairwise + c * n_genes * B * B, *sc = scores + c * B * T;
        for (int64_t g = 0; g < n_genes; g++)
            for (int64_t j = 0; j < B; j++) {
                double *column = (double *)columns + (g * B + j) * padded;
                for (int64_t i = 0; i < B; i++)
                    column[i] = pw[(g * B + i) * B + j];
                for (int64_t i = B; i < padded; i++)
                    column[i] = 0.0;
            }
        for (int64_t p = 0; p < n_pop; p++) {
            const double *genome = genomes + (c * n_pop + p) * n_genes;
            /* Weighted distances, accumulated gene by gene in index order. */
            lanes_i nan = lane * 0;
            for (int64_t x = 0; x < vectors; x++) {
                lanes_d d = genome[0] * columns[x];
                for (int64_t g = 1; g < n_genes; g++)
                    d += genome[g] * columns[g * vectors + x];
                for (int l = 0; l < LANES; l++)
                    d[l] = sqrt(d[l]);
                nan |= d != d;
                dist[x] = d;
            }
            for (int l = 0; l < LANES; l++)
                if (nan[l])
                    return 1;
            /* A benchmark is never its own neighbour. */
            for (int64_t i = 0; i < B; i++)
                dist_flat[i * padded + i] = INFINITY;

            for (int64_t first = 0; first < B; first += LANES) {
                const int64_t rows = B - first < LANES ? B - first : LANES;
                const lanes_d *candidates = dist + first / LANES;
                /* Stable k-smallest selection: insert each candidate into the
                 * sorted list after every equal distance already kept, so
                 * ties keep the lowest index, as NumPy's mergesort does. */
                for (int64_t m = 0; m < k; m++) {
                    top[m] = infinity;
                    index[m] = none;
                }
                for (int64_t j = 0; j < B; j++) {
                    const lanes_d d = candidates[j * padded / LANES];
                    const lanes_i jj = lane * 0 + j;
                    lanes_i shift = top[k - 1] > d;
                    for (int64_t m = k - 1; m > 0; m--) {
                        const lanes_i shift_prev = top[m - 1] > d;
                        const lanes_d moved = select_lanes(shift_prev, top[m - 1], d);
                        top[m] = select_lanes(shift, moved, top[m]);
                        index[m] = (shift & ((shift_prev & index[m - 1]) | (~shift_prev & jj)))
                                   | (~shift & index[m]);
                        shift = shift_prev;
                    }
                    top[0] = select_lanes(shift, d, top[0]);
                    index[0] = (shift & jj) | (~shift & index[0]);
                }
                int zero = 0;
                for (int l = 0; l < rows; l++) {
                    if (index[k - 1][l] < 0)
                        return 1;
                    zero |= top[0][l] == 0.0;
                }

                /* Distance-weighted prediction, neighbours summed in order. */
                for (int64_t m = 0; m < k; m++) {
                    inverse[m] = 1.0 / top[m];
                    index[m] *= T;
                }
                const lanes_d total = pairwise_sum_lanes(inverse, k);
                for (int64_t t = 0; t < T; t++) {
                    lanes_d predicted, gathered, own;
                    for (int l = 0; l < LANES; l++)
                        predicted[l] = sc[index[0][l] + t];
                    predicted *= inverse[0];
                    for (int64_t m = 1; m < k; m++) {
                        for (int l = 0; l < LANES; l++)
                            gathered[l] = sc[index[m][l] + t];
                        predicted += gathered * inverse[m];
                    }
                    predicted /= total;
                    /* A zero distance (duplicate features) predicts the mean
                     * score of the exact matches instead. */
                    for (int l = 0; zero && l < rows; l++) {
                        if (top[0][l] != 0.0)
                            continue;
                        double exact[MAX_EXTENT], sum = 0.0;
                        int64_t matches = 0;
                        for (; matches < k && top[matches][l] == 0.0; matches++)
                            exact[matches] = sc[index[matches][l] + t];
                        if (T == 1) /* an (matches, 1) block: reduced as a contiguous run */
                            sum = pairwise_sum(exact, matches);
                        else
                            for (int64_t m = 0; m < matches; m++)
                                sum += exact[m];
                        predicted[l] = sum / (double)matches;
                    }
                    for (int l = 0; l < LANES; l++)
                        own[l] = sc[(first + (l < rows ? l : 0)) * T + t];
                    predicted -= own;
                    for (int l = 0; l < LANES; l++)
                        predicted[l] = fabs(predicted[l]);
                    error[t] = predicted / own;
                }
                const lanes_d mean = pairwise_sum_lanes(error, T) / (double)T;
                for (int l = 0; l < rows; l++)
                    row_error[first + l] = mean[l];
            }
            fitness[c * n_pop + p] = pairwise_sum(row_error, B) / (double)B;
        }
    }
    return 0;
}
