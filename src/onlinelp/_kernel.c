/* The per-column loop of the explicit online pass (online._explicit_pass).
 *
 * Every value it stores is computed by the same IEEE operations, in the
 * same order, as the numpy expressions of the Python engine, so the two
 * agree bit for bit; build with -ffp-contract=off so that no multiply and
 * add are fused.  The one exception is the pricing dot product <a_j, y>,
 * whose summation order inside numpy's BLAS is not ours.  Its result only
 * decides c_j > <a_j, y>, so whenever c_j is within the worst-case gap of
 * two summation orders of the dot product, the kernel stops and hands the
 * step back; the caller decides with numpy and resumes with that decision.
 */
#include <math.h>
#include <stdint.h>

enum { DONE = 0, TIE = 1, ESCAPED = 2 };

/* np.maximum(v, 0.0), which maps -0.0 to +0.0 */
static double clamp(double v) { return v > 0.0 ? v : 0.0; }

/* Runs steps k0 .. T-1 of seq; `forced` (0 or 1, -1 for none) is the
 * decision of step k0.  Updates y_base, last, remaining (may be NULL),
 * x_sum and acc in place.  acc holds the dense pass's max norm in acc[0],
 * or the lazy pass's stale squared norm and its maximum in acc[0], acc[1].
 * Returns the step at which it stopped and sets *status. */
int64_t explicit_pass(int64_t m, const int64_t *col_ptr, const int64_t *row_idx,
                      const double *vals, const double *c, const double *step_d,
                      double gamma, const int64_t *seq, int64_t k0, int64_t T,
                      int forced, double *y_base, int64_t *last, double *remaining,
                      double *x_sum, int dense, double norm_bound, double *acc,
                      int *status)
{
    for (int64_t k = k0; k < T; k++, forced = -1) {
        int64_t j = seq[k], lo = col_ptr[j], hi = col_ptr[j + 1];
        if (dense) {
            double sq = 0.0;
            for (int64_t i = 0; i < m; i++) {
                double v = clamp(y_base[i] - (double)(k - last[i]) * step_d[i]);
                sq += v * v;
            }
            double norm = sqrt(sq);
            if (norm > acc[0]) acc[0] = norm;
            if (norm > norm_bound * (1.0 + 1e-9)) { *status = ESCAPED; return k; }
        }
        int x = forced;
        if (x < 0) {
            double dot = 0.0, mag = 0.0;
            for (int64_t p = lo; p < hi; p++) {
                int64_t r = row_idx[p];
                double t = vals[p] * clamp(y_base[r] - (double)(k - last[r]) * step_d[r]);
                dot += t;
                mag += fabs(t);
            }
            if (fabs(c[j] - dot) <= 4.0 * (double)(hi - lo + 1) * 0x1p-53 * mag) {
                *status = TIE;
                return k;
            }
            x = c[j] > dot;
        }
        for (int64_t p = lo; x && remaining && p < hi; p++)
            if (!(remaining[row_idx[p]] >= vals[p])) x = 0;
        double new_sq = 0.0, old_sq = 0.0;
        for (int64_t p = lo; p < hi; p++) {
            int64_t r = row_idx[p];
            double ym = clamp(y_base[r] - (double)(k - last[r]) * step_d[r]);
            double v = x ? clamp((ym + gamma * vals[p]) - step_d[r]) : clamp(ym - step_d[r]);
            if (x && remaining) remaining[r] -= vals[p];
            new_sq += v * v;
            old_sq += y_base[r] * y_base[r];
            y_base[r] = v;
            last[r] = k + 1;
        }
        if (x) x_sum[j] += 1.0;
        if (!dense) {
            acc[0] += new_sq - old_sq;
            if (acc[0] > acc[1]) acc[1] = acc[0];
        }
    }
    *status = DONE;
    return T;
}
