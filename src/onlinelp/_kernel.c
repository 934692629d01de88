/* The two compiled loops of onlinelp: the per-column loop of the explicit
 * online pass (online._explicit_pass) and the pivot loop of the simplex
 * (simplex._pivot_loop), built and loaded together by _kernel.py.
 *
 * Both repeat their numpy references bit for bit, under the one contract
 * stated in _kernel.py: the same IEEE operations in the same order, with
 * every sum added term by term in the order the reference fixes.  Build
 * with -ffp-contract=off so that no multiply and add are fused.
 */
#include <math.h>
#include <stdint.h>

/* np.maximum(v, 0.0), which maps -0.0 to +0.0 */
static double clamp(double v) { return v > 0.0 ? v : 0.0; }

/* Runs steps 0 .. T-1 of seq.  Updates y_base, last, remaining (may be
 * NULL), x_sum and acc in place.  acc holds the dense pass's max norm in
 * acc[0], or the lazy pass's stale squared norm and its maximum in acc[0],
 * acc[1].  Returns T, or the step whose dual norm escaped norm_bound; that
 * norm is then the new maximum in acc[0]. */
int64_t explicit_pass(int64_t m, const int64_t *col_ptr, const int64_t *row_idx,
                      const double *vals, const double *c, const double *step_d,
                      double gamma, const int64_t *seq, int64_t T, double *y_base,
                      int64_t *last, double *remaining, double *x_sum, int dense,
                      double norm_bound, double *acc)
{
    for (int64_t k = 0; k < T; k++) {
        int64_t j = seq[k], lo = col_ptr[j], hi = col_ptr[j + 1];
        if (dense) {
            double sq = 0.0;
            for (int64_t i = 0; i < m; i++) {
                double v = clamp(y_base[i] - (double)(k - last[i]) * step_d[i]);
                sq += v * v;
            }
            double norm = sqrt(sq);
            if (norm > acc[0]) acc[0] = norm;
            if (norm > norm_bound * (1.0 + 1e-9)) return k;
        }
        double dot = 0.0;
        for (int64_t p = lo; p < hi; p++) {
            int64_t r = row_idx[p];
            dot += vals[p] * clamp(y_base[r] - (double)(k - last[r]) * step_d[r]);
        }
        int x = c[j] > dot;
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
    return T;
}


/* The pivot loop of the bounded primal simplex (simplex._python_pivots).
 *
 * btran and ftran add their terms in basis or nonzero order, starting from
 * the first term; pricing adds each column's terms in stored order,
 * starting from 0.0; the ratio test and the rank-1 update are elementwise.
 * The basis inverse is dense and row-major.
 */

enum { OPTIMAL = 0, UNBOUNDED = 1, LIMIT = 2, REFACTOR = 3 };
enum { ITERS = 0, STALL = 1, BLAND = 2, UPDATES = 3 };

typedef struct {
    int64_t m, n;
    const int64_t *col_ptr, *row_idx, *art_rows;
    const double *vals;
} Columns;

/* The nonzeros of column j of [A I -E]; slack and artificial columns have
 * one, written to *row1 and *val1. */
static int64_t column(const Columns *a, int64_t j, const int64_t **rows,
                      const double **vals, int64_t *row1, double *val1)
{
    if (j < a->n) {
        *rows = a->row_idx + a->col_ptr[j];
        *vals = a->vals + a->col_ptr[j];
        return a->col_ptr[j + 1] - a->col_ptr[j];
    }
    if (j < a->n + a->m) {
        *row1 = j - a->n;
        *val1 = 1.0;
    } else {
        *row1 = a->art_rows[j - a->n - a->m];
        *val1 = -1.0;
    }
    *rows = row1;
    *vals = val1;
    return 1;
}

/* Pivots until the basis is optimal (OPTIMAL), a ray is found (UNBOUNDED),
 * state[ITERS] reaches `limit` (LIMIT), or the basis inverse is due for a
 * refactorization (REFACTOR, after the pivot that made it due).  Updates
 * status, basis, binv, x_b and state = {iterations, stall count, Bland
 * flag, rank-1 updates} in place; `work` holds 4 m doubles of scratch. */
int simplex_pivots(int64_t m, int64_t n, int64_t n_art, const int64_t *col_ptr,
                   const int64_t *row_idx, const double *vals, const int64_t *art_rows,
                   const double *cost, const unsigned char *allow, const double *upper,
                   int8_t *status, int64_t *basis, double *binv, double *x_b,
                   double *work, int64_t limit, int64_t *state, double opt_tol,
                   double pivot_tol, int64_t refactor_period, int64_t stall_window)
{
    const Columns a = {m, n, col_ptr, row_idx, art_rows, vals};
    const int64_t n_total = n + m + n_art;
    double *y = work, *w = work + m, *row = work + 2 * m, *cand = work + 3 * m;

    for (;;) {
        if (state[ITERS] >= limit) return LIMIT;

        /* btran: y = c_B B^-1 over the basis positions with nonzero cost */
        int started = 0;
        for (int64_t k = 0; k < m; k++) {
            double ck = cost[basis[k]];
            if (ck == 0.0) continue;
            const double *bk = binv + k * m;
            if (started)
                for (int64_t i = 0; i < m; i++) y[i] += ck * bk[i];
            else
                for (int64_t i = 0; i < m; i++) y[i] = ck * bk[i];
            started = 1;
        }
        if (!started)
            for (int64_t i = 0; i < m; i++) y[i] = 0.0;

        /* pricing: Dantzig (first largest |z|), or Bland (first eligible) */
        int64_t q = -1;
        double best = 0.0, zq = 0.0;
        for (int64_t j = 0; j < n_total; j++) {
            int s = status[j];
            if (s == 2 || !allow[j] || !(upper[j] > 0.0)) continue;
            double z;
            if (j < n) {
                double dot = 0.0;
                for (int64_t p = col_ptr[j]; p < col_ptr[j + 1]; p++)
                    dot += vals[p] * y[row_idx[p]];
                z = cost[j] - dot;
            } else if (j < n + m) {
                z = cost[j] - y[j - n];
            } else {
                z = cost[j] + y[art_rows[j - n - m]];
            }
            if (!(s == 0 ? z > opt_tol : z < -opt_tol)) continue;
            if (state[BLAND]) { q = j; zq = z; break; }
            if (fabs(z) > best) { best = fabs(z); q = j; zq = z; }
        }
        if (q < 0) return OPTIMAL;

        /* ftran of the entering column */
        int from_lower = status[q] == 0;
        double sign = from_lower ? 1.0 : -1.0;
        const int64_t *rows;
        const double *cv;
        int64_t row1;
        double val1;
        int64_t nnz = column(&a, q, &rows, &cv, &row1, &val1);
        for (int64_t i = 0; i < m; i++) {
            const double *bi = binv + i * m;
            double acc = nnz ? cv[0] * bi[rows[0]] : 0.0;
            for (int64_t p = 1; p < nnz; p++) acc += cv[p] * bi[rows[p]];
            w[i] = acc;
        }

        /* ratio test: x_b moves by -sign t w as the entering value moves t */
        int64_t leave = -1;
        double t_min = INFINITY;
        for (int64_t i = 0; i < m; i++) {
            double rate = sign * w[i], ub = upper[basis[i]], c = INFINITY;
            if (rate > pivot_tol) c = x_b[i] / rate;
            else if (rate < -pivot_tol && isfinite(ub)) c = (ub - x_b[i]) / -rate;
            if (c < 0.0) c = 0.0;   /* fp dust on degenerate rows */
            cand[i] = c;
            if (c < t_min) { t_min = c; leave = i; }
        }
        double t_self = upper[q];
        if (!isfinite(t_min) && !isfinite(t_self)) return UNBOUNDED;

        state[ITERS]++;
        double t;
        int refactor = 0;
        if (t_self <= t_min) {
            /* the entering variable runs to its other bound: a bound flip */
            t = t_self;
            status[q] = from_lower ? 1 : 0;
            double st = sign * t;
            for (int64_t i = 0; i < m; i++) x_b[i] = x_b[i] - st * w[i];
        } else {
            t = t_min;
            if (state[BLAND])
                for (int64_t i = 0; i < m; i++)
                    if (cand[i] == t_min && basis[i] < basis[leave]) leave = i;
            int64_t p = basis[leave];
            double st = sign * t;
            for (int64_t i = 0; i < m; i++) x_b[i] = x_b[i] - st * w[i];
            x_b[leave] = from_lower ? t : upper[q] - t;
            status[p] = sign * w[leave] < -pivot_tol ? 1 : 0;
            status[q] = 2;
            basis[leave] = q;
            /* rank-1 update of the explicit inverse */
            double piv = w[leave];
            if (fabs(piv) < pivot_tol) {
                refactor = 1;
            } else {
                double *br = binv + leave * m;
                for (int64_t j = 0; j < m; j++) row[j] = br[j] / piv;
                for (int64_t i = 0; i < m; i++) {
                    double *bi = binv + i * m, wi = w[i];
                    for (int64_t j = 0; j < m; j++) bi[j] = bi[j] - wi * row[j];
                }
                for (int64_t j = 0; j < m; j++) br[j] = row[j];
                refactor = ++state[UPDATES] >= refactor_period;
            }
        }
        if (t * fabs(zq) <= 1e-12) {
            if (++state[STALL] >= stall_window) state[BLAND] = 1;
        } else {
            state[STALL] = 0;
        }
        if (refactor) return REFACTOR;
    }
}
