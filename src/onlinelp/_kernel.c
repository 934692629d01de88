/* The three compiled functions of onlinelp, built and loaded together by
 * _kernel.py: the per-column loop of the explicit online pass
 * (online._explicit_pass), the pivot loop of the simplex
 * (simplex._pivot_loop) and the sweep of an MPS file's data sections
 * (mps._sweep).
 *
 * All three repeat their references bit for bit, under the one contract
 * stated in _kernel.py: the two loops their numpy loops, the sweep mps's
 * line reader.  The two loops do the same IEEE operations in the same
 * order, with every sum added term by term in the order the reference
 * fixes; build with -ffp-contract=off so that no multiply and add are
 * fused.  The sweep reads each value by one correctly rounded division
 * (Clinger's fast path) or with strtod; both round as Python's float does.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* np.maximum(v, 0.0), which maps -0.0 to +0.0 */
static double clamp(double v) { return v > 0.0 ? v : 0.0; }

/* A hint to fetch the cache line at addr for reading.  It reads no value
 * and never faults; a compiler without the builtin builds it as a no-op. */
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PREFETCH(addr) ((void)(addr))
#endif

/* How many steps the explicit pass reads ahead in seq. */
enum { AHEAD = 8 };

/* Runs steps 0 .. T-1 of seq, forming only the visited column's entries
 * of y: O(nnz) work.  Updates y_base, last, remaining (may be NULL), x_sum
 * and max_norm in place.  max_norm is NULL for an unchecked pass;
 * otherwise the pass raises it, from the caller's 0, to the largest
 * ||y^k|| of y^0 and of each iterate after an accepted step, the only
 * iterates that can set a new largest norm when d > 0.  Returns T, or
 * the step whose iterate escaped norm_bound.
 *
 * seq visits the columns in a random order, so at large n each step would
 * wait on cache misses for col_ptr[j], the column's entries and c[j].
 * Step k therefore hints the col_ptr entry of step k + 2 AHEAD and,
 * reading the col_ptr entries of step k + AHEAD that an earlier hint
 * fetched, the first and last entries of that column and its c.  (The
 * write to x_sum[j] needs no hint: a store does not hold up the step.)
 * The last 2 AHEAD steps take no hints.  The hints read only values a
 * later step reads anyway and change no arithmetic. */
int64_t explicit_pass(int64_t m, const int64_t *col_ptr, const int64_t *row_idx,
                      const double *vals, const double *c, const double *step_d,
                      double gamma, const int64_t *seq, int64_t T, double *y_base,
                      int64_t *last, double *remaining, double *x_sum,
                      double norm_bound, double *max_norm)
{
    int measure = max_norm != NULL;   /* at y^0, then after each accepted step */
    for (int64_t k = 0;; k++) {
        if (measure) {
            double sq = 0.0;
            for (int64_t i = 0; i < m; i++) {
                double v = clamp(y_base[i] - (double)(k - last[i]) * step_d[i]);
                sq += v * v;
            }
            double norm = sqrt(sq);
            if (norm > *max_norm) *max_norm = norm;
            if (norm > norm_bound * (1.0 + 1e-9)) return k;
        }
        if (k == T) return T;
        if (k + 2 * AHEAD < T) {
            PREFETCH(col_ptr + seq[k + 2 * AHEAD]);
            int64_t ja = seq[k + AHEAD], alo = col_ptr[ja], ahi = col_ptr[ja + 1];
            if (alo < ahi) {
                PREFETCH(row_idx + alo);
                PREFETCH(row_idx + ahi - 1);
                PREFETCH(vals + alo);
                PREFETCH(vals + ahi - 1);
            }
            PREFETCH(c + ja);
        }
        int64_t j = seq[k], lo = col_ptr[j], hi = col_ptr[j + 1];
        double dot = 0.0;
        for (int64_t p = lo; p < hi; p++) {
            int64_t r = row_idx[p];
            dot += vals[p] * clamp(y_base[r] - (double)(k - last[r]) * step_d[r]);
        }
        int x = c[j] > dot;
        for (int64_t p = lo; x && remaining && p < hi; p++)
            if (!(remaining[row_idx[p]] >= vals[p])) x = 0;
        for (int64_t p = lo; p < hi; p++) {
            int64_t r = row_idx[p];
            double ym = clamp(y_base[r] - (double)(k - last[r]) * step_d[r]);
            if (x && remaining) remaining[r] -= vals[p];
            y_base[r] = x ? clamp((ym + gamma * vals[p]) - step_d[r]) : clamp(ym - step_d[r]);
            last[r] = k + 1;
        }
        if (x) x_sum[j] += 1.0;
        measure = x && max_norm;
    }
}


/* The pivot loop of the bounded primal simplex (simplex._python_pivots).
 *
 * Pricing is devex over reduced costs d that each basis change updates.
 * At entry the loop computes y = c_B B^-1 (btran), prices every column
 * (d_j = c_j - y a_j) and resets every weight w_j to 1.  It enters the
 * eligible column with the largest d_j^2 / w_j, the first of a tie, or
 * under Bland's rule the first eligible column.  After a basis change that
 * leaves a refactorization still ahead, one sweep of the columns that can
 * enter takes beta_j = rho a_j, for rho the new row r of B^-1, and sets
 * d_j -= d_q beta_j and w_j = max(w_j, beta_j^2 w_q), choosing the next
 * column as it goes; the leaving column gets d_p = -d_q / alpha_rq and
 * w_p = max(w_q / alpha_rq^2, 1).  A bound flip changes neither.  When the
 * updated d prices nothing, the loop prices afresh from a new btran: it
 * stops OPTIMAL only on d priced since the last basis change.  So a pivot takes no btran and no
 * pricing against y; after the pivot that makes a refactorization due it
 * takes no sweep either, as the resumption prices afresh.
 *
 * btran and ftran add their terms in basis or nonzero order, starting from
 * the first term; pricing and the sweep add each column's terms in stored
 * order, starting from 0.0; the ratio test, the rank-1 update and the
 * updates of d and w are elementwise.  The basis inverse is dense and
 * row-major.
 */

enum { OPTIMAL = 0, UNBOUNDED = 1, LIMIT = 2, REFACTOR = 3 };
enum { ITERS = 0, STALL = 1, BLAND = 2, UPDATES = 3 };

/* [A I -E] in compressed columns: the entries of column j are
 * rows[ptr[j] .. ptr[j + 1]) and vals[ptr[j] .. ptr[j + 1]) */
typedef struct {
    const int64_t *ptr, *rows;
    const double *vals;
} Columns;

/* v a_j for column j, its terms added in stored order from 0.0. */
static inline double dot_column(const Columns *a, int64_t j, const double *v)
{
    double dot = 0.0;
    for (int64_t p = a->ptr[j]; p < a->ptr[j + 1]; p++)
        dot += a->vals[p] * v[a->rows[p]];
    return dot;
}

/* The entering column: the eligible nonbasic column j with the largest
 * score d_j^2 / w_j, the first of a tie; under Bland's rule every score is
 * 1, so that the first eligible column wins.  -1 when none is eligible.
 * Given the new row rho of B^-1 after a basis change that took column p
 * out, with d_q and w_q of the entering column, the pass first updates d
 * and w of each column that can enter, p aside.  Whether a column is
 * eligible, and whether it wins, are selected without a branch, which no
 * predictor could guess: the score of an ineligible column is computed and
 * multiplied by 0.  Declared inline because gcc 12 at -O3 otherwise
 * leaves it a call from simplex_pivots, which slows a cold solve. */
static inline int64_t choose(const Columns *a, int64_t n_total, const int8_t *status,
                             const unsigned char *allow, const double *upper,
                             const double *rho, int64_t p, double dq, double wq,
                             double *restrict d, double *restrict w, int bland,
                             double opt_tol)
{
    int64_t q = -1;
    double best = 0.0;
    for (int64_t j = 0; j < n_total; j++) {
        int s = status[j];
        if (s == 2 || !allow[j] || !(upper[j] > 0.0)) continue;
        double dj = d[j], wj = w[j];
        if (rho && j != p) {
            double beta = dot_column(a, j, rho), bw = beta * beta * wq;
            d[j] = dj = dj - dq * beta;
            w[j] = wj = bw > wj ? bw : wj;
        }
        int eligible = ((s == 0) & (dj > opt_tol)) | ((s == 1) & (dj < -opt_tol));
        double score = (bland ? 1.0 : dj * dj / wj) * eligible;
        int take = score > best;
        best = take ? score : best;
        q = take ? j : q;
    }
    return q;
}

/* Pivots until the basis is optimal (OPTIMAL), a ray is found (UNBOUNDED),
 * state[ITERS] reaches `limit` (LIMIT), or the basis inverse is due for a
 * refactorization (REFACTOR, after the pivot that made it due).  Updates
 * status, basis, binv, x_b and state = {iterations, stall count, Bland
 * flag, rank-1 updates} in place; `work` holds 4 m + 2 n_total doubles:
 * scratch, then d and w.  The n_total columns of [A I -E] are
 * ext_ptr/ext_rows/ext_vals, the workspace's one column store. */
int simplex_pivots(int64_t m, int64_t n_total, const int64_t *ext_ptr,
                   const int64_t *ext_rows, const double *ext_vals, const double *cost,
                   const unsigned char *allow, const double *upper, int8_t *status,
                   int64_t *basis, double *binv, double *x_b, double *work, int64_t limit,
                   int64_t *state, double opt_tol, double pivot_tol, int64_t refactor_period,
                   int64_t stall_window)
{
    const Columns a = {ext_ptr, ext_rows, ext_vals};
    double *y = work, *col = work + m, *row = work + 2 * m, *cand = work + 3 * m;
    double *d = work + 4 * m, *w = d + n_total;

    for (int64_t j = 0; j < n_total; j++) w[j] = 1.0;
    int64_t q = -1;
    int fresh = 0;   /* whether d was priced afresh since the last basis change */
    for (;;) {
        if (q < 0 && !fresh) {
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

            /* pricing: every d_j afresh */
            for (int64_t j = 0; j < n_total; j++) d[j] = cost[j] - dot_column(&a, j, y);
            q = choose(&a, n_total, status, allow, upper, NULL, -1, 0.0, 0.0, d, w,
                       (int)state[BLAND], opt_tol);
            fresh = 1;
        }
        if (state[ITERS] >= limit) return LIMIT;
        /* d is fresh here: an updated d that priced nothing was priced again */
        if (q < 0) return OPTIMAL;

        /* ftran of the entering column */
        int from_lower = status[q] == 0;
        double sign = from_lower ? 1.0 : -1.0, dq = d[q], wq = w[q];
        const int64_t *rows = ext_rows + ext_ptr[q];
        const double *cv = ext_vals + ext_ptr[q];
        int64_t nnz = ext_ptr[q + 1] - ext_ptr[q];
        for (int64_t i = 0; i < m; i++) {
            const double *bi = binv + i * m;
            double acc = nnz ? cv[0] * bi[rows[0]] : 0.0;
            for (int64_t p = 1; p < nnz; p++) acc += cv[p] * bi[rows[p]];
            col[i] = acc;
        }

        /* ratio test: x_b moves by -sign t col as the entering value moves t */
        int64_t leave = -1;
        double t_min = INFINITY;
        for (int64_t i = 0; i < m; i++) {
            double rate = sign * col[i], ub = upper[basis[i]], c = INFINITY;
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
        int64_t p = -1;
        int refactor = 0;
        if (t_self <= t_min) {
            /* the entering variable runs to its other bound: a bound flip */
            t = t_self;
            status[q] = from_lower ? 1 : 0;
            double st = sign * t;
            for (int64_t i = 0; i < m; i++) x_b[i] = x_b[i] - st * col[i];
        } else {
            t = t_min;
            if (state[BLAND])
                for (int64_t i = 0; i < m; i++)
                    if (cand[i] == t_min && basis[i] < basis[leave]) leave = i;
            p = basis[leave];
            fresh = 0;   /* B changes here; a bound flip keeps B, y and so a fresh d */
            double st = sign * t;
            for (int64_t i = 0; i < m; i++) x_b[i] = x_b[i] - st * col[i];
            x_b[leave] = from_lower ? t : upper[q] - t;
            status[p] = sign * col[leave] < -pivot_tol ? 1 : 0;
            status[q] = 2;
            basis[leave] = q;
            /* rank-1 update of the explicit inverse */
            double piv = col[leave];
            if (fabs(piv) < pivot_tol) {
                refactor = 1;
            } else {
                double *br = binv + leave * m;
                for (int64_t j = 0; j < m; j++) row[j] = br[j] / piv;
                for (int64_t i = 0; i < m; i++) {
                    double *bi = binv + i * m, wi = col[i];
                    for (int64_t j = 0; j < m; j++) bi[j] = bi[j] - wi * row[j];
                }
                for (int64_t j = 0; j < m; j++) br[j] = row[j];
                refactor = ++state[UPDATES] >= refactor_period;
                d[p] = -dq / piv;
                w[p] = wq / (piv * piv);
                if (!(w[p] > 1.0)) w[p] = 1.0;
            }
        }
        if (t * fabs(dq) <= 1e-12) {
            if (++state[STALL] >= stall_window) state[BLAND] = 1;
        } else {
            state[STALL] = 0;
        }
        if (refactor) return REFACTOR;

        /* the next entering column: after a basis change from d and w
         * updated by the sweep of the pivot row rho = row, after a bound
         * flip from d and w as they are */
        q = choose(&a, n_total, status, allow, upper, p >= 0 ? row : NULL, p, dq, wq, d, w,
                   (int)state[BLAND], opt_tol);
    }
}


/* The sweep of an MPS file from its first COLUMNS, RHS, BOUNDS or ENDATA
 * header to its ENDATA line, the compiled front end of mps._Reader (whose
 * reference is the line reader, mps._parse).
 *
 * Tokens are split at bytes 9-13 and 28-32, the separators of ASCII
 * str.split(), and lines end at '\n'.  A header is a line that starts with
 * a section name, in any case, followed by a separator or the end of the
 * text: the rule of mps's header regex.  Blank lines and lines whose first
 * token starts with '*' hold no data.  The sweep never raises and never
 * reports a line: at a line the line reader would refuse, or would read
 * otherwise (a MARKER line, a RANGES header), it stops with a hand-back
 * code, and the caller sends the whole file through the line reader, which
 * raises for the right line.  Nor does it check the bytes it reads: it
 * hands back when, afterwards, the bytes it vouches for are not plain.
 *
 * The sweep keeps no state between calls, so calls on parts of one file
 * may run at once, each in its own thread.
 */

enum { SWEPT = 0, BAD_COUNT = 1, BAD_NUMBER = 2, UNKNOWN_ROW = 3, MARKER = 4,
       BAD_BOUND = 5, UNKNOWN_COLUMN = 6, NO_MEMORY = 7, BAD_LAYOUT = 8, NO_ENDATA = 9,
       NOT_PLAIN = 10 };
enum { UP = 0, LO = 1, FX = 2, FR = 3, MI = 4, PL = 5, BV = 6 };   /* mps._BOUND_TYPES */
/* the headers of the sections the sweep reads, in their order, then of
 * the end of the data and of the sections it hands back at */
enum { IN_COLUMNS = 0, IN_RHS = 1, IN_BOUNDS = 2, AT_ENDATA = 3, UNSWEPT = 4 };

static int is_sep(unsigned char ch) { return ch - 9u <= 4u || ch - 28u <= 4u; }
static int is_digit(unsigned char ch) { return ch - (unsigned)'0' <= 9u; }

typedef struct { const char *s; int64_t n; } Token;

/* The next token of the line at *p, which ends at '\n' or at end; 0 past
 * the line's last token, with *p left at the line's end. */
static int next_token(const char **p, const char *end, Token *t)
{
    const char *q = *p;
    while (q < end && *q != '\n' && is_sep((unsigned char)*q)) q++;
    t->s = q;
    while (q < end && !is_sep((unsigned char)*q)) q++;
    t->n = q - t->s;
    *p = q;
    return t->n > 0;
}

/* The start of the line after the one that holds p. */
static const char *next_line(const char *p, const char *end)
{
    const char *nl = memchr(p, '\n', (size_t)(end - p));
    return nl ? nl + 1 : end;
}

/* The section whose header is the line at p (IN_COLUMNS .. UNSWEPT), or
 * -1 for any other line.  The line starts unindented with a section name
 * of mps._SECTIONS in any case, and a separator or the end follows it. */
static int header(const char *p, const char *end)
{
    static const char *const names[] = {"COLUMNS", "RHS", "BOUNDS", "ENDATA",
                                         "NAME", "OBJSENSE", "ROWS", "RANGES"};
    Token t;
    if (p == end || is_sep((unsigned char)*p) || !next_token(&p, end, &t)) return -1;
    for (int k = 0; k < 8; k++) {   /* ASCII: & ~0x20 is upper() on letters alone */
        int64_t i = 0;
        while (i < t.n && names[k][i] && (t.s[i] & ~0x20) == names[k][i]) i++;
        if (i == t.n && !names[k][i]) return k < UNSWEPT ? k : UNSWEPT;
    }
    return -1;
}

/* Moves *p to the start of the next line: 1 when that is a data line of
 * the section being read, 0 at the end of the text or at a header line,
 * whose section then goes to *opens. */
static int next_data_line(const char **p, const char *end, int *opens)
{
    *p = next_line(*p, end);
    int section = *p < end ? header(*p, end) : -1;
    if (section >= 0) *opens = section;
    return *p < end && section < 0;
}

/* Whether text[from .. to) is plain: ASCII, with each '\r' followed by
 * '\n' (text mode's universal newlines would end a line at a lone '\r';
 * a '\r\n' is a separator and a line end to both readers). */
static int plain(const char *from, const char *to, const char *end)
{
    unsigned char any = 0;
    for (const char *q = from; q < to; q++) any |= (unsigned char)*q;
    if (any & 0x80) return 0;
    for (const char *q = from; (q = memchr(q, '\r', (size_t)(to - q))) != NULL; q++)
        if (q + 1 == end || q[1] != '\n') return 0;
    return 1;
}

/* Whether double arithmetic rounds to double at each operation (no wider
 * intermediates), so that one division rounds once. */
enum { ONE_ROUNDING = FLT_EVAL_METHOD == 0 };

/* 10^0 .. 10^22: the powers of ten that a double holds exactly. */
static const double exact_tens[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
                                    1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
                                    1e20, 1e21, 1e22};

/* Counts a digit of a decimal as significant when a nonzero digit comes
 * at or before it, and appends it to mantissa while at most 15 are. */
static void add_digit(unsigned char ch, uint64_t *mantissa, int64_t *significant)
{
    if (*significant == 0 && ch == '0') return;
    if (++*significant <= 15) *mantissa = *mantissa * 10 + (ch - '0');
}

/* The value of a token of the grammar [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?,
 * rounded correctly, so that it equals Python's float bit for bit; 0 for
 * any other token (hex floats, inf, nan, 1_0 ...) and when strtod stops
 * short of the token's end (a locale's decimal comma).
 *
 * A token with no exponent, at most 15 significant digits and at most 22
 * digits after the point takes Clinger's fast path: its digits as an
 * integer, below 10^15 and so exact, divided by an exact power of ten.
 * That is one correctly rounded operation.  Every other token goes to
 * strtod, which rounds correctly too. */
static int number(Token t, double *out)
{
    const unsigned char *p = (const unsigned char *)t.s, *end = p + t.n, *d;
    int negative = p < end && *p == '-';
    uint64_t mantissa = 0;
    int64_t significant = 0, fraction = 0;
    if (p < end && (*p == '+' || *p == '-')) p++;
    for (d = p; p < end && is_digit(*p); p++) add_digit(*p, &mantissa, &significant);
    int digits = p > d;
    if (p < end && *p == '.') {
        for (d = ++p; p < end && is_digit(*p); p++) add_digit(*p, &mantissa, &significant);
        fraction = p - d;
        digits |= fraction > 0;
    }
    if (!digits) return 0;
    int exponent = p < end && (*p == 'e' || *p == 'E');
    if (exponent) {
        if (++p < end && (*p == '+' || *p == '-')) p++;
        for (d = p; p < end && is_digit(*p); p++) {}
        if (p == d) return 0;
    }
    if (p != end) return 0;
    if (ONE_ROUNDING && !exponent && significant <= 15 && fraction <= 22) {
        double v = (double)mantissa / exact_tens[fraction];
        *out = negative ? -v : v;
        return 1;
    }
    char *stop;
    *out = strtod(t.s, &stop);
    return stop == t.s + t.n;
}

/* A name table: open addressing on FNV-1a, each slot an id + 1 or 0 when
 * free; name id is base[span[2 id] .. span[2 id + 1]). */
typedef struct {
    int64_t *slot, mask, count;
    const char *base;
    const int64_t *span;
} Names;

static int names_init(Names *t, int64_t count, const char *base, const int64_t *span)
{
    int64_t size = 1024;
    while (size < 2 * count) size *= 2;
    t->slot = calloc((size_t)size, sizeof(int64_t));
    t->mask = size - 1;
    t->count = 0;
    t->base = base;
    t->span = span;
    return t->slot != NULL;
}

/* The slot that holds the name key, or the free slot it would take. */
static int64_t *names_find(const Names *t, Token key)
{
    uint64_t h = 14695981039346656037ull;
    for (int64_t i = 0; i < key.n; i++) h = (h ^ (unsigned char)key.s[i]) * 1099511628211ull;
    for (;; h++) {
        int64_t *s = t->slot + (h & (uint64_t)t->mask);
        if (*s == 0) return s;
        const int64_t *span = t->span + 2 * (*s - 1);
        if (span[1] - span[0] == key.n && memcmp(t->base + span[0], key.s, (size_t)key.n) == 0)
            return s;
    }
}

/* Gives the next id to the name whose span is already written, at its
 * free slot; keeps the table at most half full.  0 when out of memory. */
static int names_add(Names *t, int64_t *slot)
{
    *slot = ++t->count;
    if (2 * t->count <= t->mask + 1) return 1;
    Names grown = *t;
    if (!names_init(&grown, t->count, t->base, t->span)) return 0;
    for (int64_t id = 0; id < t->count; id++) {
        const int64_t *span = t->span + 2 * id;
        Token name = {t->base + span[0], span[1] - span[0]};
        *names_find(&grown, name) = id + 1;
    }
    grown.count = t->count;
    free(t->slot);
    *t = grown;
    return 1;
}

/* The id of the column name: when it is new, the next id, with its bytes
 * and a '\n' put at the end of col_text and their span in col_name; -1
 * when out of memory.  name may lie in col_text at or past that end. */
static int64_t column_id(Names *cols, Token name, char *col_text, int64_t *col_name,
                         int64_t *name_bytes)
{
    int64_t *s = names_find(cols, name);
    if (*s != 0) return *s - 1;
    int64_t at = *name_bytes;
    memmove(col_text + at, name.s, (size_t)name.n);
    col_text[at + name.n] = '\n';
    col_name[2 * cols->count] = at;
    col_name[2 * cols->count + 1] = at + name.n;
    *name_bytes = at + name.n + 1;
    return names_add(cols, s) ? cols->count - 1 : -1;
}

/* Reads text[start .. size), which starts with the header line of
 * COLUMNS, RHS, BOUNDS or ENDATA, up to the ENDATA line.  It takes those
 * sections in that order, each at most once, and hands back at any other
 * header and when ENDATA is missing.  Two arguments let one call read a
 * part of a COLUMNS section:
 * - a limit below size ends COLUMNS at text[limit], a line start, when the
 *   section is still open there; a header before it ends COLUMNS as
 *   always, and the sweep reads on;
 * - inside (nonzero) starts the call at text[start], a line start past the
 *   COLUMNS header, as if in COLUMNS, and ends it at the first header; a
 *   header other than RHS, BOUNDS or ENDATA is handed back there.
 * Their data go into:
 * - each constraint entry's column, row and value (ent_*) and each
 *   objective entry's column and value (obj_*), in file order;
 * - each RHS pair's row and value (rhs_*), with -1 for the objective;
 * - each bound's kind, column and value (bnd_*; nan when it has none);
 * - each column's name and a '\n' (col_text) and the name's [start, stop)
 *   span in col_text (col_name), in order of first appearance, which is
 *   id order.  The first preloaded names there, one file's columns in
 *   order of first appearance by part, are read first: each takes the id
 *   of an earlier equal name or the next id, which goes to col_map, and
 *   col_text and col_name keep only the first of equal names.
 * Row i's name spans row_text[row_name[2 i] .. row_name[2 i + 1]), and
 * col_role[i] and rhs_role[i] are its row id in COLUMNS and in RHS: >= 0 for a
 * constraint row, -1 for the objective, -2 for a free row, whose entries
 * are dropped.  counts receives the number of constraint entries,
 * objective entries, RHS pairs, bounds and columns, the length of
 * col_text, and the offset of the line where COLUMNS stopped: the limit
 * or a header line.  Each output holds one item per pair, line or byte the
 * text could hold; an inside call writes no RHS pair or bound.  The call
 * vouches for the bytes from start up to where it stopped (to size when it
 * read on past COLUMNS): when they are not plain, it hands back.  Returns
 * SWEPT, or the hand-back code of the first line it will not read. */
int mps_sweep(const char *text, int64_t start, int64_t limit, int64_t size, int64_t inside,
              const char *row_text, const int64_t *row_name, const int64_t *col_role,
              const int64_t *rhs_role, int64_t nrows, int64_t *ent_col, int64_t *ent_row,
              double *ent_val, int64_t *obj_col, double *obj_val, int64_t *rhs_row,
              double *rhs_val, int64_t *bnd_kind, int64_t *bnd_col, double *bnd_val,
              char *col_text, int64_t *col_name, int64_t preloaded, int64_t *col_map,
              int64_t *counts)
{
    enum { ENTRIES, OBJECTIVE, RHS, BOUNDS, COLUMNS, NAME_BYTES, STOP };
    Names rows = {0}, cols = {0};
    if (!names_init(&rows, nrows, row_text, row_name)
        || !names_init(&cols, preloaded, col_text, col_name)) {
        free(rows.slot);
        free(cols.slot);
        return NO_MEMORY;
    }
    for (int64_t i = 0; i < nrows; i++) {   /* sized for nrows: never grows */
        Token name = {row_text + row_name[2 * i], row_name[2 * i + 1] - row_name[2 * i]};
        names_add(&rows, names_find(&rows, name));
    }
    for (int k = 0; k <= STOP; k++) counts[k] = 0;
    int code = SWEPT;
    for (int64_t i = 0; i < preloaded; i++) {   /* sized for them: never grows */
        Token name = {col_text + col_name[2 * i], col_name[2 * i + 1] - col_name[2 * i]};
        col_map[i] = column_id(&cols, name, col_text, col_name, &counts[NAME_BYTES]);
    }
    Token t, row, val;
    double v;
    const char *end = text + size, *lim = text + limit, *p = text + start;
    int opens = IN_COLUMNS;
    if (inside) p--;   /* to the '\n' that ends the line before start */
    else opens = header(p, end);

    /* COLUMNS lines: a column name, then row/value pairs */
    Token prev = {text, 0};
    int64_t col = -1;
    while (opens == IN_COLUMNS && code == SWEPT && next_data_line(&p, lim, &opens)) {
        if (!next_token(&p, end, &t) || t.s[0] == '*') continue;
        if (t.n != prev.n || memcmp(t.s, prev.s, (size_t)t.n) != 0) {
            if ((col = column_id(&cols, t, col_text, col_name, &counts[NAME_BYTES])) < 0) {
                code = NO_MEMORY;
                break;
            }
            prev = t;
        }
        int pairs = 0;
        while (code == SWEPT && next_token(&p, end, &row)) {
            int64_t at = *names_find(&rows, row) - 1;
            if (row.s[0] == '\'') code = MARKER;
            else if (!next_token(&p, end, &val)) code = BAD_COUNT;
            else if (!number(val, &v)) code = BAD_NUMBER;
            else if (at < 0) code = UNKNOWN_ROW;
            else if (col_role[at] >= 0) {
                ent_col[counts[ENTRIES]] = col;
                ent_row[counts[ENTRIES]] = col_role[at];
                ent_val[counts[ENTRIES]++] = v;
            } else if (col_role[at] == -1) {
                obj_col[counts[OBJECTIVE]] = col;
                obj_val[counts[OBJECTIVE]++] = v;
            }
            pairs = 1;
        }
        if (!pairs) code = BAD_COUNT;
    }

    /* where COLUMNS stopped: at the limit, which the next part reads on
     * from, or at a header line, which an inside call leaves to the next
     * call */
    counts[STOP] = p - text;
    if (code == SWEPT && p == lim && lim < end) goto done;
    if (inside) {
        if (code == SWEPT && opens != IN_RHS && opens != IN_BOUNDS && opens != AT_ENDATA)
            code = p < end ? BAD_LAYOUT : NO_ENDATA;
        goto done;
    }

    /* RHS lines: row/value pairs, after a set name when the count is odd */
    while (opens == IN_RHS && code == SWEPT && next_data_line(&p, end, &opens)) {
        const char *q = p;
        Token first = {text, 0};
        int64_t tokens = 0;
        for (; next_token(&q, end, &t); tokens++)
            if (tokens == 0) first = t;
        if (tokens == 0 || first.s[0] == '*') continue;
        if (tokens == 1) { code = BAD_COUNT; break; }
        p = tokens % 2 ? first.s + first.n : first.s;
        while (code == SWEPT && next_token(&p, end, &row) && next_token(&p, end, &val)) {
            int64_t at = *names_find(&rows, row) - 1;
            if (!number(val, &v)) code = BAD_NUMBER;
            else if (at < 0) code = UNKNOWN_ROW;
            else if (rhs_role[at] >= -1) {
                rhs_row[counts[RHS]] = rhs_role[at];
                rhs_val[counts[RHS]++] = v;
            }
        }
    }

    /* BOUNDS lines: a kind, a set name, a column and, for UP, LO and FX,
     * a value; FR, MI and a negative UP are handed back, as the 0 <= x <= u
     * model may refuse them */
    static const char kinds[] = "UPLOFXFRMIPLBV";
    while (opens == IN_BOUNDS && code == SWEPT && next_data_line(&p, end, &opens)) {
        if (!next_token(&p, end, &t) || t.s[0] == '*') continue;
        int kind = -1;
        for (int k = 0; k < 7 && t.n == 2; k++)   /* ASCII letters: & ~0x20 is upper() */
            if ((t.s[0] & ~0x20) == kinds[2 * k] && (t.s[1] & ~0x20) == kinds[2 * k + 1]) kind = k;
        int64_t c = -1;
        v = NAN;
        if (kind < 0 || kind == FR || kind == MI) code = BAD_BOUND;
        else if (!next_token(&p, end, &t) || !next_token(&p, end, &t)) code = BAD_COUNT;
        else if ((c = *names_find(&cols, t) - 1) < 0) code = UNKNOWN_COLUMN;
        else if (kind <= FX && !next_token(&p, end, &val)) code = BAD_COUNT;
        else if (kind <= FX && !number(val, &v)) code = BAD_NUMBER;
        else if (kind == UP && v < 0.0) code = BAD_BOUND;
        else {
            bnd_kind[counts[BOUNDS]] = kind;
            bnd_col[counts[BOUNDS]] = c;
            bnd_val[counts[BOUNDS]++] = v;
        }
    }

    /* what stopped the last section: ENDATA, the end of the text, or a
     * header out of order or of a section the sweep does not read */
    if (code == SWEPT && opens != AT_ENDATA) code = p < end ? BAD_LAYOUT : NO_ENDATA;
    p = end;

done:
    if (code == SWEPT && !plain(text + start, p, end)) code = NOT_PLAIN;
    counts[COLUMNS] = cols.count;
    free(rows.slot);
    free(cols.slot);
    return code;
}
