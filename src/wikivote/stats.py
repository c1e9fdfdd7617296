"""From-scratch least-squares machinery and significance tests.

Everything here is hand-rolled on top of plain numpy arrays: reduced
Householder QR with back-substitution for the solve, the R-factor inverse for
standard errors, and Student-t tail probabilities via the regularized
incomplete beta function evaluated with a modified Lentz continued fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, SingularityError

RANK_TOL = 1e-10
BETA_CF_TOL = 1e-12
BETA_CF_MAX_ITER = 10_000

STAR_LEVELS = ((0.001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "†"))


def significance_stars(p: float) -> str:
    """Map a p-value to the conventional marks: *** <0.001 down to † <0.1."""
    for level, mark in STAR_LEVELS:
        if p < level:
            return mark
    return ""


@dataclass(frozen=True)
class DesignMatrix:
    """Dense regression design with an all-ones intercept as first column."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if values.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional")
        n, k = values.shape
        if k != len(self.column_names):
            raise ValueError("column_names length does not match column count")
        if not np.isfinite(values).all():
            raise ValueError("design matrix contains non-finite entries")
        if not np.all(values[:, 0] == 1.0):
            raise ValueError("first design column must be the intercept (all ones)")
        if n <= k:
            raise ComputationError(
                f"need more rows than columns to fit: n={n}, columns={k}"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TermEstimate:
    name: str
    beta: float
    se: float
    t_stat: float
    p_value: float
    stars: str


@dataclass(frozen=True)
class FitResult:
    """Full per-term and whole-fit diagnostics of one least-squares fit."""

    terms: tuple[TermEstimate, ...]
    r2: float
    adj_r2: float
    n: int
    df_resid: int
    residuals: np.ndarray = field(repr=False)
    sigma2: float

    def term(self, name: str) -> TermEstimate:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def beta(self) -> np.ndarray:
        return np.array([t.beta for t in self.terms])


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int
    p_value: float
    adj_r2: float


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a (m x n, m >= n): Q (m x n, orthonormal columns), R (n x n).

    Classic Householder reflections, applied column by column; the reflector
    sign is chosen to avoid cancellation. The reflectors are kept and applied
    in reverse to the first n columns of the identity, so Q costs O(mn^2)
    time and O(mn) memory and no m x m array is formed.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    p = min(m, n)
    r = a.copy()
    reflectors = []
    for j in range(p):
        x = r[j:, j]
        norm_x = float(np.linalg.norm(x))
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += norm_x if x[0] >= 0 else -norm_x
        v /= np.linalg.norm(v)
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        reflectors.append((j, v))
    q = np.eye(m, p)
    for j, v in reversed(reflectors):
        q[j:, :] -= 2.0 * np.outer(v, v @ q[j:, :])
    return q, np.triu(r[:p])


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = r.shape[0]
    x = np.zeros(k)
    for i in range(k - 1, -1, -1):
        x[i] = (b[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def qr_least_squares(values: np.ndarray, y: np.ndarray, column_names=None):
    """Thin Q, R and the least-squares coefficients of y on the columns of values.

    Raises SingularityError naming the first column whose R diagonal is
    below RANK_TOL times the largest; column_names=None names it by index.
    """
    q, r = householder_qr(values)
    r_diag = np.abs(np.diag(r))
    tol = RANK_TOL * float(r_diag.max(initial=0.0))
    for j, d in enumerate(r_diag):
        if d < tol or d == 0.0:
            name = column_names[j] if column_names is not None else f"column {j}"
            raise SingularityError(str(name))
    return q, r, _back_substitute(r, q.T @ y)


def qr_solve(x, y: np.ndarray) -> np.ndarray:
    """Least-squares solution of min ||y - Xb|| via Householder QR.

    Accepts a DesignMatrix or a plain array (no intercept requirement on the
    plain-array path; used internally for small auxiliary fits).
    """
    if isinstance(x, DesignMatrix):
        values, names = x.values, x.column_names
    else:
        values, names = np.asarray(x, dtype=float), None
    y = np.asarray(y, dtype=float)
    n = values.shape[0]
    if y.shape != (n,):
        raise ValueError(f"response length {y.shape} does not match {n} rows")
    if values.ndim != 2 or n < values.shape[1]:
        raise ValueError(f"design of shape {values.shape} needs at least as many rows as columns")
    return qr_least_squares(values, y, names)[2]


def ols_fit(x, y: np.ndarray, *, sides: str = "two") -> FitResult:
    """Ordinary least squares with the full diagnostic set.

    Accepts a DesignMatrix or a plain 2-D array. Standard errors come from
    the R-factor inverse (never explicit normal equations); r2 is computed
    against the centered response. sides="one" halves every p-value.
    """
    if sides not in ("two", "one"):
        raise ValueError(f"sides must be 'two' or 'one', got {sides!r}")
    if isinstance(x, DesignMatrix):
        values, names = x.values, x.column_names
    else:
        values = np.asarray(x, dtype=float)
        names = tuple(f"x{j}" for j in range(values.shape[1]))
    y = np.asarray(y, dtype=float)
    n, k = values.shape
    if y.shape != (n,):
        raise ValueError(f"response length {len(y)} does not match {n} rows")
    if not np.isfinite(y).all():
        raise ValueError("response contains non-finite entries")
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        raise ComputationError("degenerate response: zero variance in y")

    _, r, beta = qr_least_squares(values, y, names)

    residuals = y - values @ beta
    ssr = float(residuals @ residuals)
    df_resid = n - k
    sigma2 = ssr / df_resid
    r_inv = np.column_stack([_back_substitute(r, e) for e in np.eye(k)])
    xtx_inv_diag = (r_inv * r_inv).sum(axis=1)
    se = np.sqrt(sigma2 * xtx_inv_diag)

    r2 = 1.0 - ssr / sst
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)

    terms = []
    for name, b, s in zip(names, beta, se):
        if s > 0.0:
            t_stat = float(b / s)
        else:
            t_stat = math.copysign(math.inf, b) if b != 0.0 else 0.0
        p = student_t_two_sided_p(t_stat, df_resid)
        if sides == "one":
            p /= 2.0
        terms.append(TermEstimate(name, float(b), float(s), t_stat, p, significance_stars(p)))

    return FitResult(
        terms=tuple(terms),
        r2=r2,
        adj_r2=adj_r2,
        n=n,
        df_resid=df_resid,
        residuals=residuals,
        sigma2=sigma2,
    )


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the continued fraction for I_x(a, b)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < BETA_CF_TOL:
            return h
    raise ComputationError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1].

    Evaluates the continued fraction on whichever side of the crossover point
    x = (a+1)/(a+b+2) converges quickly, using the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    return _incomplete_beta(a, b, x, 1.0 - x)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) given both x and y = 1 - x.

    Taking y from the caller keeps its relative precision when x rounds to
    (or near) 1, where 1.0 - x would lose it.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x <= 0.5:
        ln_x, ln_y = math.log(x), math.log1p(-x)
    else:
        ln_x, ln_y = math.log1p(-y), math.log(y)
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * ln_x + b * ln_y
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) via I_x(df/2, 1/2) with x = df/(df + t^2).

    1 - x is passed as t^2/(df + t^2), so a |t| too small to move x off 1.0
    still gives p < 1.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    if math.isinf(t):
        return 0.0
    t2 = t * t
    return _incomplete_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def student_t_critical(alpha_two_sided: float, df: float) -> float:
    """The t with two-sided tail probability alpha, found by bisection."""
    if not 0.0 < alpha_two_sided < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    lo, hi = 0.0, 1.0
    while student_t_two_sided_p(hi, df) > alpha_two_sided:
        hi *= 2.0
        if hi > 1e12:
            raise ComputationError("critical value search failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_sided_p(mid, df) > alpha_two_sided:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def pearson(x, y, *, sides: str = "two") -> CorrelationResult:
    """Sample Pearson correlation with a Student-t significance test."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d vectors of equal length")
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ComputationError("zero variance: correlation undefined for constant input")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) >= 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = student_t_two_sided_p(t, df)
    if sides == "one":
        p /= 2.0
    elif sides != "two":
        raise ValueError(f"sides must be 'two' or 'one', got {sides!r}")
    adj_r2 = 1.0 - (1.0 - r * r) * (n - 1) / (n - 2)
    return CorrelationResult(r=r, n=n, p_value=p, adj_r2=adj_r2)
