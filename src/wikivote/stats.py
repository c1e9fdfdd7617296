"""From-scratch least-squares machinery and significance tests, on plain floats.

Designs are held as columns, lists of floats. Householder QR is applied
straight to the response (no Q is formed), back-substitution on R gives the
coefficients and R's inverse the standard errors. Student-t tail probabilities
come from the regularized incomplete beta function, evaluated with a modified
Lentz continued fraction. Every float sum here, in forecast and in features is
a math.fsum: correctly rounded, so no result depends on how one Python
version's built-in sum adds floats (compensated from 3.12 on, plain before).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import mul

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


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Dense regression design with an all-ones intercept as first column.

    Held as columns of floats, one per name. It is factored on its first fit,
    and once only, however many responses are fitted to it.
    """

    columns: tuple[list[float], ...] = field(repr=False)
    column_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.column_names)
        columns = tuple(list(map(float, column)) for column in self.columns)
        n, k = len(columns[0]) if columns else 0, len(names)
        if len(columns) != k or set(map(len, columns)) - {n}:
            raise ValueError("column_names length does not match column count")
        if n <= k:
            raise ComputationError(f"need more rows than columns to fit: n={n}, columns={k}")
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "columns", columns)
        if not all(map(math.isfinite, chain.from_iterable(columns))):
            raise ValueError("design matrix contains non-finite entries")
        if columns[0].count(1.0) != n:
            raise ValueError("first design column must be the intercept (all ones)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, len(self.columns)

    @property
    def n(self) -> int:
        return len(self.columns[0])

    @cached_property
    def factors(self) -> tuple[list[tuple[int, list[float], float]], list[list[float]]]:
        """The reflectors and R of householder_qr."""
        return householder_qr(self)


@dataclass(frozen=True)
class TermEstimate:
    """One term of a fit. Its fields, in order, are the term's keys in
    model_<id>.json and its fit_table.csv columns, the name headed "term"."""

    name: str
    beta: float
    se: float
    t: float
    p: float
    stars: str


@dataclass(frozen=True)
class FitResult:
    """Full per-term and whole-fit diagnostics of one least-squares fit."""

    terms: tuple[TermEstimate, ...]
    r2: float
    adj_r2: float
    n: int

    def term(self, name: str) -> TermEstimate:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def beta(self) -> list[float]:
        return [t.beta for t in self.terms]


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int
    p_value: float
    adj_r2: float


def reflect(reflectors: list[tuple[int, list[float], float]], column: list[float]) -> None:
    """Apply the reflectors of householder_qr in order to column, in place: to
    a response b they give Q^T b. Reflector (j, v, h) is I - v v^T / h over
    rows j and below."""
    for j, v, h in reflectors:
        tail = column[j:]
        s = math.fsum(map(mul, v, tail)) / h
        column[j:] = [entry - s * weight for entry, weight in zip(tail, v)]


def householder_qr(a) -> tuple[list[tuple[int, list[float], float]], list[list[float]]]:
    """Householder reflectors and R (k x k, as rows) of a, an n x k DesignMatrix.

    Reflector j is (j, v, h = v'v / 2), v over rows j and below, its first
    sign chosen to avoid cancellation; applied to a response (reflect) they
    give Q^T of it, so Q is never formed. A column whose R diagonal is below
    RANK_TOL times the largest raises SingularityError naming that column.
    """
    columns = [column[:] for column in a.columns]
    reflectors = []
    for j, column in enumerate(columns):
        v = column[j:]
        norm = math.hypot(*v)
        if norm == 0.0:
            continue
        column[j] = -norm if v[0] >= 0 else norm
        v[0] -= column[j]
        reflectors.append((j, v, -column[j] * v[0]))
        for later in columns[j + 1:]:
            reflect(reflectors[-1:], later)
    r_diag = [abs(column[j]) for j, column in enumerate(columns)]
    for j, d in enumerate(r_diag):
        if d < RANK_TOL * max(r_diag) or d == 0.0:
            raise SingularityError(a.column_names[j])
    return reflectors, [[0.0] * i + [c[i] for c in columns[i:]] for i in range(len(columns))]


def _back_substitute(r: list[list[float]], b: Sequence[float]) -> list[float]:
    x = [0.0] * len(r)
    for i in reversed(range(len(r))):
        x[i] = (b[i] - math.fsum(map(mul, r[i][i + 1:], x[i + 1:]))) / r[i][i]
    return x


def ols_fit(x: DesignMatrix, y, *, sides: str = "two") -> FitResult:
    """Ordinary least squares of y on a DesignMatrix, with the full diagnostic set.

    Standard errors come from the R-factor inverse (never explicit normal
    equations); r2 is computed against the centered response. sides="one"
    halves every p-value.
    """
    if sides not in ("two", "one"):
        raise ValueError(f"sides must be 'two' or 'one', got {sides!r}")
    y = list(map(float, y))
    n, k = x.shape
    if len(y) != n:
        raise ValueError(f"response length {len(y)} does not match {n} rows")
    if not all(map(math.isfinite, y)):
        raise ValueError("response contains non-finite entries")
    mean = math.fsum(y) / n
    dy = [v - mean for v in y]
    sst = math.fsum(map(mul, dy, dy))
    if sst == 0.0:
        raise ComputationError("degenerate response: zero variance in y")

    reflectors, r = x.factors
    reflect(reflectors, y)  # y is Q^T y from here on
    beta = _back_substitute(r, y)
    # below its first k entries Q^T y is Q^T of the residual vector: their squares sum to ssr
    ssr = math.fsum(map(mul, y[k:], y[k:]))
    df_resid = n - k
    sigma2 = ssr / df_resid
    # column j of R's inverse solves R c = e_j; the diagonal of (X'X)^-1 sums row i's squares
    r_inv = [_back_substitute(r, [float(i == j) for i in range(k)]) for j in range(k)]
    se = [math.sqrt(sigma2 * math.fsum(column[i] * column[i] for column in r_inv))
          for i in range(k)]

    r2 = 1.0 - ssr / sst
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - k)

    terms = []
    for name, b, s in zip(x.column_names, beta, se):
        if s > 0.0:
            t_stat = b / s
        else:
            t_stat = math.copysign(math.inf, b) if b != 0.0 else 0.0
        p = student_t_two_sided_p(t_stat, df_resid)
        if sides == "one":
            p /= 2.0
        terms.append(TermEstimate(name, b, s, t_stat, p, significance_stars(p)))

    return FitResult(terms=tuple(terms), r2=r2, adj_r2=adj_r2, n=n)


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
        # the even step's partial numerator, then the odd step's
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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


def _stirling_tail(z: float) -> float:
    """lgamma(z) less (z - 1/2) ln z - z + ln(2 pi) / 2, for z >= 10: Stirling's
    series to its z^-9 term, truncated below 3e-14."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _ln_inverse_beta(a: float, b: float) -> float:
    """lgamma(a + b) - lgamma(a) - lgamma(b), the log of 1 / B(a, b).

    With the larger argument 10 or more, lgamma(sum) less lgamma(larger) comes
    from Stirling's series, its leading term through log1p: taken as a
    difference it cancels, by ~1e-9 relative at 5e5.
    """
    big, small = max(a, b), min(a, b)
    if big < 10.0:
        return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    ratio = ((big - 0.5) * math.log1p(small / big) + small * math.log(big + small) - small
             + _stirling_tail(big + small) - _stirling_tail(big))
    return ratio - math.lgamma(small)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b), a, b > 0, given both x in
    [0, 1] and y = 1 - x.

    Evaluates the continued fraction on whichever side of the crossover point
    x = (a+1)/(a+b+2) converges quickly, using the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a). Taking y from the caller keeps its relative
    precision when x rounds to (or near) 1, where 1.0 - x would lose it.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    if x <= 0.5:
        ln_x, ln_y = math.log(x), math.log1p(-x)
    else:
        ln_x, ln_y = math.log1p(-y), math.log(y)
    ln_front = _ln_inverse_beta(a, b) + a * ln_x + b * ln_y
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


def centred(
    x: Sequence[float], y: Sequence[float]
) -> tuple[list[float], list[float], float, float, float]:
    """dx, dy (x and y less their means) and the sums Sxx, Sxy, Syy of a line fit."""
    mean_x, mean_y = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    return (dx, dy, math.fsum(map(mul, dx, dx)), math.fsum(map(mul, dx, dy)),
            math.fsum(map(mul, dy, dy)))


def pearson(x, y, *, sides: str = "two") -> CorrelationResult:
    """Sample Pearson correlation with a Student-t significance test."""
    x = list(map(float, x))
    y = list(map(float, y))
    if len(x) != len(y):
        raise ValueError("x and y must be vectors of equal length")
    n = len(x)
    if n < 3:
        raise ComputationError(f"need at least 3 observations, got {n}")
    _, _, sxx, sxy, syy = centred(x, y)
    if sxx == 0.0 or syy == 0.0:
        raise ComputationError("zero variance: correlation undefined for constant input")
    r = sxy / math.sqrt(sxx * syy)
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
