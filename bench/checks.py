"""Checks of bernmass outputs against references computed apart from the package.

The references come from ``math.comb`` (exact integers and rationals), from
``numpy.polynomial.legendre`` on a Gauss rule of this module's own, and from
a from-scratch xorshift64* stream.  Nothing here is a stored copy of an
earlier output.  Every check returns a list of problems; an empty list means
the output passed.

The tolerances are stated multiples of eps, (n+1) eps or kappa_2(n) eps.  The
worst ratios seen on commit 63ddb78 are listed in README.md; each multiple
leaves at least a tenfold margin over them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre

from inputs import mass_reference

EPS = float(np.finfo(float).eps)
# spacing of the subnormal doubles, where relative accuracy runs out
SUBNORMAL = float(np.nextafter(0.0, 1.0))

METHODS = ("direct", "dft", "eig", "cho")
TAGS = {"direct": "direct", "dft": "DFT", "eig": "Eig", "cho": "cho"}
PROJECTION_FAMILIES = ("fp", "Pifp", "err", "res")
RANDOM_FAMILIES = ("L2err", "Merr", "res")

C_FORWARD = 8  # forward error <= C_FORWARD kappa_2(n) eps
C_BACKWARD = 4  # normwise backward error <= C_BACKWARD (n+1) eps
C_ENTRY = 4  # closed-form entries: relative error <= C_ENTRY (n+1) eps
C_ORTHO = 100  # |Q^T Q - I| and |M Q - Q Lambda| / lambda_0 <= C_ORTHO (n+1) eps
C_DFT = 4  # dft: |binom (x_hat - x)| <= C_DFT S, S from dft_log_scale
ORDERING_FROM = 12  # degree from which direct is never more accurate than eig, cho
QUADRATURE_SLACK = 1e-11  # relative gap between two converged quadratures of |f - p*|


def kappa2(n: int) -> int:
    """The 2-norm condition number of M, exactly C(2n+1, n)."""
    return math.comb(2 * n + 1, n)


def f1(x):
    """The paper's Runge-type bump."""
    return 1.0 / (1.0 + 396.0 * (x - 0.5) ** 2)


def f2(x):
    """The paper's gently sloped rational function."""
    return 0.01 + x / (x * x + 1.0)


FUNCTIONS = {"f1": f1, "f2": f2}


def _rel(a, b):
    return np.abs(a - b) / np.maximum(np.abs(b), SUBNORMAL)


# ---------------------------------------------------------------------------
# references


def eigenvalues_reference(n: int) -> np.ndarray:
    """lambda_i = (n!)^2 / ((n+i+1)! (n-i)!) as exact rationals, rounded once."""
    f = math.factorial
    return np.array([Fraction(f(n) ** 2, f(n + i + 1) * f(n - i)) for i in range(n + 1)], dtype=float)


def legendre_in_bernstein(k: int, n: int) -> list:
    """Degree-n Bernstein coefficients of P_k(2x - 1), exactly.

    At degree k they are (-1)^(k+j) C(k,j); elevation to degree n gives
    c_i = sum_j (-1)^(k+j) C(k,j)^2 C(n-k, i-j) / C(n, i).
    """
    return [
        Fraction(
            sum(
                (-1) ** (k + j) * math.comb(k, j) ** 2 * math.comb(n - k, i - j)
                for j in range(max(0, i - n + k), min(k, i) + 1)
            ),
            math.comb(n, i),
        )
        for i in range(n + 1)
    ]


class LegendreProjection:
    """Best L2 approximations of f from its Legendre series on a 400-point Gauss rule.

    f1 has poles 0.05 off [0, 1]; 400 points integrate its Legendre
    coefficients to rounding level.
    """

    POINTS = 400

    def __init__(self, f):
        y, w = legendre.leggauss(self.POINTS)
        self.y = y
        self.w = w / 2.0
        self.fv = f((y + 1.0) / 2.0)
        self.fnorm = math.sqrt(float(self.w @ (self.fv * self.fv)))

    def coefficients(self, n: int) -> np.ndarray:
        """a_k = (2k+1) integral_0^1 f P_k(2x-1) dx, k = 0..n."""
        v = legendre.legvander(self.y, n)
        return (2.0 * np.arange(n + 1) + 1.0) * ((self.w * self.fv) @ v)

    def best_error(self, n: int) -> float:
        """Relative L2 error of the best degree-n approximation."""
        p = legendre.legval(self.y, self.coefficients(n))
        return math.sqrt(float(self.w @ (self.fv - p) ** 2)) / self.fnorm

    def bernstein_coefficients(self, n: int) -> np.ndarray:
        a = self.coefficients(n)
        out = np.zeros(n + 1)
        for k in range(n + 1):
            out += a[k] * np.array(legendre_in_bernstein(k, n), dtype=float)
        return out


def amplification(n: int, x: np.ndarray) -> float:
    """||M|| ||x|| / ||M x||, which turns a backward error into a residual bound."""
    return (1.0 / (n + 1)) * float(np.linalg.norm(x)) / float(np.linalg.norm(mass_reference(n) @ x))


class Xorshift64Star:
    """xorshift64* (Vigna 2016): shifts 12, 25, 27, multiplier 0x2545F4914F6CDD1D.

    Written here from the published recipe so that the random table's
    solution vectors are regenerated without the package.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        state = int(seed) & self._MASK
        self.state = state or 0x9E3779B97F4A7C15

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        out = np.empty(size)
        for i in range(size):
            x = self.state
            x ^= x >> 12
            x ^= (x << 25) & self._MASK
            x ^= x >> 27
            self.state = x
            out[i] = low + (high - low) * ((((x * 0x2545F4914F6CDD1D) & self._MASK) >> 11) * 2.0**-53)
        return out


# ---------------------------------------------------------------------------
# matrices and factorizations


def check_mass(n: int, m) -> list:
    m = np.asarray(m, dtype=float)
    ref = mass_reference(n)
    if m.shape != ref.shape:
        return [f"mass n={n}: shape {m.shape}"]
    bad = np.abs(m - ref) > C_ENTRY * (n + 1) * EPS * np.abs(ref) + 16 * SUBNORMAL
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return [f"mass n={n}: entry ({i},{j}) is {float(m[i, j])!r}, expected {float(ref[i, j])!r}"]
    return []


def check_inverse(n: int, a) -> list:
    """Last column, symmetry, persymmetry and checkerboard signs of M^-1."""
    a = np.asarray(a, dtype=float)
    if a.shape != (n + 1, n + 1) or not np.all(np.isfinite(a)):
        return [f"inverse n={n}: shape {a.shape} or non-finite entries"]
    tol = C_ENTRY * (n + 1) * EPS
    problems = []
    y = np.array([(-1) ** (n + i) * (n + 1) * math.comb(n + 1, i) for i in range(n + 1)], dtype=float)
    if np.max(_rel(a[:, n], y)) > tol:
        problems.append(f"inverse n={n}: last column differs from (-1)^(n+i) (n+1) C(n+1,i)")
    if np.max(_rel(a, a.T)) > tol:
        problems.append(f"inverse n={n}: not symmetric")
    if np.max(_rel(a, a[::-1, ::-1].T)) > tol:
        problems.append(f"inverse n={n}: not persymmetric")
    idx = np.arange(n + 1)
    if not np.array_equal(np.sign(a), (-1.0) ** (idx[:, None] + idx[None, :])):
        problems.append(f"inverse n={n}: signs are not a checkerboard")
    return problems


def split_factors(n: int) -> dict:
    """The dft split as exact integers: Toeplitz bands t, tt = d t_d; Hankel anti-diagonals h, ht = (s+1) h_s."""
    band = [(-1) ** d * math.comb(n + 1, d) ** 2 for d in range(n + 1)]
    anti = [(-1) ** (s + 1) * math.comb(n + 1, s + 1) ** 2 for s in range(2 * n + 1)]
    return {
        "t_col": band,
        "tt_col": [d * v for d, v in enumerate(band)],
        "h": anti,
        "ht": [(s + 1) * v for s, v in enumerate(anti)],
        "binom_diag": [math.comb(n, i) for i in range(n + 1)],
    }


def _log_norm(logs) -> float:
    """log of a 2-norm from the logs of the magnitudes, so that no square overflows."""
    logs = np.asarray(logs, dtype=float)
    return float(0.5 * np.logaddexp.reduce(2.0 * logs)) if logs.size else -math.inf


def _logs(values) -> np.ndarray:
    """log |v| of exact integers or floats; -inf for 0."""
    return np.array([math.log(abs(v)) if v else -math.inf for v in values], dtype=float)


def dft_log_scale(n: int, b) -> float:
    """log of S = eps log2(P) (|tt| |h| + |t| |ht|) |y|, y = b / binom, P the FFT size.

    S is the normwise rounding error of the FFT products the dft solve makes
    (circulant products with the split factors, on the descaled b).  The
    error of a dft solve, measured as |binom (x_hat - x)|, has stayed below
    0.24 S at every degree from 5 to 128 (README.md), however large it is
    against x.  Computed in logs: past n = 128 the products overflow.
    """
    f = split_factors(n)
    plan = 1 << (2 * n + 1).bit_length()  # next power of two >= 2n + 2
    lt, ltt, lh, lht = (_log_norm(_logs(f[k])) for k in ("t_col", "tt_col", "h", "ht"))
    with np.errstate(divide="ignore"):
        ly = _log_norm(np.log(np.abs(np.asarray(b, dtype=float))) - _logs(f["binom_diag"]))
    return math.log(EPS * max(1.0, math.log2(plan))) + float(np.logaddexp(ltt + lh, lt + lht)) + ly


def dft_error_excess(n: int, x_hat, x_true, b) -> float:
    """|binom (x_hat - x_true)| / (C_DFT S); above 1 the dft answer is wrong."""
    with np.errstate(divide="ignore"):
        le = _log_norm(np.log(np.abs(np.asarray(x_hat, dtype=float) - x_true)) + _logs(split_factors(n)["binom_diag"]))
    return math.exp(min(le - math.log(C_DFT) - dft_log_scale(n, b), 700.0))


def dft_relative_bound(n: int, x) -> float:
    """Bound on a table's relative 2-norm dft error for the system M x: C_DFT S / |x|, plus C_FORWARD kappa eps.

    binom >= 1, so |x_hat - x| <= |binom (x_hat - x)|; the second term covers
    the table's own reference, which is within a forward error of x.
    """
    x = np.asarray(x, dtype=float)
    log_bound = math.log(C_DFT) + dft_log_scale(n, mass_reference(n) @ x) - math.log(float(np.linalg.norm(x)))
    return math.exp(min(log_bound, 700.0)) + C_FORWARD * kappa2(n) * EPS


def check_structured(n: int, si, x_true=None, b=None, x_dft=None) -> list:
    """The dft split's factors against signed squared binomials, and a solve through its spectra.

    x_dft is the package's solve_dft with this split on b = M x_true; it is
    held to the dft error bound, which checks the circulant spectra.
    """
    problems = []
    for name, exact in split_factors(n).items():
        ref = np.array([float(v) for v in exact])
        got = np.asarray(getattr(si, name, np.empty(0)), dtype=float)
        # the binomials come from a ratio recurrence, the other factors from exact integers
        tol = C_ENTRY * ((n + 1) if name == "binom_diag" else 1) * EPS
        if got.shape != ref.shape or not np.max(_rel(got, ref)) <= tol:
            problems.append(f"structured n={n}: {name} differs from the exact split factors")
    if x_dft is not None:
        x_dft = np.asarray(x_dft, dtype=float)
        if x_dft.shape != (n + 1,) or not np.all(np.isfinite(x_dft)):
            problems.append(f"structured n={n}: solve_dft gave shape {x_dft.shape} or non-finite values")
        elif dft_error_excess(n, x_dft, x_true, b) > 1.0:
            problems.append(f"structured n={n}: solve_dft error above {C_DFT} S")
    return problems


def check_eigenvalues(n: int, lam) -> list:
    lam = np.asarray(lam, dtype=float)
    ref = eigenvalues_reference(n)
    if lam.shape != ref.shape or np.max(_rel(lam, ref)) > C_ENTRY * (n + 1) * EPS:
        return [f"eigenvalues n={n}: differ from (n!)^2/((n+i+1)!(n-i)!)"]
    return []


def q_defects(n: int, q, lam) -> tuple:
    """(max |Q^T Q - I|, max |M Q - Q diag(lam)| / lam_0), each over (n+1) eps."""
    q = np.asarray(q, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ortho = float(np.max(np.abs(q.T @ q - np.eye(n + 1))))
        resid = float(np.max(np.abs(mass_reference(n) @ q - q * lam))) / float(lam[0])
    scale = (n + 1) * EPS
    return ortho / scale, resid / scale


def check_q(n: int, q, lam) -> list:
    """Orthogonality and eigen-residual within C_ORTHO (n+1) eps."""
    ortho, resid = q_defects(n, q, lam)
    problems = []
    if not ortho <= C_ORTHO:
        problems.append(f"build_q n={n}: |Q^T Q - I| = {ortho:.3g} (n+1) eps > {C_ORTHO} (n+1) eps")
    if not resid <= C_ORTHO:
        problems.append(f"build_q n={n}: |MQ - Q Lambda|/lambda_0 = {resid:.3g} (n+1) eps > {C_ORTHO} (n+1) eps")
    return problems


def check_cholesky(n: int, lower) -> list:
    low = np.asarray(lower, dtype=float)
    ref = mass_reference(n)
    if low.shape != ref.shape or np.any(np.triu(low, 1) != 0.0) or np.any(np.diag(low) <= 0.0):
        return [f"cholesky n={n}: not lower triangular with a positive diagonal"]
    if np.max(np.abs(low @ low.T - ref)) > C_BACKWARD * (n + 1) * EPS * np.max(ref):
        return [f"cholesky n={n}: L L^T differs from M"]
    return []


# ---------------------------------------------------------------------------
# solves


def m_norm_error(n: int, x_hat, x_true) -> float:
    m = mass_reference(n)
    d = np.asarray(x_hat, dtype=float) - x_true
    return math.sqrt(max(float(d @ (m @ d)), 0.0) / float(x_true @ (m @ x_true)))


def check_solve(method: str, n: int, x_hat, x_true, b) -> list:
    """Finite; forward error within C_FORWARD kappa eps, or C_DFT S for dft; backward error (eig, cho)."""
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.shape != (n + 1,) or not np.all(np.isfinite(x_hat)):
        return [f"{method} n={n}: solution has shape {x_hat.shape} or non-finite values"]
    if method == "dft":
        excess = dft_error_excess(n, x_hat, x_true, b)
        return [f"dft n={n}: error {excess:.3g} times the bound {C_DFT} S"] if excess > 1.0 else []
    problems = []
    fwd = float(np.linalg.norm(x_hat - x_true)) / float(np.linalg.norm(x_true))
    if fwd > C_FORWARD * kappa2(n) * EPS:
        problems.append(f"{method} n={n}: forward error {fwd:.3g} > {C_FORWARD} kappa2 eps")
    if method in ("eig", "cho"):
        r = float(np.linalg.norm(mass_reference(n) @ x_hat - b))
        back = r / ((1.0 / (n + 1)) * float(np.linalg.norm(x_hat)) + float(np.linalg.norm(b)))
        if back > C_BACKWARD * (n + 1) * EPS:
            problems.append(f"{method} n={n}: backward error {back:.3g} > {C_BACKWARD} (n+1) eps")
    return problems


def check_ordering(n: int, errors: dict, label: str) -> list:
    """The paper's ordering of M-norm errors: dft > direct, and direct >= eig, cho once kappa bites."""
    problems = []
    if not errors["dft"] > errors["direct"]:
        problems.append(f"{label} n={n}: dft error {errors['dft']:.3g} not above direct {errors['direct']:.3g}")
    if n >= ORDERING_FROM and not errors["direct"] >= max(errors["eig"], errors["cho"]):
        problems.append(f"{label} n={n}: direct error {errors['direct']:.3g} below eig or cho")
    return problems


# ---------------------------------------------------------------------------
# CSV tables


def parse_csv(text: str, columns: list, n_max: int, label: str):
    """Header, degree column and finite values checked; returns ({column: array}, problems)."""
    if not text.endswith("\n"):
        return None, [f"{label}: output does not end in a newline"]
    lines = text[:-1].split("\n")
    header = ["n"] + columns
    if lines[0].split(",") != header:
        return None, [f"{label}: header {lines[0]!r}, expected {','.join(header)!r}"]
    if len(lines) != n_max + 2:
        return None, [f"{label}: {len(lines) - 1} rows, expected {n_max + 1}"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows) or [r[0] for r in rows] != [str(n) for n in range(n_max + 1)]:
        return None, [f"{label}: rows are not degrees 0..{n_max} with {len(header)} fields"]
    try:
        table = {c: np.array([float(r[k + 1]) for r in rows]) for k, c in enumerate(columns)}
    except ValueError as exc:
        return None, [f"{label}: {exc}"]
    bad = [c for c, col in table.items() if not np.all(np.isfinite(col))]
    if bad:
        return None, [f"{label}: non-finite values in {', '.join(bad)}"]
    return table, []


def projection_columns(methods=METHODS) -> list:
    return [TAGS[m] + fam for fam in PROJECTION_FAMILIES for m in methods]


def random_columns(methods=METHODS) -> list:
    return [TAGS[m] + fam for fam in RANDOM_FAMILIES for m in methods]


@functools.lru_cache(maxsize=None)
def _projection(func: str) -> LegendreProjection:
    return LegendreProjection(FUNCTIONS[func])


def check_projection_csv(func: str, text: str, n_max: int) -> list:
    label = f"project {func}"
    table, problems = parse_csv(text, projection_columns(), n_max, label)
    if problems:
        return problems
    proj = _projection(func)
    for n in range(n_max + 1):
        kappa = kappa2(n)
        fp_ref = proj.best_error(n)
        amp = amplification(n, proj.bernstein_coefficients(n))
        for tag in ("Eig", "cho"):
            gap = abs(table[tag + "fp"][n] - fp_ref)
            if gap > C_FORWARD * (n + 1) * EPS * math.sqrt(kappa) + QUADRATURE_SLACK * fp_ref:
                problems.append(f"{label} n={n}: {tag}fp {table[tag + 'fp'][n]:.17g} vs Legendre projection {fp_ref:.17g}")
            if table[tag + "res"][n] > C_BACKWARD * (n + 1) * EPS * (amp + 1.0):
                problems.append(f"{label} n={n}: {tag}res {table[tag + 'res'][n]:.3g} above the backward-stable bound")
        for tag in ("Eig", "cho", "direct"):
            if table[tag + "err"][n] > C_FORWARD * kappa * EPS:
                problems.append(f"{label} n={n}: {tag}err {table[tag + 'err'][n]:.3g} > {C_FORWARD} kappa2 eps")
        if table["DFTerr"][n] > dft_relative_bound(n, proj.bernstein_coefficients(n)):
            problems.append(f"{label} n={n}: DFTerr {table['DFTerr'][n]:.3g} above the dft bound")
    top = {m: table[TAGS[m] + "Pifp"][n_max] for m in METHODS}
    problems += check_ordering(n_max, top, label)
    return problems


def random_solutions(seed: int, n_max: int) -> list:
    """The random table's x_true per degree: one xorshift64* stream, uniform in [-1/2, 1/2)."""
    gen = Xorshift64Star(seed)
    return [gen.uniform(-0.5, 0.5, n + 1) for n in range(n_max + 1)]


def check_random_csv(seed: int, text: str, n_max: int) -> list:
    label = f"random seed={seed}"
    table, problems = parse_csv(text, random_columns(), n_max, label)
    if problems:
        return problems
    for n, x_true in enumerate(random_solutions(seed, n_max)):
        amp = amplification(n, x_true)
        for tag in ("Eig", "cho", "direct"):
            for fam in ("L2err", "Merr"):
                if table[tag + fam][n] > C_FORWARD * kappa2(n) * EPS:
                    problems.append(f"{label} n={n}: {tag}{fam} {table[tag + fam][n]:.3g} > {C_FORWARD} kappa2 eps")
        for tag in ("Eig", "cho"):
            if table[tag + "res"][n] > C_BACKWARD * (n + 1) * EPS * (amp + 1.0):
                problems.append(f"{label} n={n}: {tag}res {table[tag + 'res'][n]:.3g} above the backward-stable bound")
        if table["DFTL2err"][n] > dft_relative_bound(n, x_true):
            problems.append(f"{label} n={n}: DFTL2err {table['DFTL2err'][n]:.3g} above the dft bound")
    top = {m: table[TAGS[m] + "Merr"][n_max] for m in METHODS}
    problems += check_ordering(n_max, top, label)
    return problems


def check_conditioning_csv(text: str, n_max: int) -> list:
    label = "conditioning"
    table, problems = parse_csv(text, ["kappa2", "kappam2"], n_max, label)
    if problems:
        return problems
    for n in range(n_max + 1):
        tol = C_ENTRY * (n + 1) * EPS
        exact = kappa2(n)
        if _rel(table["kappa2"][n], float(exact)) > tol:
            problems.append(f"{label} n={n}: kappa2 {float(table['kappa2'][n])!r} != C(2n+1,n) = {exact}")
        if _rel(table["kappam2"][n], math.sqrt(exact)) > tol:
            problems.append(f"{label} n={n}: kappam2 {float(table['kappam2'][n])!r} != sqrt(C(2n+1,n))")
    return problems


def select_columns(text: str, columns: list) -> str:
    """The degree column and the named columns of a CSV text, in the given order."""
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    keep = [0] + [header.index(c) for c in columns]
    return "\n".join(",".join(line.split(",")[k] for k in keep) for line in lines) + "\n"
