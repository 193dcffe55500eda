"""The compiled FFT, LAPACK and vdot kernels, and the public numpy functions that stand in for them."""

import builtins
import importlib.util
import warnings

import numpy as np
import pytest

from bernmass import kernels, solvers, structured
from bernmass.bernstein import mass_matrix
from bernmass.solvers import METHODS, NotPositiveDefiniteError, cholesky_factor, clear_cache, solve
from bernmass.structured import _dft_apply, structured_inverse

_DEGREES = list(range(30)) + [100, 256, 300, 509]


def _public_kernels():
    """A second copy of bernmass.kernels, loaded while no private numpy module can be imported."""
    real_import = builtins.__import__

    def no_private_numpy(name, *args, **kwargs):
        if name.startswith("numpy.") and any(part.startswith("_") for part in name.split(".")):
            raise ImportError(f"no module named {name!r}")
        return real_import(name, *args, **kwargs)

    spec = importlib.util.spec_from_file_location("bernmass_public_kernels", kernels.__file__)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "__import__", no_private_numpy)
        spec.loader.exec_module(module)
    return module


def _outputs():
    # the spectra and the bare dft apply to 509, and warm solves and their residuals to 29, as bytes
    clear_cache()
    try:
        out = []
        rng = np.random.default_rng(17)
        for si in map(structured_inverse, _DEGREES):
            n = si.degree
            b = rng.uniform(-1.0, 1.0, n + 1)
            out += [si._h_pair.tobytes(), si._t_pair.tobytes()]
            with np.errstate(over="ignore", invalid="ignore"):
                out.append(_dft_apply(si, b).tobytes())
            for method in METHODS if n < 30 else ():
                solve(method, n, b, max_degree=29)  # builds the entry; the second solve is warm
                rep = solve(method, n, b, max_degree=29)
                out += [rep.solution.tobytes(), rep.residual]
        for n in range(41):  # the Cholesky factors, and the refusals from n = 30
            out.append(_factor_or_refusal(mass_matrix(n).matrix))
        return out
    finally:
        clear_cache()


def test_public_fallback_gives_the_same_bytes(monkeypatch):
    want = _outputs()
    calls = []
    for module, name in ((np.fft, "rfft"), (np.linalg, "cholesky")):
        counted = lambda *a, real=getattr(module, name), name=name, **kw: calls.append(name) or real(*a, **kw)
        monkeypatch.setattr(module, name, counted)
    public = _public_kernels()
    assert not public.COMPILED and public.solve1 is np.linalg.solve
    assert public.cholesky is np.linalg.cholesky
    monkeypatch.setattr(structured, "_rfft", public.rfft)
    monkeypatch.setattr(structured, "_irfft", public.irfft)
    monkeypatch.setattr(solvers, "_solve1", public.solve1)
    monkeypatch.setattr(solvers, "_cholesky", public.cholesky)
    monkeypatch.setattr(kernels, "vdot", np.vdot)
    assert _outputs() == want
    assert {"rfft", "cholesky"} <= set(calls)  # the fallback went through numpy's public functions


def test_compiled_kernels_bound_on_numpy_2(monkeypatch):
    # so the speed of the warm dft and cho solves cannot fall back unnoticed
    assert kernels.COMPILED is (int(np.__version__.split(".")[0]) >= 2)
    if not kernels.COMPILED:
        return
    assert structured._rfft is kernels.rfft and structured._irfft is kernels.irfft
    assert solvers._solve1 is kernels.solve1 and kernels.solve1 is not np.linalg.solve
    b = np.linspace(-1.0, 1.0, 21)
    want = {m: solve(m, 20, b).solution.tobytes() for m in ("dft", "cho")}

    def public(*args, **kwargs):
        raise AssertionError("a warm solve called a public numpy wrapper")

    for module, name in ((np.fft, "rfft"), (np.fft, "irfft"), (np.linalg, "solve")):
        monkeypatch.setattr(module, name, public)
    for m, x in want.items():
        assert solve(m, 20, b).solution.tobytes() == x, m
    structured_inverse(20)


def test_bare_cholesky_bound_on_numpy_2(monkeypatch):
    # so the cold cho builds cannot fall back to numpy's wrapper unnoticed
    if int(np.__version__.split(".")[0]) < 2:
        return
    assert kernels.cholesky is not np.linalg.cholesky and solvers._cholesky is kernels.cholesky
    b = np.linspace(-1.0, 1.0, 21)
    clear_cache()
    want = solve("cho", 20, b).solution.tobytes()
    clear_cache()

    def public(*args, **kwargs):
        raise AssertionError("a cold cho solve called a public numpy wrapper")

    monkeypatch.setattr(np.linalg, "cholesky", public)
    try:
        assert solve("cho", 20, b).solution.tobytes() == want
        with pytest.raises(NotPositiveDefiniteError, match="Matrix is not positive definite"):
            cholesky_factor(mass_matrix(30).matrix)
    finally:
        clear_cache()


def _factor_or_refusal(a):
    """cholesky_factor(a)'s L as bytes, or its refusal's type and message."""
    try:
        factor = cholesky_factor(a)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return factor.degree, factor.lower.shape, factor.lower.tobytes()


def _public_factor_or_refusal(a):
    """What cholesky_factor gave through numpy.linalg.cholesky alone, before it checked the diagonal."""
    try:
        lower = np.linalg.cholesky(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError as exc:
        return NotPositiveDefiniteError, f"Cholesky failed for degree {np.shape(a)[0] - 1}: {exc}"
    return np.shape(a)[0] - 1, lower.shape, lower.tobytes()


def test_cholesky_factor_bitwise_equal_to_numpy_cholesky():
    refused = []
    for n in range(41):
        a = mass_matrix(n).matrix
        got = _factor_or_refusal(a)
        assert got == _public_factor_or_refusal(a), n
        if got[0] is NotPositiveDefiniteError:
            refused.append(n)
    # the assembled M stops being numerically positive definite at n = 30
    assert refused == list(range(30, 41))


_R = np.random.default_rng(5).integers(-3, 4, (12, 12))
_INT_SPD = _R @ _R.T + 12 * np.eye(12, dtype=np.int64)


@pytest.mark.parametrize(
    "a, refused_shape",
    [
        (np.ones(3), (3,)),  # 1-D
        (np.ones((2, 3)), (2, 3)),  # not square
        (np.ones((2, 2, 2)), (2, 2, 2)),  # stacked, singular
        (np.stack([np.eye(3), 4.0 * np.eye(3)]), (2, 3, 3)),  # stacked, positive definite
        (np.empty((0, 0)), (0, 0)),
        (np.array(4.0), ()),  # 0-D
        ([[4.0, 2.0], [2.0, 3.0]], None),  # a nested list
        (np.asfortranarray(np.arange(9.0).reshape(3, 3).T @ np.arange(9.0).reshape(3, 3) + np.eye(3)), None),
        (np.eye(4, dtype=np.float32), None),
        (mass_matrix(12).matrix.astype(np.float32), None),
        (_INT_SPD, None),
        (-np.eye(3, dtype=np.int64), None),
        (mass_matrix(12).matrix.astype(">f8"), None),
        (mass_matrix(30).matrix.astype(">f8"), None),
    ],
    ids=[
        "1-D", "non-square", "3-D singular", "3-D", "0x0", "0-D", "list", "F-order", "float32", "float32 M",
        "int64", "int64 not positive definite", "big-endian", "big-endian not positive definite",
    ],
)
def test_cholesky_factor_keeps_public_types_and_messages(a, refused_shape, monkeypatch):
    # one square matrix of at least 1x1, of any real dtype, gets numpy's factor of it
    # as float64, or its refusal; any other shape a plain ValueError that names it,
    # before LAPACK runs
    if refused_shape is None:
        assert _factor_or_refusal(a) == _public_factor_or_refusal(a)
        return
    monkeypatch.setattr(solvers, "_cholesky", lambda a: pytest.fail("LAPACK ran on a refused shape"))
    want = f"Cholesky needs one square matrix of at least 1x1, not an array of shape {refused_shape}"
    assert _factor_or_refusal(a) == (ValueError, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["all", "last diagonal", "off diagonal"])
def test_cholesky_factor_refuses_a_non_finite_factor(bad, where):
    a = np.eye(3) if where != "all" else np.full((3, 3), bad)
    if where == "last diagonal":
        a[2, 2] = bad
    elif where == "off diagonal":
        a[2, 0] = a[0, 2] = bad
    with pytest.raises(NotPositiveDefiniteError, match=r"^Cholesky failed for degree 2: "):
        cholesky_factor(a)


@pytest.mark.parametrize(
    "a, dtype",
    [
        (np.eye(2) * (2 + 3j), "complex128"),
        (np.eye(2, dtype=np.complex64), "complex64"),  # zero imaginary part, refused all the same
        ([[4.0, 2j], [-2j, 3.0]], "complex128"),  # a nested list
        (np.ones(3, dtype=complex), "complex128"),  # complex and not square
    ],
    ids=["complex128", "complex64 real-valued", "list", "1-D"],
)
def test_cholesky_factor_refuses_a_complex_matrix(a, dtype, monkeypatch):
    # a ValueError naming the dtype, not a ComplexWarning and the real part's factor
    monkeypatch.setattr(solvers, "_cholesky", lambda a: pytest.fail("LAPACK ran on a complex matrix"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = f"Cholesky needs a real matrix, not one of dtype {dtype}; M is real"
        assert _factor_or_refusal(a) == (ValueError, want)


def test_cholesky_factor_takes_a_finite_spd_matrix_near_the_top_of_double_range():
    # each diagonal entry of L is finite, though their squares sum past double range
    a = np.diag([1.7e308, 1.7e308, 1.7e308])
    lower = cholesky_factor(a).lower
    assert lower.tobytes() == np.linalg.cholesky(a).tobytes()


def test_undispatched_vdot_bound_on_numpy_2(monkeypatch):
    # so the norms of every warm solve cannot fall back to np.vdot's dispatch unnoticed
    if int(np.__version__.split(".")[0]) < 2:
        return
    assert kernels.vdot is np.vdot._implementation and kernels.vdot is not np.vdot
    b = np.linspace(-1.0, 1.0, 21)
    want = {m: solve(m, 20, b) for m in METHODS}

    def dispatched(*args, **kwargs):
        raise AssertionError("a warm solve called np.vdot")

    monkeypatch.setattr(np, "vdot", dispatched)
    for m, rep in want.items():
        again = solve(m, 20, b)
        assert again.solution.tobytes() == rep.solution.tobytes() and again.residual == rep.residual, m


def test_fft_normalisations_are_read_only_0d_float64():
    # made once and shared by every call, so no caller may change them
    for n, plan in ((0, 2), (31, 64), (509, 1024)):
        assert structured_inverse(n).plan_size == plan
        assert kernels._inverse_scale(plan) is kernels._inverse_scale(plan)
        for scale, value in ((kernels._UNIT, 1.0), (kernels._inverse_scale(plan), 1.0 / plan)):
            assert scale.shape == () and scale.dtype == np.float64 and scale == value
            assert not scale.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                scale[...] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                scale += 1.0
            assert scale == value


def _fft_inputs(plan):
    # real rows of length s = plan/2 for rfft and spectra of length plan/2 + 1 for
    # irfft: one row, a reversed row, two rows, and the [:, :s] slice of a wider block
    rng = np.random.default_rng(plan)
    s, half = max(plan // 2, 1), plan // 2 + 1
    real = rng.standard_normal((2, plan))
    spectra = rng.standard_normal((2, plan)) + 1j * rng.standard_normal((2, plan))
    return {
        "rfft": [real[0, :s].copy(), real[0, :s][::-1], real[:, :s].copy(), real[:, :s]],
        "irfft": [spectra[0, :half].copy(), spectra[0, :half][::-1], spectra[:, :half].copy(), spectra[:, :half]],
    }


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "public"])
def test_fft_kernels_give_numpys_bytes(compiled):
    k = kernels if compiled else _public_kernels()
    assert k.COMPILED is (compiled and kernels.COMPILED)
    for plan in (2**e for e in range(1, 11)):
        half = plan // 2 + 1
        inputs = _fft_inputs(plan)
        for a in inputs["rfft"]:
            out = np.empty(a.shape[:-1] + (half,), dtype=complex)
            assert k.rfft(a, plan, out) is out and out.tobytes() == np.fft.rfft(a, plan).tobytes(), (plan, a.shape)
        for a in inputs["irfft"]:
            out = np.empty(a.shape[:-1] + (plan,))
            assert k.irfft(a, plan, out) is out and out.tobytes() == np.fft.irfft(a, plan).tobytes(), (plan, a.shape)
