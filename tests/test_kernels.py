"""The compiled FFT, LAPACK and vdot kernels, and the public numpy functions that stand in for them."""

import builtins
import importlib.util

import numpy as np
import pytest

from bernmass import kernels, solvers, structured
from bernmass.solvers import METHODS, clear_cache, solve
from bernmass.structured import _dft_apply, structured_inverse_sweep

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
    # the spectra of a sweep and the bare dft apply to 509, and warm solves and their residuals to 29, as bytes
    clear_cache()
    try:
        out = []
        rng = np.random.default_rng(17)
        for si in structured_inverse_sweep(_DEGREES):
            n = si.degree
            b = rng.uniform(-1.0, 1.0, n + 1)
            out += [si._h_pair.tobytes(), si._t_pair.tobytes()]
            with np.errstate(over="ignore", invalid="ignore"):
                out.append(_dft_apply(si, b).tobytes())
            for method in METHODS if n < 30 else ():
                solve(method, n, b, max_degree=29)  # builds the entry; the second solve is warm
                rep = solve(method, n, b, max_degree=29)
                out += [rep.solution.tobytes(), rep.residual]
        return out
    finally:
        clear_cache()


def test_public_fallback_gives_the_same_bytes(monkeypatch):
    want = _outputs()
    public = _public_kernels()
    assert not public.COMPILED and public.solve1 is np.linalg.solve
    monkeypatch.setattr(structured, "_rfft", public.rfft)
    monkeypatch.setattr(structured, "_irfft", public.irfft)
    monkeypatch.setattr(solvers, "_solve1", public.solve1)
    monkeypatch.setattr(kernels, "vdot", np.vdot)
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kwargs: calls.append(1) or rfft(*args, **kwargs))
    assert _outputs() == want
    assert calls  # the fallback went through numpy's public functions


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
    structured_inverse_sweep(range(21))


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
