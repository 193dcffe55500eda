#!/usr/bin/env python3
"""Benchmark of bernmass: one workload per run, one process, one BLAS thread.

    python3 bench/run.py --workload paper-tables|solve-stream|large-degree \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It times fresh-interpreter set-up, then
runs whole rounds of the workload for at least S seconds, checks every
output against references computed apart from the package (checks.py), and
prints a report followed, on the last line, by one JSON object with keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics; --trace 1 alternates untraced and traced rounds and gives the
per-layer metrics from the traced ones, plus the tracing overhead.  Each
result also goes to .bench_out/, and the report gives its ratios against the
previous result of the same workload and mode there.
"""

import os
import sys

# pinned before numpy is imported here or in any child process
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["PYTHONPATH"] = "src"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MAX_SPANS = 100_000  # later rounds of a traced run stay untraced, to bound memory

METHODS = ("direct", "dft", "eig", "cho")
APPLY_DEGREES = (5, 10, 15, 20, 25)
FFT_PLANS = (16, 32, 64, 128, 256, 512, 1024)
BUILD_DEGREES = {
    "inverse.inverse_matrix": (16, 32, 64, 128),
    "structured.structured_inverse": (16, 32, 64, 128, 256, 509),
    "spectral.build_q": (16, 32, 64, 128, 256, 512),
    "solvers.cholesky_factor": (8, 16, 24, 29),
    "bernstein.mass_matrix": (16, 32, 64, 128, 256, 512),
}
# summed per traced round: the layers under the paper's tables
PER_ROUND = {
    "experiments.moments_s": "experiments.moments",
    "experiments.legendre_reference_s": "experiments.legendre_reference",
    "experiments.reference_solution_s": "experiments.reference_solution",
    "experiments.render_csv_s": "experiments.render_csv",
    "exact.rational_solve_s": "exact.rational_solve",
    "rng.uniform_s": "rng.uniform",
    "bernstein.evaluate_s": "bernstein.evaluate",
    "bernstein.basis_values_s": "bernstein.basis_values",
    "conditioning.kappa_2_s": "conditioning.kappa_2",
}
RAW_APPLY = {
    "direct": "inverse.apply",
    "dft": "structured.solve_dft",
    "eig": "spectral.solve_spectral",
    "cho": "solvers.solve_cholesky",
}


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    return "us" if "_us" in name else "s"


def environment() -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONPATH")},
    }


def import_times(stderr: str) -> tuple:
    """Cumulative import seconds of bernmass and of scipy.linalg from `python -X importtime`."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative.get("bernmass", 0.0), cumulative.get("scipy.linalg", 0.0)


def setup_probes(workload: str, seed: int, traced: bool, clock) -> tuple:
    """Fresh-interpreter set-up, SETUP_PROBES times.

    Returns (wall seconds, scaled seconds, (bernmass, scipy.linalg) import seconds, scaled).
    """
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + ["bench/probe.py", workload, str(seed)]
    walls, scaled, imports = [], [], []
    clock.mark()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        factor = clock.mark()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
        walls.append(wall)
        scaled.append(wall * factor)
        imports.append(tuple(t * factor for t in import_times(proc.stderr)))
    return walls, scaled, imports


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, factors, prepare_root, imports, overhead) -> dict:
    """Per-layer metrics from the spans of the traced rounds; a layer with no spans reads 0.

    factors maps the root span of the preparation and of each traced round to its
    clock scale factor.
    """
    rounds = [root for root in factors if root != prepare_root]
    idx = {
        name: [(dur * factors[root], key, root) for dur, key, root in spans]
        for name, spans in tracer.index(rounds).items()
    }
    out = {
        "import.bernmass_s": median([a for a, _ in imports]),
        "import.scipy_linalg_s": median([b for _, b in imports]),
    }
    # the rule is built once per process, so its first, uncached call is the one to time
    first = tracer.index([prepare_root]).get("quadrature.default_rule", [])
    out["quadrature.default_rule_s"] = first[0][0] * factors[prepare_root] if first else 0.0
    for metric, span in PER_ROUND.items():
        totals = dict.fromkeys(rounds, 0.0)
        for dur, _, root in idx.get(span, []):
            totals[root] += dur
        out[metric] = median(list(totals.values())) if any(totals.values()) else 0.0
    for m in METHODS:
        solves = [d for d, key, _ in idx.get("solvers.solve", []) if key[0] == m]
        applies = [d for d, _, _ in idx.get(RAW_APPLY[m], [])]
        # each traced solve in solve-stream is followed by its raw apply on the same b
        pairs = list(zip(solves, applies)) if len(solves) == len(applies) else []
        out[f"solvers.front_end_us.{m}"] = median([(s - a) * 1e6 for s, a in pairs])
        for n in APPLY_DEGREES:
            out[f"{RAW_APPLY[m]}_us.n{n}"] = median([d * 1e6 for d, key, _ in idx.get(RAW_APPLY[m], []) if key == n])
    for span, degrees in BUILD_DEGREES.items():
        for n in degrees:
            out[f"{span}_s.n{n}"] = median([d for d, key, _ in idx.get(span, []) if key == n])
    for p in FFT_PLANS:
        out[f"structured.fft_us.p{p}"] = median([d * 1e6 for d, key, _ in idx.get("structured.fft", []) if key == p])
    out["trace.overhead_s"] = overhead
    return out


def load_previous(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper-tables", "solve-stream", "large-degree"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bernmass" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'bernmass'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import bernmass  # noqa: E402  (after the thread pinning above)

    import tracing  # noqa: E402
    from clock import CAL_REF_S, Clock  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402

    env = environment()
    clock = Clock()
    walls, setups, imports = setup_probes(args.workload, args.seed, bool(args.trace), clock)
    workload = WORKLOADS[args.workload](bernmass, args.seed, str(ROOT), clock)
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)

    prepare_root = len(tracer.spans)
    if args.trace:
        patches.install()
    clock.mark()
    try:
        with tracer.span("prepare"):
            workload.prepare()
    finally:
        patches.remove()
    factors = {prepare_root: clock.mark()}

    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if args.trace and i % 2 == 1 and len(tracer.spans) < MAX_SPANS:
            root = len(tracer.spans)
            patches.install()
            try:
                with tracer.span("round"):
                    traced.append(workload.round(tracer, with_cli=False))
            finally:
                patches.remove()
            factors[root] = traced[-1].factor
        else:
            plain.append(workload.round(None, with_cli=not args.trace))
        i += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or i % 2 == 0):
            break

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        overhead = median([r.seconds for r in traced]) - median([r.seconds for r in plain])
        values = layer_metrics(tracer, factors, prepare_root, imports, overhead)
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "setup_s": median(setups),
            "peak_rss_mb": rss_kb / 1024.0,
            "round_s": median([r.seconds for r in plain]),
        }
        for m in METHODS:
            values[f"method_s.{m}"] = median([t for r in plain for t in r.method_samples[m]])
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    result = {"correct": not workload.problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for k, v in env.items():
        print(f"  env {k}: {v}")
    print(f"  rounds: {len(plain)} untraced, {len(traced)} traced; operations {attempted} attempted, {failed} failed")
    print(f"  wall clock: set-up {median(walls):.6f} s, round {median([r.wall for r in plain]):.6f} s; "
          f"calibration {median(clock.samples) * 1e3:.3f} ms median (reference {CAL_REF_S * 1e3:.3f} ms)")
    for fault in workload.faults:
        print(f"  failed: {fault}")
    for problem in workload.problems[:20]:
        print(f"  WRONG: {problem}")
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-trace{args.trace}.json"
    previous = load_previous(result_path)
    for k, v in values.items():
        line = f"  {k} = {v:.6g} {unit(k)}"
        old = (previous or {}).get("metrics", {}).get(k, {}).get("value")
        if old:
            line += f"   (x{v / old:.3f} of the previous {old:.6g})"
        print(line)
    if args.trace:
        plain_s, traced_s = median([r.seconds for r in plain]), median([r.seconds for r in traced])
        print(f"  tracing overhead: {traced_s - plain_s:+.6f} s per round ({traced_s:.6f} traced, {plain_s:.6f} untraced)")
        print("  self time per layer over the traced rounds (calls, wall seconds):")
        traced_roots = [root for root in factors if root != prepare_root]
        for name, (calls, secs) in sorted(tracer.self_times(traced_roots).items(), key=lambda kv: -kv[1][1]):
            print(f"    {name:34s} {calls:8d} {secs:10.6f}")
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    result_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "env": env, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
