"""Benchmark of the trisim pipeline: four workloads, end-to-end metrics, and
per-layer timings from a traced run.  See bench/README.md.

One workload, as the benchmark driver runs it from the repository root:

    python3 bench/run.py --workload lib-small --seed 0 --seconds 24 --trace 0

prints a metadata line and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  All four workloads, both modes, as a table:

    python3 bench/run.py --all --seed 0 [--record bench/trajectory.json]

Exit codes: 0 every op ran and every output checked correct; 1 some op
failed or gave a wrong output; 2 usage error or trisim cannot be imported.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, so a second thread on a shared
# two-core machine adds noise, not speed.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

from tracing import ROOT as ROOT_SPAN  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
MEMBERSHIP_TOL = 1e-8  # tol handed to gram_condition_check and canonicalize
MOMENT_DEV_MAX = 1e-7  # largest relative moment deviation of a round trip
RESIDUAL_FLOOR = 1e-17  # a zero residual reads as 17 digits
SUM_ERROR_MAX = 1e-6  # self times must add up to the op wall time
MAX_FAILURES = 1000  # a loop stops early once this many ops failed; the run is wrong anyway


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "lib", "membership" or "cli"
    dims: tuple[tuple[int, float | None], ...]  # (d, gamma) cycle; None = default gamma
    per_dim: int  # distinct inputs per (d, gamma)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lib-small", "lib", tuple((d, None) for d in (4, 6, 8, 10, 12)), 20),
        Workload("lib-large", "lib", tuple((d, 1.01) for d in (32, 40, 48)), 4),
        Workload("membership", "membership", tuple((d, None) for d in (4, 6, 8, 10, 12)), 40),
        Workload("cli", "cli", ((8, None), (12, None), (32, 1.01)), 6),
    )
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "verified_frac": "ratio",
    "residual_digits": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "op.wall_ms": "ms/op",
    "trace.overhead_frac": "ratio",
    "moments.algorithm1.self_ms": "ms/op",
    "moments.algorithm1.total_ms": "ms/op",
    "core.AtomicMeasure.calls": "calls/op",
    "core.AtomicMeasure.self_ms": "ms/op",
    "core.atoms_validated": "atoms/op",
    "core.validation_ratio": "ratio",
    "moments.solve_gap_moments.calls": "calls/op",
    "moments.spectral_moments.calls": "calls/op",
    "moments.spectral_moments.self_ms": "ms/op",
    "similarity.verify_similarity.self_ms": "ms/op",
    "similarity.apply_lhs.calls": "calls/op",
    "similarity.apply_lhs.self_ms": "ms/op",
    "similarity.check_invertible.calls": "calls/op",
    "similarity.check_invertible.self_ms": "ms/op",
    "similarity.orthonormality_residuals.calls": "calls/op",
    "similarity.orthonormality_residuals.self_ms": "ms/op",
    "similarity.eval_recurrence.self_ms": "ms/op",
    "similarity.build_polynomials.self_ms": "ms/op",
    "similarity.build_transform.self_ms": "ms/op",
    "classify.is_class_matrix.calls": "calls/op",
    "classify.is_class_matrix.self_ms": "ms/op",
    "classify.gram_condition_check.self_ms": "ms/op",
    "classify.canonicalize.self_ms": "ms/op",
    "io.load_json.self_ms": "ms/op",
    "io.measure_to_json.self_ms": "ms/op",
    "io.dump_json.self_ms": "ms/op",
    "io.bytes_written": "bytes/op",
    "cli.main.total_ms": "ms/op",
    "cli.startup_ms": "ms/op",
}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Case:
    """One input, ready to run: ``call`` is the timed op, ``check`` inspects its
    result and returns (final residual, atoms in the final measure)."""

    d: int
    gamma: float | None
    call: Callable[[Tracer | None], object]
    check: Callable[[object, Tracer | None], tuple[float, int]]
    startup: Callable[[], float] | None = None  # cli only: seconds a fresh process spends outside main()


def class_matrix(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Bands of a class matrix: diagonal in the unit box, off-diagonal in the
    annulus 0.5 <= |a| <= 2.  The benchmark's own copy of the distribution,
    so its inputs stay fixed when the program changes."""
    diag = rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d)
    radii = np.sqrt(rng.uniform(0.25, 4.0, d - 1))
    phases = rng.uniform(0, 2 * np.pi, d - 1)
    return diag, radii * np.exp(1j * phases)


def dense(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    return np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)


def reference_moments(diag: np.ndarray, offdiag: np.ndarray, rho: int) -> np.ndarray:
    """s_0..s_rho as the (0,0) entries of the plain powers of the matrix
    extended down-right by zero diagonal and unit off-diagonal entries."""
    n = rho + 2
    b = np.zeros(n, dtype=complex)
    b[: len(diag)] = diag
    a = np.ones(n - 1, dtype=complex)
    a[: len(offdiag)] = offdiag
    m = dense(b, a)
    c = np.zeros(n, dtype=complex)
    c[0] = 1.0
    s = np.empty(rho + 1, dtype=complex)
    for k in range(rho + 1):
        s[k] = c[0]
        c = m @ c
    return s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def lib_case(trisim, d, gamma, diag, offdiag) -> Case:
    m = trisim.TridiagonalSymmetric(diag, offdiag)
    schedule = None if gamma is None else trisim.RadiusSchedule(gamma=gamma)

    def call(tracer):
        data = trisim.build_transform(m, schedule=schedule)
        return data, trisim.verify_similarity(m, data)

    def check(result, tracer):
        data, report = result
        if not report.passed:
            raise CheckFailed(f"similarity residual {report.max_residual:.3e} above tol {report.tol:.0e}")
        return report.max_residual, data.measure.n_atoms

    return Case(d, gamma, call, check)


def membership_case(trisim, d, diag, offdiag, q) -> Case:
    a = q @ dense(diag, offdiag) @ q.conj().T
    x0 = q[:, 0]
    j = trisim.ConjugationMap(q @ q.T)
    rho = 2 * d + 1
    want = reference_moments(diag, offdiag, rho)

    def call(tracer):
        gram = trisim.gram_condition_check(a, x0, j, MEMBERSHIP_TOL)
        form = trisim.canonicalize(a, x0, j, MEMBERSHIP_TOL)
        return gram, trisim.spectral_moments(form.matrix, rho)

    def check(result, tracer):
        gram, seq = result
        if not gram.passed:
            raise CheckFailed(f"Gram criterion fails (max relative Gamma {gram.max_relative():.3e})")
        dev = float(np.max(np.abs(seq.values - want) / np.maximum(1.0, np.abs(want))))
        if not dev <= MOMENT_DEV_MAX:
            raise CheckFailed(f"canonical form moves the moments by {dev:.3e}")
        return dev, 0

    return Case(d, None, call, check)


def cli_case(trisim, d, gamma, diag, offdiag, workdir: Path, index: int) -> Case:
    in_path = workdir / f"op{index}.json"
    out_path = workdir / f"out{index}.json"
    times_path = workdir / f"times{index}.json"
    pairs = lambda v: [[z.real, z.imag] for z in v.tolist()]  # noqa: E731
    in_path.write_text(json.dumps({"kind": "tridiagonal", "diag": pairs(diag), "offdiag": pairs(offdiag)}))
    args = ["similarity", "--input", str(in_path), "--output", str(out_path)]
    if gamma is not None:
        args += ["--gamma", repr(gamma)]
    schedule = trisim.RadiusSchedule() if gamma is None else trisim.RadiusSchedule(gamma=gamma)
    want_atoms = trisim.build_transform(trisim.TridiagonalSymmetric(diag, offdiag), schedule=schedule).measure.n_atoms
    env = child_env()

    def call(tracer):
        return trisim.cli.main(args)

    def check(code, tracer):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        if tracer is not None:
            tracer.counts["io.bytes_written"] += out_path.stat().st_size
        out = json.loads(out_path.read_text())
        out_path.unlink()
        if out.get("passed") is not True:
            raise CheckFailed(f"output says passed={out.get('passed')}, max_residual {out.get('max_residual')}")
        n_atoms = len(out["measure"]["atoms"])
        if n_atoms != want_atoms:
            raise CheckFailed(f"{n_atoms} atoms in the output, {want_atoms} in-process")
        return float(out["max_residual"]), n_atoms

    def startup():
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(times_path), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=REPO, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckFailed(f"child exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
        out_path.unlink()
        return wall - json.loads(times_path.read_text())["main_s"]

    return Case(d, gamma, call, check, startup)


def make_cases(trisim, w: Workload, seed: int, workdir: Path) -> list[Case]:
    """The workload's inputs, drawn from ``seed``; consecutive cases cycle
    through ``w.dims``."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    cases = []
    for _ in range(w.per_dim):
        for d, gamma in w.dims:
            diag, offdiag = class_matrix(rng, d)
            if w.kind == "lib":
                cases.append(lib_case(trisim, d, gamma, diag, offdiag))
            elif w.kind == "membership":
                q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                cases.append(membership_case(trisim, d, diag, offdiag, q))
            else:
                cases.append(cli_case(trisim, d, gamma, diag, offdiag, workdir, len(cases)))
    return cases


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import trisim; print(time.perf_counter() - t)"
)


def set_up(trisim, w: Workload, seed: int, workdir: Path) -> tuple[list[Case], float]:
    """Import time of trisim in a fresh interpreter, input generation and a
    warm-up pass over one input per (d, gamma); returns the cases and seconds."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    t0 = time.perf_counter()
    cases = make_cases(trisim, w, seed, workdir)
    for case in cases[: len(w.dims)]:
        try:
            case.check(case.call(None), None)
        except Exception:  # noqa: BLE001 - the timed loop runs this input again and records the failure
            pass
    return cases, float(probe.stdout) + time.perf_counter() - t0


class LoopResult:
    """Every call of a loop, and the fastest call of each case."""

    def __init__(self, n_cases: int):
        self.latencies: list[float] = []
        self.dims: list[tuple[int, float | None]] = []
        self.best = [math.inf] * n_cases
        self.verified = 0
        self.worst_residual = 0.0
        self.failures: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_loop(cases: list[Case], n_dims: int, seconds: float, out: LoopResult, tracer: Tracer | None = None) -> None:
    """Closed loop with one caller: run the cases in order until ``seconds``
    have passed, every case has run once and the last (d, gamma) cycle is
    complete, so every d carries the same weight.  Only ``call`` is timed."""
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(cases)
        case = cases[k]
        error = result = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = case.call(None)
            else:
                with tracer.op():
                    result = case.call(tracer)
        except Exception as e:  # noqa: BLE001 - any exception is a failed op, recorded below
            error = e
        elapsed = time.perf_counter() - t0
        out.latencies.append(elapsed)
        out.dims.append((case.d, case.gamma))
        out.best[k] = min(out.best[k], elapsed)
        if error is None:
            try:
                residual, atoms = case.check(result, tracer)
            except Exception as e:  # noqa: BLE001 - a check that cannot run is a failed op too
                error = e
        if error is None:
            out.verified += 1
            out.worst_residual = max(out.worst_residual, residual)
            if tracer is not None:
                tracer.counts["final_atoms"] += atoms
        else:
            out.failures.append(
                {"case": k, "d": case.d, "gamma": case.gamma, "error": f"{type(error).__name__}: {error}"}
            )
        i += 1
        if len(out.failures) >= MAX_FAILURES:
            return
        if i % n_dims == 0 and i >= len(cases) and time.perf_counter() - start >= seconds:
            return


def end_to_end(loop: LoopResult, setup_s: float) -> dict:
    # Latency is taken per input, as its fastest call: every input runs many
    # times, spread over the run, and the fastest call drops the time that
    # other tenants of a shared host take (see README, "Noise").
    best_ms = np.array(loop.best) * 1e3
    verified_frac = loop.verified / loop.attempted
    return {
        "ops_per_s": verified_frac * 1e3 / float(np.mean(best_ms)),
        "latency_ms_p50": float(np.percentile(best_ms, 50)),
        "latency_ms_p90": float(np.percentile(best_ms, 90)),
        "verified_frac": verified_frac,
        "residual_digits": -math.log10(max(loop.worst_residual, RESIDUAL_FLOOR)) if loop.verified else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, traced: LoopResult, untraced: LoopResult, startups: list[float]) -> dict:
    ops = tracer.ops
    out = {}
    for name in PER_LAYER_UNITS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = tracer.calls[layer] / ops
        elif stat == "self_ms":
            out[name] = tracer.self_s[layer] * 1e3 / ops
        elif stat == "total_ms":
            out[name] = tracer.total_s[layer] * 1e3 / ops
    out["op.wall_ms"] = tracer.total_s[ROOT_SPAN] * 1e3 / ops
    out["trace.overhead_frac"] = float(np.mean(traced.best) / np.mean(untraced.best) - 1.0)
    out["core.atoms_validated"] = tracer.counts["core.atoms_validated"] / ops
    final_atoms = tracer.counts["final_atoms"]
    out["core.validation_ratio"] = tracer.counts["core.atoms_validated"] / final_atoms if final_atoms else 0.0
    out["io.bytes_written"] = tracer.counts["io.bytes_written"] / ops
    out["cli.startup_ms"] = statistics.median(startups) * 1e3 if startups else 0.0
    return out


def openblas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit() -> str:
    if not (REPO / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def machine() -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def per_dim_summary(loop: LoopResult, n_dims: int) -> dict:
    """Per (d, gamma): calls, median over calls and median of the per-input best."""
    out = {}
    for j in range(n_dims):
        d, gamma = loop.dims[j]
        calls = [t for dg, t in zip(loop.dims, loop.latencies) if dg == (d, gamma)]
        out[f"d={d} gamma={gamma or 'default'}"] = {
            "calls": len(calls),
            "calls_p50_ms": statistics.median(calls) * 1e3,
            "best_p50_ms": statistics.median(loop.best[j::n_dims]) * 1e3,
        }
    return out


def run_workload(trisim, w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workdir = REPO / ".bench_work" / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            cases, setup_s = set_up(trisim, w, seed, workdir)
            setups.append(setup_s)
        setup_s = statistics.median(setups)
        n_dims = len(w.dims)
        if not trace:
            loop = LoopResult(len(cases))
            run_loop(cases, n_dims, seconds, loop)
            metrics = end_to_end(loop, setup_s)
            loops, sum_error = [loop], 0.0
        else:
            # whole passes over the inputs, alternating untraced and traced,
            # so both see the same inputs and the same machine load
            untraced, loop = LoopResult(len(cases)), LoopResult(len(cases))
            tracer = Tracer()
            startups: list[float] = []
            passes = 0
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                run_loop(cases, n_dims, 0, untraced)
                tracer.install()
                try:
                    run_loop(cases, n_dims, 0, loop, tracer)
                finally:
                    tracer.uninstall()
                # one fresh `trisim` process per pass, round robin over the inputs
                case = cases[passes % len(cases)]
                passes += 1
                if case.startup is not None:
                    try:
                        startups.append(case.startup())
                    except Exception as e:  # noqa: BLE001 - recorded as a failure like any op
                        loop.failures.append({"case": "startup", "d": case.d, "gamma": case.gamma,
                                              "error": f"{type(e).__name__}: {e}"})
            metrics = per_layer(tracer, loop, untraced, startups)
            loops, sum_error = [untraced, loop], tracer.max_sum_error
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    failures = [f for lp in loops for f in lp.failures]
    result = {
        "correct": not failures and sum_error <= SUM_ERROR_MAX,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": len(failures),
        "metrics": metrics,
    }
    meta = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **machine(),
        "setup_s_repeats": setups,
        "inputs": len(cases),
        "calls": loop.attempted,
        "calls_p50_ms": float(np.percentile(loop.latencies, 50)) * 1e3,
        "calls_p90_ms": float(np.percentile(loop.latencies, 90)) * 1e3,
        "per_dim": per_dim_summary(loop, n_dims),
        "trace_sum_error": sum_error,
        "failures": failures,
    }
    return result, meta


def emit(result: dict, meta: dict) -> None:
    units = END_TO_END_UNITS | PER_LAYER_UNITS
    result = dict(result)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or proc.returncode not in (0, 1):
        return None, None, proc.stderr.strip()
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"], ""


def map_checks(layers: dict[str, dict]) -> list[str]:
    """Structural claims of the layer map that hold at every commit."""
    value = lambda w, k: layers[w]["metrics"][k]["value"]  # noqa: E731
    lines = []
    for w in layers:
        io_ms = sum(v["value"] for k, v in layers[w]["metrics"].items() if k.startswith("io.") or k == "cli.startup_ms")
        lines.append(f"{w}: io.* and cli.startup_ms {'nonzero' if io_ms else 'zero'}")
        lines.append(f"{w}: classify.canonicalize.self_ms {'nonzero' if value(w, 'classify.canonicalize.self_ms') else 'zero'}")
    if "lib-large" in layers:
        share = value("lib-large", "moments.algorithm1.total_ms") / value("lib-large", "op.wall_ms")
        lines.append(f"lib-large: moments.algorithm1 with its children takes {share:.0%} of op time")
    return lines


def run_all(seed: int, seconds: float, record: str | None) -> int:
    ok = True
    entry = {"seed": seed, "seconds": seconds, "date": time.strftime("%Y-%m-%d"), **machine(), "workloads": {}}
    layers = {}
    for name in WORKLOADS:
        row = entry["workloads"][name] = {}
        for trace in (0, 1):
            result, meta, err = run_child(name, seed, seconds, trace)
            if result is None:
                print(f"{name} trace={trace}: no result\n{err}")
                ok = False
                continue
            ok &= result["correct"]
            row["per_layer" if trace else "end_to_end"] = {
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "attempted": result["attempted"],
                "failed": result["failed"],
                **{k: meta[k] for k in ("inputs", "calls", "setup_s_repeats", "per_dim", "trace_sum_error")},
                "failures": meta["failures"][:20],
            }
            if trace:
                layers[name] = result
            print(f"== {name} ({'traced' if trace else 'end to end'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} inputs={meta['inputs']} calls={meta['calls']}")
            for k, v in result["metrics"].items():
                print(f"   {k:45s} {v['value']:14.6g} {v['unit']}")
            for f in meta["failures"][:5]:
                print(f"   FAILED case {f['case']} d={f['d']}: {f['error']}")
    for line in map_checks(layers):
        print(line)
    if record:
        path = Path(record)
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --all: append the results to this JSON trajectory file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.all == (args.workload is not None):
        parser.print_usage(sys.stderr)
        print("error: give exactly one of --workload and --all, a seed >= 0 and seconds > 0", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.record)
    if not (SRC / "trisim" / "__init__.py").is_file():
        print(f"error: no trisim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trisim
    import trisim.cli  # noqa: F401 - not imported by the package itself
    result, meta = run_workload(trisim, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    emit(result, meta)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
