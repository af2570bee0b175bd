"""JSON (de)serialization for operators, measures, moments and results.

Complex numbers travel as two-element [re, im] arrays everywhere; floats
are written by the shortest round-trip decimal, so emitted files re-parse
to bit-identical values.  Each document is written as one line with sorted
keys (``python -m json.tool out.json`` pretty-prints it).
"""

from __future__ import annotations

import json

import numpy as np

from .core import (
    AtomicMeasure,
    ConjugationMap,
    InputError,
    TridiagonalSymmetric,
    cmatrix_from_json,
    cmatrix_to_json,
    complex_from_json,
    cvector_from_json,
    cvector_to_json,
)
from .moments import MomentSequence


def operator_to_json(m: TridiagonalSymmetric) -> dict:
    return {
        "d": m.dim,
        "kind": "tridiagonal",
        "diag": cvector_to_json(m.diag),
        "offdiag": cvector_to_json(m.offdiag),
    }


def dense_to_json(a: np.ndarray) -> dict:
    return {"d": a.shape[0], "kind": "dense", "rows": cmatrix_to_json(a)}


def operator_from_json(obj: dict) -> tuple[str, object]:
    """Returns ("tridiagonal", TridiagonalSymmetric) or ("dense", ndarray)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("operator object must carry a 'kind' field")
    kind = obj["kind"]
    if kind == "tridiagonal":
        try:
            diag = cvector_from_json(obj["diag"])
            offdiag = cvector_from_json(obj["offdiag"])
        except KeyError as e:
            raise InputError(f"tridiagonal operator missing field {e}") from None
        return kind, TridiagonalSymmetric(diag, offdiag)
    if kind == "dense":
        try:
            rows = cmatrix_from_json(obj["rows"])
        except KeyError:
            raise InputError("dense operator missing 'rows'") from None
        if rows.shape[0] != rows.shape[1]:
            raise InputError("dense operator rows must form a square matrix")
        if rows.shape[0] < 2:
            raise InputError("dimension must be at least 2")
        return kind, rows
    raise InputError(f"unknown operator kind {kind!r}")


def conjugation_from_json(obj: dict) -> ConjugationMap | None:
    if "C" not in obj:
        return None
    return ConjugationMap(cmatrix_from_json(obj["C"]))


def vector_from_json(obj: dict, key: str) -> np.ndarray | None:
    if key not in obj:
        return None
    return cvector_from_json(obj[key])


def measure_to_json(mu: AtomicMeasure) -> dict:
    return {
        "atoms": [
            {"z": z, "mass": m}
            for z, m in zip(cvector_to_json(mu.atoms), mu.masses.tolist())
        ]
    }


def measure_from_json(obj: dict) -> AtomicMeasure:
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise InputError("measure object must carry an 'atoms' list")
    atoms = []
    masses = []
    for entry in obj["atoms"]:
        try:
            atoms.append(complex_from_json(entry["z"]))
            masses.append(float(entry["mass"]))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"malformed atom entry: {e}") from None
    return AtomicMeasure(np.array(atoms, dtype=np.complex128), np.array(masses))


def moments_to_json(seq: MomentSequence) -> dict:
    return {"rho": seq.rho, "s": cvector_to_json(seq.values)}


def moments_from_json(obj: dict) -> MomentSequence:
    if not isinstance(obj, dict) or "s" not in obj:
        raise InputError("moment object must carry an 's' list")
    values = cvector_from_json(obj["s"])
    rho = obj.get("rho", len(values) - 1)
    if isinstance(rho, float) and rho.is_integer():
        rho = int(rho)
    if not isinstance(rho, int) or isinstance(rho, bool):
        raise InputError(f"rho must be an integer, got {rho!r}")
    if rho != len(values) - 1:
        raise InputError(f"rho = {rho} does not match {len(values)} moments")
    if rho < 1:
        raise InputError("need at least the moments s_0 and s_1 (rho >= 1)")
    return MomentSequence(rho=rho, values=values)


def dump_json(obj: dict, path: str | None) -> None:
    # no indent: any indent sends json.dumps through its pure-Python encoder
    text = json.dumps(obj, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from None
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    if not isinstance(obj, dict):
        raise InputError(f"top-level JSON value in {path} must be an object")
    return obj


def measure_to_csv(mu: AtomicMeasure, path: str) -> None:
    """Plot-ready atom table: one `re,im,mass` row per atom."""
    with open(path, "w") as fh:
        fh.write("re,im,mass\n")
        for z, m in zip(mu.atoms.tolist(), mu.masses.tolist()):
            fh.write(f"{z.real!r},{z.imag!r},{m!r}\n")
