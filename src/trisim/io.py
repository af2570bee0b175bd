"""JSON (de)serialization for operators, measures, moments and results.

Complex numbers travel as two-element [re, im] arrays everywhere, and this
module is their one codec: ``complex_array`` reads every nested list of
pairs, ``cvector_to_json`` and ``complex_to_json`` write them.  Floats are
written by the shortest round-trip decimal, so emitted files re-parse to
bit-identical values.  Each document is written as one line with sorted
keys (``python -m json.tool out.json`` pretty-prints it).
"""

from __future__ import annotations

import json
import reprlib

import numpy as np

from .core import AtomicMeasure, ConjugationMap, InputError, TridiagonalSymmetric
from .moments import MomentSequence


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cvector_to_json(v: np.ndarray) -> list[list[float]]:
    """[re, im] pairs of plain floats; a 2-d array gives rows of pairs."""
    a = np.asarray(v, dtype=np.complex128)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def complex_array(v, ndim: int, what: str) -> np.ndarray:
    """The complex array held by the JSON value ``v``: ``ndim`` levels of
    non-empty lists around [re, im] pairs (ndim 0 is one pair).

    Every leaf must be a JSON number: a string is refused, and so is a
    value whose every leaf is a boolean, though numpy reads a boolean among
    other numbers as 0 or 1.  Any other shape, a number float64 cannot
    hold and a non-finite entry raise ``InputError``."""
    try:
        a = np.array(v)
        # numpy holds an integer past 64 bits, or null, among numbers as objects
        numbers = a.dtype.kind in "iuf" or (
            a.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in a.flat)
        )
        a = a.astype(np.float64, copy=False)
        # a list can only come out empty at the innermost axis, which must be 2
        ok = numbers and a.ndim == ndim + 1 and a.shape[-1] == 2 and np.isfinite(a).all()
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        form = (
            "an [re, im] pair",
            "a list of [re, im] pairs",
            "equal-length rows of [re, im] pairs",
        )[ndim]
        raise InputError(f"{what} must be {form}, non-empty and of finite float64 numbers")
    return a.view(np.complex128)[..., 0]


def operator_to_json(m: TridiagonalSymmetric) -> dict:
    return {
        "d": m.dim,
        "kind": "tridiagonal",
        "diag": cvector_to_json(m.diag),
        "offdiag": cvector_to_json(m.offdiag),
    }


def dense_to_json(a: np.ndarray) -> dict:
    return {"d": a.shape[0], "kind": "dense", "rows": cvector_to_json(a)}


def operator_from_json(obj: dict) -> TridiagonalSymmetric | np.ndarray:
    """The operator of a "tridiagonal" document as its bands, of a "dense"
    one as a square complex array; ``classify.is_class_matrix`` takes either."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("operator object must carry a 'kind' field")
    kind = obj["kind"]
    if kind == "tridiagonal":
        try:
            diag = complex_array(obj["diag"], 1, "diag")
            offdiag = complex_array(obj["offdiag"], 1, "offdiag")
        except KeyError as e:
            raise InputError(f"tridiagonal operator missing field {e}") from None
        return TridiagonalSymmetric(diag, offdiag)
    if kind == "dense":
        try:
            rows = complex_array(obj["rows"], 2, "rows")
        except KeyError:
            raise InputError("dense operator missing 'rows'") from None
        if rows.shape[0] != rows.shape[1]:
            raise InputError("dense operator rows must form a square matrix")
        if rows.shape[0] < 2:
            raise InputError("dimension must be at least 2")
        return rows
    raise InputError(f"unknown operator kind {reprlib.repr(kind)}")


def operator_document(
    obj: dict,
) -> tuple[TridiagonalSymmetric | np.ndarray, ConjugationMap | None, np.ndarray | None]:
    """(A, J, x0) of an operator document: A as ``operator_from_json`` reads
    it, J x = C conj(x) from its "C" and x0 from its "x0", each None when
    absent.  The membership criterion needs a J that fixes x0, so a
    document with x0 and no C takes C = I."""
    a = operator_from_json(obj)
    j = ConjugationMap(complex_array(obj["C"], 2, "C")) if "C" in obj else None
    x0 = complex_array(obj["x0"], 1, "x0") if "x0" in obj else None
    if j is None and x0 is not None:
        j = ConjugationMap.standard(len(x0))
    return a, j, x0


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
    try:
        z = [entry["z"] for entry in obj["atoms"]]
        # a mass reads as the pair [mass, 0], padded with False so that a
        # boolean mass makes a pair of booleans, which complex_array refuses;
        # its real parts are copied out contiguous, as the masses of every
        # other measure are
        mass = [[entry["mass"], False] for entry in obj["atoms"]]
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed atom entry: {e}") from None
    masses = complex_array(mass, 1, "atom masses, each read as [mass, 0],").real.copy()
    return AtomicMeasure(complex_array(z, 1, "atom locations"), masses)


def moments_to_json(seq: MomentSequence) -> dict:
    return {"rho": seq.rho, "s": cvector_to_json(seq.values)}


def moments_from_json(obj: dict) -> MomentSequence:
    if not isinstance(obj, dict) or "s" not in obj:
        raise InputError("moment object must carry an 's' list")
    values = complex_array(obj["s"], 1, "s")
    rho = obj.get("rho", len(values) - 1)
    if isinstance(rho, float) and rho.is_integer():
        rho = int(rho)
    if not isinstance(rho, int) or isinstance(rho, bool):
        raise InputError(f"rho must be an integer, got {reprlib.repr(rho)}")
    return MomentSequence(rho=rho, values=values)


def dump_json(obj: dict, path: str | None) -> None:
    # no indent: any indent sends json.dumps through its pure-Python encoder
    text = json.dumps(obj, sort_keys=True)
    if path is None:
        print(text)
    else:
        _write(path, text + "\n")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from None


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 text ({e})") from None
    except ValueError as e:  # a JSONDecodeError, or an integer past the int digit limit
        raise InputError(f"invalid JSON in {path}: {e}") from None
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply") from None
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    if not isinstance(obj, dict):
        raise InputError(f"top-level JSON value in {path} must be an object")
    return obj


def measure_to_csv(mu: AtomicMeasure, path: str) -> None:
    """Plot-ready atom table: one `re,im,mass` row per atom."""
    rows = zip(mu.atoms.tolist(), mu.masses.tolist())
    _write(path, "re,im,mass\n" + "".join(f"{z.real!r},{z.imag!r},{m!r}\n" for z, m in rows))
