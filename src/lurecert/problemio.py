"""Problem-file parsing and report emission for the CLI.

Problem files are JSON documents with an explicit schema_version; they are
checked before any numerics, and every number must be a finite double, so
malformed input yields a path-to-field diagnostic instead of a numpy
traceback.

jsonschema checks a document down to each matrix and each ``--pairs`` pair
member (descending into every entry took most of a small problem's parse
time).  Then `_check_rows` checks the rows and entries of every matrix, a
pair being a matrix with its members as rows, and words and ranks a bad one
as jsonschema would.  A schema error lies shallower than any row or entry,
so reporting it first keeps ``best_match``'s choice over the whole document.
A ragged matrix is reported last, at its first row whose length differs
from row 0.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .model import Gains, Lipschitz, LureSystem, Monotone, NonlinearityClass, SectorBounded

SCHEMA_VERSION = 1

# a matrix, or a member of a pair; its rows and entries are checked by `_check_rows`
_MATRIX = {"type": "array", "minItems": 1}
# what the rows of a matrix must be, validated only to word an error `_check_rows` found
_ROWS = {"items": {"type": "array", "minItems": 1, "items": {"type": "number"}}}
# the class of each nonlinearity variant, whose fields a file gives exactly
_VARIANTS = {"lipschitz": Lipschitz, "sector": SectorBounded, "monotone": Monotone}

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "system", "nonlinearity", "eta"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "system": {
            "type": "object",
            "required": ["A", "B", "B_psi", "C", "domain"],
            "additionalProperties": False,
            "properties": {
                "A": _MATRIX,
                "B": _MATRIX,
                "B_psi": _MATRIX,
                "C": _MATRIX,
                "domain": {"enum": ["continuous", "discrete"]},
            },
        },
        "nonlinearity": {
            "type": "object",
            "required": ["variant"],
            "properties": {
                "variant": {"enum": list(_VARIANTS)},
                "rho": {"type": "number"},
                "theta_y": _MATRIX,
                "theta_psi": _MATRIX,
                "gamma": _MATRIX,
                "theta": _MATRIX,
            },
            "additionalProperties": False,
        },
        "eta": {"type": "number"},
        "gains": {
            "type": "object",
            "required": ["K", "K_psi"],
            "additionalProperties": False,
            "properties": {"K": _MATRIX, "K_psi": _MATRIX},
        },
        "builtin_psi": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "margin_min": {"type": "number"},
                "max_iter": {"type": "integer"},
            },
        },
        "simulation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer"},
                "t_end": {"type": "number"},
                "dt": {"type": "number"},
            },
        },
    },
}


# [[x0a, x0b], ...]: the initial-state pairs of `lurecert simulate --pairs`
PAIRS_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 2, "maxItems": 2, "items": _MATRIX},
}

# (object, field) of every matrix in a problem document, in schema order
_MATRIX_FIELDS = tuple((key, name) for key, sub in PROBLEM_SCHEMA["properties"].items()
                       for name, schema in sub.get("properties", {}).items()
                       if schema is _MATRIX)


class ProblemFileError(ValueError):
    """Problem file failed schema or consistency validation."""


@dataclass(frozen=True)
class Problem:
    system: LureSystem
    nonlinearity: NonlinearityClass
    eta: float
    gains: Optional[Gains] = None
    builtin_psi: tuple = ()
    solver_options: dict = field(default_factory=dict)
    simulation_options: dict = field(default_factory=dict)
    digest: str = ""


def _mat(doc, key):
    return np.array(doc[key], dtype=float)


def _nonlinearity(doc) -> NonlinearityClass:
    variant = doc["variant"]
    cls = _VARIANTS[variant]
    needed = [f.name for f in fields(cls)]
    missing = [k for k in needed if k not in doc]
    if missing:
        raise ProblemFileError(
            f"nonlinearity variant {variant!r} requires fields {missing}")
    extra = set(doc) - {"variant", *needed}
    if extra:
        raise ProblemFileError(
            f"nonlinearity variant {variant!r} has unexpected fields {sorted(extra)}")
    try:
        return cls(**{k: float(doc[k]) if k == "rho" else _mat(doc, k) for k in needed})
    except ValueError as exc:
        raise ProblemFileError(f"nonlinearity: {exc}") from exc


@functools.cache
def _validator(name: str):
    """The validator of schema ``name`` ("problem", "pairs" or "rows"); the
    schema itself is checked once per process."""
    schema = {"problem": PROBLEM_SCHEMA, "pairs": PAIRS_SCHEMA, "rows": _ROWS}[name]
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _parse(text: str, name: str):
    """The JSON document in ``text``, valid against schema ``name``
    ("problem" or "pairs")."""
    # a literal that is no finite double (NaN, Infinity, 1e400) stays text,
    # which the schema then rejects at its path
    def number(cast):
        return lambda literal: cast(literal) if math.isfinite(float(literal)) else literal

    try:
        doc = json.loads(text, parse_float=number(float), parse_int=number(int),
                         parse_constant=number(float))
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"not valid JSON: {exc}") from exc
    # the best-ranked error, as jsonschema.validate reports it, not the first found
    error = best_match(_validator(name).iter_errors(doc))
    if error is not None:
        raise _violation(error)
    if name == "pairs":
        _check_rows([((i,), pair) for i, pair in enumerate(doc)])
    else:
        _check_rows([((key, sub), doc[key][sub]) for key, sub in _MATRIX_FIELDS
                     if sub in doc.get(key, ())])
    return doc


def _where(path) -> str:
    return "/".join(str(p) for p in path) or "(document root)"


def _violation(error) -> ProblemFileError:
    return ProblemFileError(f"schema violation at {_where(error.absolute_path)}: {error.message}")


def _is_matrix(rows) -> bool:
    """Whether ``rows`` are non-empty lists of numbers, all of one length."""
    width = len(rows[0]) if type(rows[0]) is list else 0
    # `type(v) in` rejects bool, and the text the parse hooks keep for non-finite literals
    return width > 0 and all(
        type(row) is list and len(row) == width and all(type(v) in (int, float) for v in row)
        for row in rows)


def _check_rows(matrices):
    """Raise ProblemFileError for the worst row or entry among ``matrices``,
    ``[(path, rows), ...]``, or else for the first ragged one."""
    bad = [(path, rows) for path, rows in matrices if not _is_matrix(rows)]
    if not bad:
        return
    errors = []
    for path, rows in bad:
        for error in _validator("rows").iter_errors(rows):
            error.path.extendleft(reversed(path))
            errors.append(error)
    error = best_match(errors)
    if error is not None:
        raise _violation(error)
    path, rows = bad[0]
    i = next(i for i, row in enumerate(rows) if len(row) != len(rows[0]))
    raise ProblemFileError(f"unequal lengths at {_where((*path, i))}: length {len(rows[i])}, "
                           f"but {_where((*path, 0))} has length {len(rows[0])}")


def parse_problem(text: str) -> Problem:
    doc = _parse(text, "problem")
    s = doc["system"]
    try:
        system = LureSystem(A=_mat(s, "A"), B=_mat(s, "B"), B_psi=_mat(s, "B_psi"),
                            C=_mat(s, "C"), domain=s["domain"])
    except ValueError as exc:
        raise ProblemFileError(f"system: {exc}") from exc
    nc = _nonlinearity(doc["nonlinearity"])
    gains = None
    if "gains" in doc:
        try:
            gains = Gains(K=_mat(doc["gains"], "K"), K_psi=_mat(doc["gains"], "K_psi"))
        except ValueError as exc:
            raise ProblemFileError(f"gains: {exc}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Problem(
        system=system, nonlinearity=nc, eta=float(doc["eta"]), gains=gains,
        builtin_psi=tuple(doc.get("builtin_psi", ())),
        solver_options=dict(doc.get("solver", {})),
        # the schema lets an integer be written 10.0
        simulation_options={k: int(v) if k == "steps" else v
                            for k, v in doc.get("simulation", {}).items()},
        digest=digest,
    )


def load_problem(path) -> Problem:
    with open(path) as fh:
        return parse_problem(fh.read())


def load_pairs(path, n_x: int) -> list:
    """The initial-state pairs [(x0a, x0b), ...] in a JSON file, for a
    system of n_x states."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = _parse(text, "pairs")
    except ProblemFileError as exc:
        raise ProblemFileError(f"pairs file {path}: {exc}") from exc
    # the two members of a pair have one length, which _parse checked
    for i, (a, _) in enumerate(doc):
        if len(a) != n_x:
            raise ProblemFileError(f"pairs file {path}: pair {i} has members of length "
                                   f"{len(a)}, but the system has n_x = {n_x}")
    return [(np.array(a, dtype=float), np.array(b, dtype=float)) for a, b in doc]


def _jsonable(obj):
    """``obj`` with numpy arrays and scalars turned into JSON types."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def build_report(command: str, digest: str | None, status: str, payload: dict,
                 wall_time: float, version: str) -> dict:
    """The machine-readable result document, in JSON types."""
    return {
        "command": command,
        "input_digest": digest,
        "status": status,
        "tool_version": version,
        "wall_time_seconds": wall_time,
        **_jsonable(payload),
    }


def write_report(path, doc: dict):
    """Write the result document ``doc`` to ``path``."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
