"""Problem- and pairs-file checking against the schema that checked every
matrix entry in jsonschema, which serves as the oracle for error messages."""

import copy
import json
import math

import numpy as np
import pytest
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from lurecert.problemio import (PAIRS_SCHEMA, PROBLEM_SCHEMA, ProblemFileError, load_pairs,
                                parse_problem)

from helpers import random_lure, random_spd
from test_cli import REFERENCE_PROBLEM

FULL_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}
MATRIX_FIELDS = {
    "system": ("A", "B", "B_psi", "C"),
    "nonlinearity": ("theta_y", "theta_psi", "gamma", "theta"),
    "gains": ("K", "K_psi"),
}
OLD_PROBLEM_SCHEMA = copy.deepcopy(PROBLEM_SCHEMA)
for _key, _names in MATRIX_FIELDS.items():
    for _name in _names:
        OLD_PROBLEM_SCHEMA["properties"][_key]["properties"][_name] = FULL_MATRIX
OLD_PAIRS_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 2, "maxItems": 2, "items": FULL_MATRIX["items"]},
}

# the same problem under the other two classes, so that every matrix field occurs
SECTOR_PROBLEM = dict(REFERENCE_PROBLEM, nonlinearity={
    "variant": "sector", "gamma": [[0.5, 0.2]], "theta": [[2.0]]})
MONOTONE_PROBLEM = dict(REFERENCE_PROBLEM, nonlinearity={
    "variant": "monotone", "gamma": [[0.5, 0.1], [0.1, 1.0]]})
PAIRS = [[[1, 1, 1], [-1, -1, 0.5]], [[0.2, 0.3, 0.4], [1, 2, 3]], [[0, 0, 1], [1, 0, 0]]]

# JSON text put in place of one entry, or of one row
ENTRY_CORRUPTIONS = ['"a"', '"1.5"', "true", "false", "null", "[1.0]", "[]", "{}",
                     "1e400", "-1e400", "NaN", "Infinity"]
ROW_CORRUPTIONS = ["[]", "0.5", "3", '"row"', "null", "true", "{}"]


def load(text):
    """``text`` parsed as the program parses it: non-finite literals stay text."""
    def number(cast):
        return lambda literal: cast(literal) if math.isfinite(float(literal)) else literal

    return json.loads(text, parse_float=number(float), parse_int=number(int),
                      parse_constant=number(float))


def oracle_message(schema, text):
    error = best_match(validator_for(schema)(schema).iter_errors(load(text)))
    assert error is not None
    path = "/".join(str(p) for p in error.absolute_path) or "(document root)"
    return f"schema violation at {path}: {error.message}"


def corrupt(rng, doc, matrices, count=1):
    """The text of ``doc`` with ``count`` entries or rows of ``matrices``
    (lists of rows inside ``doc``) replaced by bad JSON."""
    doc = copy.deepcopy(doc)
    literals = {}
    for k in range(count):
        rows = matrices(doc)[rng.integers(len(matrices(doc)))]
        i = rng.integers(len(rows))
        sentinel = f"@corrupt{k}@"
        if rng.random() < 0.3 or not isinstance(rows[i], list):
            rows[i] = sentinel
            literals[sentinel] = ROW_CORRUPTIONS[rng.integers(len(ROW_CORRUPTIONS))]
        else:
            rows[i][rng.integers(len(rows[i]))] = sentinel
            literals[sentinel] = ENTRY_CORRUPTIONS[rng.integers(len(ENTRY_CORRUPTIONS))]
    text = json.dumps(doc)
    for sentinel, literal in literals.items():
        text = text.replace(json.dumps(sentinel), literal)
    return text


def problem_matrices(doc):
    return [doc[key][name] for key, names in MATRIX_FIELDS.items()
            for name in names if isinstance(doc[key].get(name), list) and doc[key][name]]


def problem_case(seed, count=1):
    rng = np.random.default_rng(seed)
    base = (REFERENCE_PROBLEM, SECTOR_PROBLEM, MONOTONE_PROBLEM)[rng.integers(3)]
    return corrupt(rng, base, problem_matrices, count)


def pairs_error(tmp_path, text):
    path = tmp_path / "pairs.json"
    path.write_text(text)
    with pytest.raises(ProblemFileError) as exc:
        load_pairs(str(path), 3)
    return str(exc.value), f"pairs file {path}: "


@pytest.mark.parametrize("seed", range(60))
def test_problem_entry_error_matches_full_schema(seed):
    text = problem_case(1900 + seed)
    with pytest.raises(ProblemFileError) as exc:
        parse_problem(text)
    assert str(exc.value) == oracle_message(OLD_PROBLEM_SCHEMA, text)


@pytest.mark.parametrize("seed", range(60))
def test_pairs_entry_error_matches_full_schema(tmp_path, seed):
    text = corrupt(np.random.default_rng(2900 + seed), PAIRS, lambda doc: doc)
    message, prefix = pairs_error(tmp_path, text)
    assert message == prefix + oracle_message(OLD_PAIRS_SCHEMA, text)


@pytest.mark.parametrize("seed", range(30))
def test_worst_of_several_matrix_errors_matches_full_schema(tmp_path, seed):
    """Rows and entries are ranked as jsonschema ranked them, across matrices."""
    text = problem_case(5900 + seed, count=2 + seed % 3)
    with pytest.raises(ProblemFileError) as exc:
        parse_problem(text)
    assert str(exc.value) == oracle_message(OLD_PROBLEM_SCHEMA, text)
    text = corrupt(np.random.default_rng(6900 + seed), PAIRS, lambda doc: doc, 2 + seed % 3)
    message, prefix = pairs_error(tmp_path, text)
    assert message == prefix + oracle_message(OLD_PAIRS_SCHEMA, text)


# one error outside the matrices: (object or None for the root, field, value)
SCHEMA_ERRORS = [
    ("system", "domain", "hybrid"),
    (None, "eta", "high"),
    ("nonlinearity", "rho", True),
    ("nonlinearity", "extra", [[1.0]]),
    (None, "schema_version", 2),
    (None, "builtin_psi", [7]),
    (None, "solver", {"max_iter": "x"}),
    ("gains", "K_psi", []),
    ("system", "C", 5),
]


@pytest.mark.parametrize("seed", range(3 * len(SCHEMA_ERRORS)))
def test_schema_error_beats_matrix_error(seed):
    """README's rule: of several errors, the one jsonschema ranks best is
    reported, and a schema error is shallower than any row or entry."""
    key, name, value = SCHEMA_ERRORS[seed % len(SCHEMA_ERRORS)]
    doc = copy.deepcopy(REFERENCE_PROBLEM)
    (doc[key] if key else doc)[name] = value
    text = corrupt(np.random.default_rng(3900 + seed), doc, problem_matrices)
    with pytest.raises(ProblemFileError) as exc:
        parse_problem(text)
    assert str(exc.value) == oracle_message(OLD_PROBLEM_SCHEMA, text)
    assert str(exc.value).startswith(f"schema violation at {key or name}")


def test_schema_error_beats_ragged_matrix():
    doc = copy.deepcopy(REFERENCE_PROBLEM)
    doc["system"]["A"][1] = [0.1]
    doc["eta"] = "high"
    with pytest.raises(ProblemFileError, match="^schema violation at eta: 'high' is not"):
        parse_problem(json.dumps(doc))


@pytest.mark.parametrize("key, name, rows, message", [
    ("system", "A", [[1.2, 0.0, 0.0], [0.1, 0.8], [0.0, 0.1, 0.6]],
     "unequal lengths at system/A/1: length 2, but system/A/0 has length 3"),
    ("system", "C", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
     "unequal lengths at system/C/1: length 4, but system/C/0 has length 3"),
    # reported before the gain's shape is checked against the system
    ("gains", "K", [[-6.0, -0.6, 1.5], [1.0]],
     "unequal lengths at gains/K/1: length 1, but gains/K/0 has length 3"),
    ("nonlinearity", "theta_y", [[4.0, 0.0], [0.0]],
     "unequal lengths at nonlinearity/theta_y/1: length 1, "
     "but nonlinearity/theta_y/0 has length 2"),
])
def test_ragged_matrix_reported_at_first_row_of_another_length(key, name, rows, message):
    doc = copy.deepcopy(REFERENCE_PROBLEM)
    doc[key][name] = rows
    with pytest.raises(ProblemFileError) as exc:
        parse_problem(json.dumps(doc))
    assert str(exc.value) == message


def test_pair_members_of_unequal_length(tmp_path):
    message, prefix = pairs_error(tmp_path, "[[[0, 0, 0], [1, 1, 1]], [[1, 1], [1, 1, 1]]]")
    assert message == prefix + "unequal lengths at 1/1: length 3, but 1/0 has length 2"


def perfbench_style_documents():
    """Valid documents as perfbench writes them: numpy arrays through ``tolist``."""
    rng = np.random.default_rng(19)

    def spd(n):
        s = random_spd(rng, n)
        return (s + s.T) / 2

    classes = {
        "lipschitz": lambda n_y, n_psi: {"rho": float(rng.uniform(0.1, 1)),
                                        "theta_y": spd(n_y), "theta_psi": spd(n_psi)},
        "sector": lambda n_y, n_psi: {"gamma": rng.normal(size=(n_psi, n_y)),
                                      "theta": spd(n_psi)},
        "monotone": lambda n_y, n_psi: {"gamma": spd(n_psi)},
    }
    for domain in ("discrete", "continuous"):
        for variant, cls in classes.items():
            for n_x in (2, 3, 4, 5):
                n_y = n_psi = 1 if variant == "lipschitz" else 2
                plant = random_lure(rng, n_x, 2, n_psi, n_y, domain, stable=True)
                yield {
                    "schema_version": 1,
                    "system": {"A": plant.A, "B": plant.B, "B_psi": plant.B_psi, "C": plant.C,
                               "domain": domain},
                    "nonlinearity": {"variant": variant, **cls(n_y, n_psi)},
                    "eta": 0.9 if domain == "discrete" else 0.1,
                    "gains": {"K": rng.normal(size=(2, n_x)),
                              "K_psi": rng.normal(size=(2, n_psi))},
                }


def test_valid_documents_parse_to_identical_arrays():
    def jsonable(doc):
        return {k: jsonable(v) if isinstance(v, dict) else
                (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in doc.items()}

    def same(parsed, source):
        assert parsed.dtype == np.float64 and parsed.shape == source.shape
        assert parsed.tobytes() == source.tobytes()

    for doc in perfbench_style_documents():
        problem = parse_problem(json.dumps(jsonable(doc)))
        for name in MATRIX_FIELDS["system"]:
            same(getattr(problem.system, name), doc["system"][name])
        same(problem.gains.K, doc["gains"]["K"])
        same(problem.gains.K_psi, doc["gains"]["K_psi"])
        for name in MATRIX_FIELDS["nonlinearity"]:
            if name in doc["nonlinearity"]:
                same(getattr(problem.nonlinearity, name), doc["nonlinearity"][name])
