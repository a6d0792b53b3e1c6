"""Tests for problem-file parsing and the command-line driver."""

import gc
import json

import numpy as np
import pytest
from jsonschema.validators import validator_for

from lurecert import cli
from lurecert.cli import main
from lurecert.problemio import PAIRS_SCHEMA, PROBLEM_SCHEMA, ProblemFileError, parse_problem
from lurecert.solver import FEASIBLE, FeasibilityResult

from helpers import random_lure

REFERENCE_PROBLEM = {
    "schema_version": 1,
    "system": {
        "A": [[1.2, 0.0, 0.0], [0.1, 0.8, 0.0], [0.0, 0.1, 0.6]],
        "B": [[0.2], [0.0], [0.0]],
        "B_psi": [[0.0], [0.0], [0.2]],
        "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "domain": "discrete",
    },
    "nonlinearity": {
        "variant": "lipschitz",
        "rho": 0.5,
        "theta_y": [[4.0, 0.0], [0.0, 1.0]],
        "theta_psi": [[1.0]],
    },
    "eta": 0.9,
    "gains": {"K": [[-6.0, -0.6, 1.5]], "K_psi": [[-1.0]]},
    "builtin_psi": ["paper1", "paper2", "paper3"],
}

SCALAR_INFEASIBLE = {
    "schema_version": 1,
    "system": {
        "A": [[1.0]],
        "B": [[0.0]],
        "B_psi": [[1.0]],
        "C": [[1.0]],
        "domain": "continuous",
    },
    "nonlinearity": {
        "variant": "lipschitz",
        "rho": 0.1,
        "theta_y": [[1.0]],
        "theta_psi": [[1.0]],
    },
    "eta": 0.1,
    "gains": {"K": [[0.0]], "K_psi": [[0.0]]},
}

# a feasible DT-Lipschitz analysis: the full solve takes 11 Newton steps
DIAGONAL_DT = {
    "schema_version": 1,
    "system": {
        "A": [[0.5, 0.0], [0.0, 0.5]],
        "B": [[1.0], [0.0]],
        "B_psi": [[0.0], [1.0]],
        "C": [[1.0, 0.0]],
        "domain": "discrete",
    },
    "nonlinearity": {
        "variant": "lipschitz",
        "rho": 0.2,
        "theta_y": [[1.0]],
        "theta_psi": [[1.0]],
    },
    "eta": 0.9,
    "gains": {"K": [[0.0, 0.0]], "K_psi": [[0.0]]},
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseProblem:
    def test_reference_document(self):
        problem = parse_problem(json.dumps(REFERENCE_PROBLEM))
        assert problem.system.n_x == 3
        assert problem.eta == 0.9
        assert problem.gains is not None
        assert problem.builtin_psi == ("paper1", "paper2", "paper3")
        assert len(problem.digest) == 64

    def test_invalid_json(self):
        with pytest.raises(ProblemFileError, match="not valid JSON"):
            parse_problem("{")

    def test_schema_violation_reports_path(self):
        doc = dict(REFERENCE_PROBLEM, eta="high")
        with pytest.raises(ProblemFileError, match="eta"):
            parse_problem(json.dumps(doc))

    def test_wrong_schema_version(self):
        doc = dict(REFERENCE_PROBLEM, schema_version=2)
        with pytest.raises(ProblemFileError):
            parse_problem(json.dumps(doc))

    def test_variant_field_consistency(self):
        nl = {"variant": "lipschitz", "rho": 0.5, "theta_y": [[1.0]]}
        doc = dict(REFERENCE_PROBLEM, nonlinearity=nl)
        with pytest.raises(ProblemFileError, match="theta_psi"):
            parse_problem(json.dumps(doc))
        nl = {"variant": "monotone", "gamma": [[1.0]], "rho": 0.5}
        doc = dict(REFERENCE_PROBLEM, nonlinearity=nl)
        with pytest.raises(ProblemFileError, match="unexpected"):
            parse_problem(json.dumps(doc))

    def test_ragged_matrix_rejected(self):
        doc = json.loads(json.dumps(REFERENCE_PROBLEM))
        doc["system"]["A"] = [[1.0, 0.0], [1.0]]
        with pytest.raises(ProblemFileError):
            parse_problem(json.dumps(doc))

    @pytest.mark.parametrize("schema", [PROBLEM_SCHEMA, PAIRS_SCHEMA],
                             ids=["problem", "pairs"])
    def test_schema_is_valid(self, schema):
        validator_for(schema).check_schema(schema)

    def test_digest_tracks_content(self):
        a = parse_problem(json.dumps(REFERENCE_PROBLEM))
        changed = dict(REFERENCE_PROBLEM, eta=0.8)
        b = parse_problem(json.dumps(changed))
        assert a.digest != b.digest


class TestAnalyzeCommand:
    def test_reference_feasible(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        out = tmp_path / "report.json"
        assert main(["analyze", path, "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "feasible"
        assert doc["command"] == "analyze"
        assert len(doc["input_digest"]) == 64
        p = np.array(doc["P"])
        assert np.linalg.eigvalsh(p)[0] > 0

    def test_infeasible_exit_code(self, tmp_path):
        path = write_problem(tmp_path, SCALAR_INFEASIBLE)
        assert main(["analyze", path, "--quiet"]) == 2

    def test_missing_gains(self, tmp_path):
        doc = {k: v for k, v in REFERENCE_PROBLEM.items() if k != "gains"}
        path = write_problem(tmp_path, doc)
        assert main(["analyze", path, "--quiet"]) == 1

    def test_schema_error_exit_code(self, tmp_path):
        path = write_problem(tmp_path, dict(REFERENCE_PROBLEM, eta="x"))
        assert main(["analyze", path, "--quiet"]) == 1

    def test_missing_file(self):
        assert main(["analyze", "/nonexistent/problem.json", "--quiet"]) == 1

    def test_explicit_theorem_must_match_domain(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        code = main(["analyze", path, "--theorem", "CT-Lip-analysis", "--quiet"])
        assert code == 1

    @pytest.mark.parametrize("tag", ["CT-Lip-synthesis", "CT-Lip-conservative"])
    def test_synthesis_tag_is_a_usage_error(self, tmp_path, capsys, tag):
        path = write_problem(tmp_path, SCALAR_INFEASIBLE)
        assert main(["analyze", path, "--theorem", tag, "--quiet"]) == 1
        assert f"{tag} is a synthesis form" in capsys.readouterr().err

    def test_nonpositive_margin_min_flag_is_a_usage_error(self, tmp_path, capsys):
        # a negative margin_min would let an infeasible plant pass the audit
        path = write_problem(tmp_path, SCALAR_INFEASIBLE)
        assert main(["analyze", path, "--margin-min", "-5", "--quiet"]) == 1
        assert "margin_min" in capsys.readouterr().err

    def test_nonpositive_margin_min_in_file_is_a_usage_error(self, tmp_path, capsys):
        doc = dict(SCALAR_INFEASIBLE, solver={"margin_min": -5})
        path = write_problem(tmp_path, doc)
        assert main(["analyze", path, "--quiet"]) == 1
        assert "margin_min" in capsys.readouterr().err


def zero_gain_problem(sys, nonlinearity, eta):
    """A problem document for ``sys`` under K = 0, K_psi = 0."""
    return {
        "schema_version": 1,
        "system": {"A": sys.A.tolist(), "B": sys.B.tolist(),
                   "B_psi": sys.B_psi.tolist(), "C": sys.C.tolist(),
                   "domain": sys.domain},
        "nonlinearity": nonlinearity,
        "eta": eta,
        "gains": {"K": np.zeros((sys.n_u, sys.n_x)).tolist(),
                  "K_psi": np.zeros((sys.n_u, sys.n_psi)).tolist()},
    }


class TestThetaScaling:
    """The analysis inequalities are homogeneous in (P, Theta) jointly, so
    scaling every Theta by s > 0 must not change an `analyze` verdict."""

    @staticmethod
    def scaled_class(variant, level, s):
        if variant == "lipschitz":
            return {"variant": "lipschitz", "rho": level,
                    "theta_y": [[s]], "theta_psi": [[s]]}
        if variant == "sector":
            return {"variant": "sector", "gamma": [[level]], "theta": [[s]]}
        # monotone with bound level, lowered to the sector [0, level] with
        # weight 1 / level
        return {"variant": "sector", "gamma": [[level]], "theta": [[s / level]]}

    @pytest.mark.parametrize("domain", ["discrete", "continuous"])
    @pytest.mark.parametrize("variant", ["lipschitz", "sector", "monotone"])
    def test_verdict_is_scale_free(self, tmp_path, domain, variant):
        sys = random_lure(np.random.default_rng(0), 3, 1, 1, 1, domain,
                          stable=True)
        eta = 0.95 if domain == "discrete" else 0.1
        for level in (0.05, 0.5):
            codes = set()
            for s in (1e-2, 1.0, 1e2):
                doc = zero_gain_problem(sys, self.scaled_class(variant, level, s), eta)
                codes.add(main(["analyze", write_problem(tmp_path, doc), "--quiet"]))
            assert len(codes) == 1 and codes <= {0, 2}, (level, codes)

    def test_small_theta_is_feasible(self, tmp_path):
        sys = random_lure(np.random.default_rng(7), 3, 1, 1, 1, "discrete",
                          stable=True)
        nonlinearity = {"variant": "lipschitz", "rho": 0.05,
                        "theta_y": [[0.01]], "theta_psi": [[0.01]]}
        path = write_problem(tmp_path, zero_gain_problem(sys, nonlinearity, 0.95))
        assert main(["analyze", path, "--quiet"]) == 0


class TestSynthesizeCommand:
    def test_reference_synthesis(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        out = tmp_path / "report.json"
        assert main(["synthesize", path, "--out", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "feasible"
        assert "K" in doc and "P" in doc
        # the designed gains must satisfy the analysis form at P = W^{-1}
        assert doc["analysis_margin"] <= 0

    def test_failed_reaudit_is_undetermined(self, tmp_path):
        # The single-block form is feasible here but certifies nothing: the
        # loop is not contractive for every member of the class, and the
        # analysis re-audit at P = W^{-1} fails.
        doc = {
            "schema_version": 1,
            "system": {"A": [[-0.9, 10.0], [0.0, -0.9]], "B": [[0.0], [0.0]],
                       "B_psi": [[1.0, 0.0], [0.0, 1.0]],
                       "C": [[1.0, 0.0], [0.0, 1.0]], "domain": "continuous"},
            "nonlinearity": {"variant": "lipschitz", "rho": 0.5,
                             "theta_y": [[1.0, 0.0], [0.0, 1.0]],
                             "theta_psi": [[1.0, 0.0], [0.0, 1.0]]},
            "eta": 0.3,
        }
        path = write_problem(tmp_path, doc)
        out = tmp_path / "report.json"
        code = main(["synthesize", path, "--theorem", "CT-Lip-conservative",
                     "--out", str(out), "--quiet"])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["status"] == "undetermined"
        assert report["analysis_margin"] >= 0
        assert "reason" in report
        assert "W" in report and "K" in report

    def test_analysis_tag_is_a_usage_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        code = main(["synthesize", path, "--theorem", "DT-Lip-analysis", "--quiet"])
        assert code == 1
        assert "DT-Lip-analysis is an analysis form" in capsys.readouterr().err

    def test_singular_w_is_undetermined(self, tmp_path, monkeypatch):
        # a feasible verdict whose W cannot be inverted certifies no gains
        def singular_solve(prob, opts):
            witness = {"W": np.diag([1.0, 1.0, 0.0]), "Z": np.ones((1, 3)),
                       "K_psi": np.zeros((1, 1))}
            return FeasibilityResult(status=FEASIBLE, witness=witness,
                                     margin=-1.0, positivity_margins={},
                                     iterations=1, diagnostics={})

        monkeypatch.setattr(cli, "solve", singular_solve)
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        out = tmp_path / "report.json"
        assert main(["synthesize", path, "--out", str(out), "--quiet"]) == 3
        report = json.loads(out.read_text())
        assert report["status"] == "undetermined"
        assert "W" in report and "reason" in report
        assert "K" not in report

    def test_infeasible_synthesis(self, tmp_path):
        # the scalar unstable plant has no control input, so no gain helps
        path = write_problem(tmp_path, SCALAR_INFEASIBLE)
        assert main(["synthesize", path, "--quiet"]) == 2


class TestSimulateCommand:
    def test_outputs_written(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        out = tmp_path / "report.json"
        csv_dir = tmp_path / "csv"
        plot = tmp_path / "traj.svg"
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[[1, 1, 1], [-1, -1, -1]]]))
        code = main(["simulate", path, "--steps", "10", "--pairs", str(pairs),
                     "--csv", str(csv_dir), "--plot", str(plot),
                     "--out", str(out), "--quiet"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["max_ratio"] <= 0.9
        assert (csv_dir / "paper1_pair0_a.csv").exists()
        assert plot.read_text().startswith("<svg")

    def test_one_diverging_pair_exits_2(self, tmp_path, capsys):
        # x -> 3 x: from 1e-300 the first pair stays finite for 1000 steps,
        # the second pair overflows; both pairs are one stacked simulation
        path = write_problem(tmp_path, DIVERGING_DT)
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[[0.0], [1e-300]], [[1.0], [-1.0]]]))
        assert main(["simulate", path, "--pairs", str(pairs), "--steps", "1000",
                     "--quiet"]) == 2
        assert "diverged at step 647" in capsys.readouterr().err

    def test_coincident_pair_is_a_usage_error(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[[1, 1, 1], [1, 1, 1]]]))
        assert main(["simulate", path, "--pairs", str(pairs), "--quiet"]) == 1

    def test_seed_determinism(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["simulate", path, "--steps", "5", "--seed", "7",
                         "--out", str(out), "--quiet"]) == 0
            doc = json.loads(out.read_text())
            del doc["wall_time_seconds"]
            outs.append(doc)
        assert outs[0] == outs[1]

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)

        def run(env_seed, flag_seed=None):
            if env_seed is None:
                monkeypatch.delenv("LURE_CONTRACT_SEED", raising=False)
            else:
                monkeypatch.setenv("LURE_CONTRACT_SEED", str(env_seed))
            out = tmp_path / "env.json"
            argv = ["simulate", path, "--steps", "5", "--out", str(out),
                    "--quiet"]
            if flag_seed is not None:
                argv += ["--seed", str(flag_seed)]
            assert main(argv) == 0
            doc = json.loads(out.read_text())
            del doc["wall_time_seconds"]
            return doc

        assert run(11) == run(None, flag_seed=11)  # env seed == same flag seed
        assert run(11) != run(12)
        assert run(11, flag_seed=12) == run(12)  # the flag wins over env


class TestCheckCommand:
    def test_reference_psi_conforms(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        out = tmp_path / "report.json"
        code = main(["check", path, "--psi", "paper2", "--samples", "2000",
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "no-violation-found"

    def test_violating_psi(self, tmp_path):
        # tanh has slope 1 at the origin, above the declared bound 0.1
        doc = json.loads(json.dumps(SCALAR_INFEASIBLE))
        path = write_problem(tmp_path, doc)
        out = tmp_path / "report.json"
        code = main(["check", path, "--psi", "tanh", "--samples", "2000",
                     "--out", str(out), "--quiet"])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["verdict"] == "violated"
        assert report["witness"] is not None

    def test_unknown_builtin(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        assert main(["check", path, "--psi", "cubic", "--quiet"]) == 1


DIVERGING_DT = {
    "schema_version": 1,
    "system": {"A": [[3.0]], "B": [[0.0]], "B_psi": [[1.0]], "C": [[1.0]],
               "domain": "discrete"},
    "nonlinearity": {"variant": "lipschitz", "rho": 0.1,
                     "theta_y": [[1.0]], "theta_psi": [[1.0]]},
    "eta": 0.9,
    "gains": {"K": [[0.0]], "K_psi": [[0.0]]},
}


class TestExitCodes:
    """Every failure leaves `main` as an exit code, never as a traceback."""

    @staticmethod
    def reference_text(old, new):
        text = json.dumps(REFERENCE_PROBLEM)
        assert old in text
        return text.replace(old, new, 1)

    @pytest.mark.parametrize("argv, code, err", [
        # argparse exits 2, which would read as a negative finding
        (["analyze"], 1, "required"),
        (["analyze", "{problem}", "--theorem", "bogus"], 1, "invalid choice"),
        (["frobnicate", "{problem}"], 1, "invalid choice"),
        (["check", "{problem}"], 1, "--psi"),
        (["simulate", "{ct}", "--t-end", "inf"], 1, "t_end"),
        # non-finite numbers are rejected when the file is parsed
        (["analyze", "{overflow}"], 1, "at system/A/0/0: '1e400' is not"),
        (["analyze", "{nan}"], 1, "at eta: 'NaN' is not"),
        (["simulate", "{problem}", "--pairs", "{pairs}"], 1, "'1e400' is not"),
        (["simulate", "{diverging}", "--steps", "1000"], 2, "diverged at step"),
        # RK4 at a step far beyond the stability limit of the stable CT loop
        (["simulate", "{ct}", "--dt", "10", "--t-end", "1e4"], 2, "diverged at step"),
        # two schema errors: the one reported is jsonschema's best match
        (["analyze", "{two_errors}"], 1,
         "schema violation at system/domain: 'hybrid' is not one of "
         "['continuous', 'discrete']"),
        (["simulate", "{problem}", "--pairs", "{two_error_pairs}"], 1,
         "schema violation at 1: [[1, 1, 1]] is too short"),
        # grids larger than any address space are refused at once
        (["simulate", "{problem}", "--steps", str(10**16)], 1, "Unable to allocate"),
        (["simulate", "{ct}", "--t-end", "1e14"], 1, "Unable to allocate"),
        # a CT grid shorter than half a step has no steps
        (["simulate", "{ct}", "--t-end", "1e-4"], 1, "t_end = 0.0001 is less than half of dt"),
        # a feasible analysis cut short before a centered bound decides nothing
        (["analyze", "{truncated}"], 3, ""),
        (["analyze", "{no_steps}"], 1, "max_iter must be at least 1, got 0"),
        (["analyze", "{negative_steps}"], 1, "max_iter must be at least 1, got -5"),
        # an overflowing pencil is numerical trouble, not a traceback
        (["analyze", "{huge}"], 3, "error: pencil basis contains non-finite entries"),
        (["simulate", "{huge}", "--steps", "5"], 3,
         "error: pencil basis contains non-finite entries"),
        # the seed drives only simulate's and check's draws
        (["analyze", "{problem}", "--seed", "5"], 1, "unrecognized arguments: --seed"),
    ])
    def test_exit_code(self, tmp_path, capsys, argv, code, err):
        files = {
            "problem": json.dumps(REFERENCE_PROBLEM),
            "overflow": self.reference_text('"A": [[1.2', '"A": [[1e400'),
            "nan": self.reference_text('"eta": 0.9', '"eta": NaN'),
            "pairs": "[[[1, 1, 1], [-1, -1, 1e400]]]",
            "two_errors": self.reference_text(
                '"A": [[1.2', '"A": [["a"').replace('"discrete"', '"hybrid"'),
            "two_error_pairs": '[[[1, 1, 1], [1, "a"]], [[1, 1, 1]]]',
            "diverging": json.dumps(DIVERGING_DT),
            "ct": json.dumps(dict(SCALAR_INFEASIBLE, system=dict(
                SCALAR_INFEASIBLE["system"], A=[[-1.0]]))),
            "truncated": json.dumps(dict(DIAGONAL_DT, solver={"max_iter": 3})),
            "no_steps": json.dumps(dict(DIAGONAL_DT, solver={"max_iter": 0})),
            "negative_steps": json.dumps(dict(DIAGONAL_DT, solver={"max_iter": -5})),
            "huge": json.dumps(dict(DIAGONAL_DT, system=dict(
                DIAGONAL_DT["system"], A=[[1e200, 0.0], [0.0, 0.5]]))),
        }
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        argv = [a.format(**paths) for a in argv] + ["--quiet"]
        assert main(argv) == code
        assert err in capsys.readouterr().err


class TestSharedParser:
    """`main` parses every command line with one parser, which must carry
    nothing from one call to the next."""

    def test_usage_error_then_valid_call(self, tmp_path):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        assert main(["analyze", path, "--theorem", "bogus", "--quiet"]) == 1
        assert main(["analyze", path, "--quiet"]) == 0

    def test_theorem_falls_back_to_auto(self, tmp_path):
        path = write_problem(tmp_path, SCALAR_INFEASIBLE)
        out = tmp_path / "report.json"

        def theorem(*flags):
            main(["synthesize", path, *flags, "--out", str(out), "--quiet"])
            return json.loads(out.read_text())["theorem"]

        assert theorem("--theorem", "CT-Lip-conservative") == "CT-Lip-conservative"
        assert theorem() == "CT-Lip-synthesis"

    def test_seed_falls_back_to_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LURE_CONTRACT_SEED", "11")
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        out = tmp_path / "report.json"

        def rates(*flags):
            assert main(["simulate", path, "--steps", "5", *flags,
                         "--out", str(out), "--quiet"]) == 0
            return json.loads(out.read_text())["rates"]

        seeded = rates("--seed", "5")
        from_env = rates()
        assert from_env != seeded
        assert from_env == rates("--seed", "11")

    def test_call_leaves_little_garbage(self, tmp_path):
        # a parser built per call left about 300 objects in reference cycles
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        argv = ["analyze", path, "--quiet"]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage < 100


class TestReportDocument:
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["synthesize"], ["simulate", "--steps", "5"],
        ["check", "--psi", "paper2", "--samples", "200"],
    ])
    def test_stdout_is_the_report(self, tmp_path, capsys, argv):
        path = write_problem(tmp_path, REFERENCE_PROBLEM)
        out = tmp_path / "report.json"
        main([argv[0], path, *argv[1:]])
        printed = json.loads(capsys.readouterr().out)
        main([argv[0], path, *argv[1:], "--out", str(out), "--quiet"])
        written = json.loads(out.read_text())
        del printed["wall_time_seconds"], written["wall_time_seconds"]
        assert printed == written


class TestDemoCommand:
    def test_demo_runs_and_writes_artifacts(self, tmp_path):
        out_dir = tmp_path / "demo"
        code = main(["demo-paper", "--out", str(out_dir), "--quiet"])
        assert code == 0
        for name in ("paper1", "paper2", "paper3"):
            assert (out_dir / f"{name}_x0a.csv").exists()
            assert (out_dir / f"{name}_x0b.csv").exists()
        assert (out_dir / "trajectories_x1.svg").exists()
