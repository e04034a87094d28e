import json
import os
import subprocess
import sys

import pytest

import coposim
from coposim.cli import (
    EXIT_CANTCREAT,
    EXIT_COPOSITIVE,
    EXIT_DATA,
    EXIT_NOINPUT,
    EXIT_NOT_COPOSITIVE,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
)


SRC = os.path.dirname(os.path.dirname(coposim.__file__))


def fresh(*argv):
    """``coposim *argv`` in a new interpreter: (exit code, stdout)."""
    child = subprocess.run(
        [sys.executable, "-m", "coposim", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )
    return child.returncode, child.stdout


def without_elapsed(text):
    record = json.loads(text)
    record.pop("elapsed", None)
    return record


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_detect_copositive_generator(capsys):
    code, record, _ = run_json(
        capsys, "detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "9.01"
    )
    assert code == EXIT_COPOSITIVE
    assert record["verdict"]["verdict"] == "copositive"
    assert record["verdict"]["iterations"] == 59
    assert record["prescreen"]["passed"] is True
    assert record["input"] == {"generator": "eta-ones", "m": 3, "n": 3, "eta": 9.01}


def test_detect_not_copositive_prints_witness(capsys):
    code, record, _ = run_json(
        capsys, "detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "1"
    )
    assert code == EXIT_NOT_COPOSITIVE
    assert record["verdict"]["verdict"] == "not_copositive"
    # the pair prescreen already sees this one at its default depth
    assert record["prescreen"]["passed"] is False
    assert record["verdict"]["iterations"] == 0
    witness = record["verdict"]["witness"]
    from coposim import eta_shift, ones_tensor, verify_witness

    assert verify_witness(eta_shift(1.0, ones_tensor(3, 3)), witness)


def test_detect_refutation_without_prescreen(capsys):
    code, record, _ = run_json(
        capsys,
        "detect",
        "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "1",
        "--no-prescreen",
    )
    assert code == EXIT_NOT_COPOSITIVE
    assert record["prescreen"] is None
    assert record["verdict"]["iterations"] == 2
    assert record["verdict"]["witness"] == [0.5, 0.5, 0.0]


def test_detect_undecided_suggests_relaxation(capsys):
    code, out, err = run(
        capsys, "detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "9"
    )
    assert code == EXIT_UNDECIDED
    assert json.loads(out)["verdict"]["verdict"] == "undecided"
    assert "--sigma > 0" in err


def test_detect_undecided_with_sigma_suggests_a_larger_budget(capsys):
    code, out, err = run(capsys, "detect", "--gen", "motzkin", "--sigma", "1e-4", "--max-iter", "10")
    assert code == EXIT_UNDECIDED
    assert json.loads(out)["verdict"]["verdict"] == "undecided"
    assert "--sigma > 0" not in err
    assert "a larger --sigma or --max-iter" in err


def test_detect_sigma_relaxation(capsys):
    code, record, _ = run_json(
        capsys, "detect", "--gen", "motzkin", "--sigma", "0.001"
    )
    assert code == EXIT_COPOSITIVE
    assert record["verdict"]["verdict"] == "sigma_certified"
    assert record["verdict"]["sigma"] == 0.001
    assert record["verdict"]["iterations"] == 27


def test_detect_certificate_retention(capsys):
    code, record, _ = run_json(
        capsys,
        "detect",
        "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "19",
        "--certificate",
    )
    assert code == EXIT_COPOSITIVE
    cells = record["certificate"]["cells"]
    assert cells and all(len(cell) == 3 for cell in cells)
    A = coposim.eta_shift(19.0, coposim.ones_tensor(3, 3))
    verdict = coposim.detect(A, coposim.DetectorConfig(keep_certificates=True))
    assert cells == [cell.tolist() for cell in verdict.certified_cells]


def test_gen_then_detect_file_round_trip(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, out, _ = run(capsys, "gen", "--gen", "motzkin", "--out", str(path))
    assert code == 0
    code, record, _ = run_json(capsys, "detect", str(path), "--sigma", "0.01")
    assert code == EXIT_COPOSITIVE
    assert record["verdict"]["verdict"] == "sigma_certified"
    assert record["verdict"]["iterations"] == 11
    assert record["input"]["format"] == "tensor"


def test_detect_polynomial_file(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(
        json.dumps(
            {
                "order": 2,
                "dim": 2,
                "monomials": [{"exponents": [2, 0], "coeff": 1.0},
                              {"exponents": [0, 2], "coeff": 1.0}],
            }
        )
    )
    code, record, _ = run_json(capsys, "detect", str(path))
    assert code == EXIT_COPOSITIVE
    assert record["input"]["format"] == "polynomial"


def test_spectral_subcommand(capsys):
    code, record, _ = run_json(capsys, "spectral", "--gen", "ones", "--m", "4", "--n", "4")
    assert code == 0
    assert set(record) == {"rho", "lower", "upper", "iterations"}
    assert record["rho"] == pytest.approx(64.0, abs=1e-6)


def test_spectral_budget_exhausted_is_undecided(capsys, tmp_path):
    code, record, err = run_json(
        capsys, "spectral", "--gen", "random", "--m", "3", "--n", "3", "--max-iter", "1"
    )
    assert code == EXIT_UNDECIDED
    assert record["rho"] is None and record["iterations"] == 1
    assert 0.0 < record["lower"] < record["upper"]
    assert "--max-iter" in err and "--tol" in err

    # one off-diagonal entry: the reducibility restart leaves the upper
    # bound infinite, which is written as null so the record stays JSON
    path = tmp_path / "reducible.json"
    path.write_text('{"order": 3, "dim": 3, "entries": [{"idx": [1, 1, 2], "val": 1.0}]}')
    code, out, _ = run(capsys, "spectral", str(path), "--max-iter", "1")
    assert code == EXIT_UNDECIDED
    assert json.loads(out) == {"rho": None, "lower": 0.0, "upper": None, "iterations": 1}
    assert "Infinity" not in out


def test_prescreen_subcommand(capsys):
    code, record, _ = run_json(
        capsys, "prescreen", "--gen", "example3-b", "--m", "3", "--n", "3", "--seed", "7"
    )
    assert code == 1
    assert record["violated_condition"] == "Diagonal"
    code, record, _ = run_json(
        capsys, "prescreen", "--gen", "random", "--m", "3", "--n", "3"
    )
    assert code == 0
    assert record["passed"] is True


def test_table1_matches_reference(tmp_path, capsys):
    out = tmp_path / "t1.json"
    code, text, _ = run(capsys, "table", "1", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 8
    for row in rows:
        assert row["result"] == row["ref_result"]
        if row["ref_iterations"] is not None:
            assert row["iterations"] == row["ref_iterations"]
    assert "ref_result" in text


def test_table3_matches_reference(tmp_path, capsys):
    out = tmp_path / "t3.json"
    code, _, _ = run(capsys, "table", "3", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 10
    for row in rows:
        assert row["min_it"] == 1 and row["max_it"] == 1
        if row["tensor"] == "A":
            assert row["n_yes"] == 10
        else:
            assert row["n_no"] == 10


def test_table2_single_row_subset(tmp_path, capsys):
    # full table 2 is exercised by the acceptance suite; here just check
    # the command runs and reports the reference columns
    out = tmp_path / "t2.json"
    code, _, _ = run(capsys, "table", "2", "--max-iter", "1000", "--out", str(out))
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 15
    for row in rows:
        if row["eta"] == "rho-1":
            assert row["n_no"] == 10
        else:
            assert row["n_yes"] == 10


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["detect", "--gen", "no-such-generator"])
    assert info.value.code == EXIT_USAGE

    code, _, err = run(capsys, "detect", "--gen", "eta-ones", "--m", "3", "--n", "3")
    assert code == EXIT_USAGE
    assert "--eta" in err

    code, _, _ = run(capsys, "detect")
    assert code == EXIT_USAGE

    missing = tmp_path / "nope.json"
    code, _, _ = run(capsys, "detect", str(missing))
    assert code == EXIT_NOINPUT

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "detect", str(bad))
    assert code == EXIT_DATA

    malformed = tmp_path / "malformed.json"
    # Both record kinds go through one reader; an index or exponent list
    # that is not iterable is malformed input, not an internal error.
    for obj, message in (
        ({"order": 2, "dim": 2, "entries": [{"idx": [1, 1]}]}, "malformed entry"),
        ({"order": 2, "dim": 2, "entries": [{"idx": 5, "val": 1.0}]}, "malformed entry"),
        ({"order": 2, "dim": 2, "entries": [5]}, "malformed entry 5"),
        ({"order": 2, "entries": []}, "malformed tensor object: missing 'dim'"),
        ({"order": 2, "dim": 2, "entries": {}}, "'entries' must be a list"),
        ({"order": 2, "dim": 2, "monomials": [{"exponents": 5, "coeff": 1.0}]},
         "malformed monomial"),
        ({"order": 2, "dim": 2, "monomials": [{"coeff": 1.0}]}, "malformed monomial"),
        ({"dim": 2, "monomials": []}, "malformed polynomial object: missing 'order'"),
        ({"order": 2, "dim": 2, "monomials": 3}, "'monomials' must be a list"),
    ):
        malformed.write_text(json.dumps(obj))
        code, out, err = run(capsys, "detect", str(malformed))
        assert code == EXIT_DATA and out == "" and message in err, obj

    # entry values and coefficients are numbers, not strings or bools
    for val in ("2", True, None, 10**400):
        malformed.write_text(
            json.dumps({"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "val": val}]})
        )
        code, out, err = run(capsys, "detect", str(malformed))
        assert code == EXIT_DATA and out == "" and "real number" in err, val
    for coeff in ("3", True):
        malformed.write_text(json.dumps(
            {"order": 2, "dim": 2, "monomials": [{"exponents": [2, 0], "coeff": coeff}]}
        ))
        code, out, err = run(capsys, "detect", str(malformed))
        assert code == EXIT_DATA and out == "" and "real number" in err, coeff

    gen = ["--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "19"]
    for argv in (
        ["detect", *gen, "--sigma", "-0.5"],
        ["detect", *gen, "--sigma", "nan"],
        ["detect", *gen, "--max-iter", "0"],
        ["detect", *gen, "--tol", "-1e-9"],
        ["detect", *gen, "--min-diameter", "-1"],
        ["table", "1", "--max-iter", "0"],
        ["spectral", "--gen", "ones", "--m", "3", "--n", "3", "--max-iter", "0"],
        ["spectral", "--gen", "ones", "--m", "3", "--n", "3", "--tol", "0"],
        ["prescreen", *gen, "--depth", "0"],
        ["detect", "--gen", "ones", "--m", "-1", "--n", "3"],
        ["detect", "--gen", "ones", "--m", "0", "--n", "3"],
        ["detect", "--gen", "ones", "--m", "3", "--n", "0"],
        ["gen", "--gen", "identity", "--m", "2", "--n", "-2"],
        ["detect", "--gen", "random", "--m", "3", "--n", "3", "--seed", "-1"],
        ["prescreen", "--gen", "example3-b", "--m", "3", "--n", "3", "--seed", "-1"],
        ["spectral", "--gen", "random", "--m", "3", "--n", "3", "--seed", "-1"],
        ["gen", "--gen", "random", "--m", "3", "--n", "3", "--seed", "-1"],
        ["table", "2", "--seed", "-1"],
        ["detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "nan"],
        ["detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "inf"],
        ["detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta=-inf"],
        ["prescreen", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "nan"],
        ["gen", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "inf"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_USAGE, argv

    # seeds live in [0, 2**64): larger ones used to reach the Philox key
    # check (exit 65), directly or through table's seed + trial
    random = ["--gen", "random", "--m", "3", "--n", "3"]
    for seed in (2**64, 2**128, 2**128 - 5):
        for argv in (["detect", *random], ["gen", *random], ["table", "2"], ["table", "3"]):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--seed", str(seed)])
            assert info.value.code == EXIT_USAGE, (argv, seed)
            assert "--seed" in capsys.readouterr().err
    code, _, _ = run(capsys, "gen", *random, "--seed", str(2**64 - 1))
    assert code == 0

    # gen needs a generator, with or without a file argument
    for argv in (["gen"], ["gen", str(tmp_path / "any.json")]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "--gen NAME" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_detect_rejects_nonfinite_entries(capsys, tmp_path, value):
    path = tmp_path / "nonfinite.json"
    path.write_text(
        '{"order": 2, "dim": 2, "entries": [{"idx": [1, 1], "val": %s}, '
        '{"idx": [2, 2], "val": 1.0}]}' % value
    )
    code, out, err = run(capsys, "detect", str(path))
    assert code == EXIT_DATA
    assert out == "" and "not finite" in err


def test_detect_rejects_overflowing_weights(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"order": 3, "dim": 2, "entries": [{"idx": [1, 1, 1], "val": 1}, '
        '{"idx": [2, 2, 2], "val": 1}, {"idx": [1, 1, 2], "val": 1e308}, '
        '{"idx": [1, 2, 2], "val": -1e308}]}'
    )
    code, out, err = run(capsys, "detect", str(path))
    assert code == EXIT_DATA
    assert out == "" and "too large" in err


def test_shapes_above_the_key_bound_are_malformed_input(capsys, tmp_path):
    # Two entries of an order-8, dim-40 tensor: 314 457 495 canonical keys,
    # refused before anything is allocated instead of running out of memory.
    path = tmp_path / "wide.json"
    path.write_text(
        '{"order": 8, "dim": 40, "entries": [{"idx": [1, 1, 1, 1, 1, 1, 1, 1], "val": 1.0}, '
        '{"idx": [1, 2, 3, 4, 5, 6, 7, 40], "val": -1.0}]}'
    )
    for argv in (
        ("detect", str(path)),
        ("prescreen", str(path)),
        ("spectral", str(path)),
        ("gen", "--gen", "ones", "--m", "8", "--n", "40"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_DATA, argv
        assert out == "" and "shape (order 8, dim 40)" in err and "MAX_KEYS" in err, argv
    code, out, err = run(capsys, "detect", "--gen", "random", "--m", "12", "--n", "60")
    assert code == EXIT_DATA and "shape (order 12, dim 60)" in err


def test_shapes_beyond_the_float_multiplicities_are_malformed_input(capsys):
    code, out, err = run(capsys, "gen", "--gen", "identity", "--m", "1100", "--n", "2")
    assert code == EXIT_DATA
    assert out == "" and "shape (order 1100, dim 2)" in err and "beyond the float range" in err


def test_orders_above_the_order_bound_are_malformed_input(capsys):
    code, out, err = run(capsys, "gen", "--gen", "identity", "--m", "1000000", "--n", "1")
    assert code == EXIT_DATA
    assert out == "" and "shape (order 1000000, dim 1)" in err and "MAX_ORDER" in err


def test_spectral_rejects_negative_tensor(capsys):
    code, _, err = run(
        capsys, "spectral", "--gen", "eta-ones", "--m", "3", "--n", "3",
    )
    # eta is required for the generator before spectral even runs
    assert code == EXIT_USAGE


def test_rerun_reproduces_verdict_byte_for_byte(capsys):
    argv = ["detect", "--gen", "eta-ones", "--m", "4", "--n", "4", "--eta", "64"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_COPOSITIVE
    first = json.loads(out1)
    second = json.loads(out2)
    assert json.dumps(first["verdict"]) == json.dumps(second["verdict"])
    assert json.dumps(first["prescreen"]) == json.dumps(second["prescreen"])


def test_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "record.json"
    code, text, _ = run(
        capsys,
        "detect",
        "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "19",
        "--out", str(out),
    )
    assert code == EXIT_COPOSITIVE
    assert json.loads(text) == json.loads(out.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "19"],
        ["gen", "--gen", "motzkin"],
        ["table", "1"],
    ],
)
def test_unwritable_out_file_cannot_be_created(capsys, tmp_path, argv):
    # A missing directory exited 66 (missing input) and a directory 70
    # (internal error); both now exit 73, naming the path.
    for out in (tmp_path / "no-such-dir" / "record.json", tmp_path):
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == EXIT_CANTCREAT, (argv, out)
        assert f"cannot write {out}" in err and "internal error" not in err


@pytest.mark.parametrize(
    "obj",
    [
        {"order": 3, "dim": 2, "entries": [{"idx": [1.5, 2, 2], "val": 1.0}]},
        {"order": 3, "dim": 2, "entries": [{"idx": [True, 2, 2], "val": 1.0}]},
        {"order": 3, "dim": 2, "entries": [{"idx": ["1", 2, 2], "val": 1.0}]},
        {"order": 2.7, "dim": 2, "entries": [{"idx": [1, 2], "val": 1.0}]},
        {"order": 2, "dim": True, "entries": [{"idx": [1, 1], "val": 1.0}]},
        {"order": 2, "dim": 2, "monomials": [{"exponents": [1.5, 0.5], "coeff": 1.0}]},
    ],
)
def test_non_integral_indices_are_malformed_input(capsys, tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "detect", str(path))
    assert code == EXIT_DATA
    assert out == "" and "must be an integer" in err


def test_an_index_beyond_every_integer_type_is_out_of_range(capsys, tmp_path):
    # Checked as a Python int before any array conversion, so it is
    # malformed input rather than an internal overflow.
    path = tmp_path / "far.json"
    entries = [{"idx": [1, 10**30], "val": 1.0}]
    path.write_text(json.dumps({"order": 2, "dim": 2, "entries": entries}))
    code, out, err = run(capsys, "detect", str(path))
    assert code == EXIT_DATA
    assert out == "" and "out of range 1..2" in err and "internal error" not in err


def test_unreadable_source_is_missing_input(capsys, tmp_path):
    code, out, err = run(capsys, "detect", str(tmp_path))
    assert code == EXIT_NOINPUT
    assert out == "" and "cannot read" in err and "internal error" not in err


def test_one_process_serves_many_calls_like_fresh_ones(capsys):
    with pytest.raises(SystemExit) as info:
        main(["detect", "--max-iter", "0"])
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()
    calls = (
        ["detect", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "1"],
        ["table", "1"],
        ["prescreen", "--gen", "eta-ones", "--m", "3", "--n", "3", "--eta", "1", "--depth", "1"],
    )
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        fresh_code, fresh_out = fresh(*argv)
        assert code == fresh_code
        if argv[0] == "table":
            assert out == fresh_out
        else:
            assert without_elapsed(out) == without_elapsed(fresh_out)


def test_help_lists_every_subcommand(capsys):
    for _ in range(2):  # the reused parser prints the same help
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for name in ("detect", "table", "spectral", "prescreen", "gen"):
            assert name in out


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "original = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    original(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import os, coposim, coposim.cli\n"
        "print(len(built))\n"
        "coposim.cli.main(['gen', '--gen', 'motzkin', '--out', os.devnull])\n"
        "once = len(built)\n"
        "coposim.cli.main(['gen', '--gen', 'robinson', '--out', os.devnull])\n"
        "print(once, len(built), built[0])\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    at_import, after_one_call, after_two_calls, first = child.stdout.split()
    assert at_import == "0"
    assert first == "coposim"
    assert int(after_one_call) == int(after_two_calls) > 0
