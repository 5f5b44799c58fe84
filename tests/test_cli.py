"""End-to-end tests of the command-line driver: pinned output formats,
exit codes, and byte-level determinism."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys

import pytest

from resfin import cli


def run_cli(argv, stdin_text=None):
    """Invoke main() in process, returning (exit code, stdout, stderr).
    An argparse usage error's SystemExit becomes its exit code."""
    old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        return rc, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in


class TestDq:
    def test_pinned_example(self):
        rc, out, _ = run_cli(["dq", "--group", "sl2", "--matrix", "1,12;0,1"])
        assert rc == 0
        assert out == "modulus=5,order=120\n"

    def test_group_inferred_from_matrix(self):
        rc, out, _ = run_cli(["dq", "--matrix", "1,12;0,1"])
        assert (rc, out) == (0, "modulus=5,order=120\n")

    def test_identity_is_usage_error(self):
        rc, out, err = run_cli(["dq", "--matrix", "1,0;0,1"])
        assert rc == 2
        assert out == ""
        assert "identity is undetectable" in err

    def test_central_flag_adds_field(self):
        rc, out, _ = run_cli(
            ["dq", "--matrix", "1,12;0,1", "--allow-central"]
        )
        assert rc == 0
        assert out == "modulus=5,order=60,central=true\n"

    def test_negative_entries_space_separated(self):
        rc, out, _ = run_cli(["dq", "--matrix", "-1,0;0,-1"])
        assert (rc, out) == (0, "modulus=3,order=24\n")
        assert run_cli(["dq", "--matrix=-1,0;0,-1"]) == (rc, out, "")

    def test_rejections(self):
        rc, _, err = run_cli(["dq", "--matrix", "2,0;0,1"])
        assert rc == 2 and "determinant" in err
        rc, _, err = run_cli(["dq", "--group", "sl3", "--matrix", "1,1;0,1"])
        assert rc == 2 and "match" in err
        rc, _, err = run_cli(["dq", "--matrix", "1,2;x,1"])
        assert rc == 2


class TestGrowth:
    def test_csv_table(self):
        rc, out, _ = run_cli(["growth", "--group", "sl2", "--n-max", "2"])
        assert rc == 0
        assert out.splitlines() == [
            "n,ball_size,F_value,witness,modulus,quotient_order,central_flag",
            "0,1,0,,,,",
            '1,5,6,"0,-1;1,0",2,6,false',
            '2,16,24,"-1,0;0,-1",3,24,false',
        ]
        assert "\r" not in out

    def test_empty_table_is_header_only(self):
        rc, out, _ = run_cli(["growth", "--group", "sl2", "--n-max", "0"])
        assert rc == 0
        assert out.splitlines()[0].startswith("n,ball_size")
        assert len(out.splitlines()) == 2  # header + the n = 0 row

    def test_json_has_stable_keys_and_nulls(self):
        rc, out, _ = run_cli(
            ["growth", "--group", "sl2", "--n-max", "1", "--format", "json"]
        )
        assert rc == 0
        rows = json.loads(out)
        assert list(rows[0]) == [
            "n", "ball_size", "F_value", "witness", "modulus",
            "quotient_order", "central_flag",
        ]
        assert rows[0]["witness"] is None
        assert rows[1]["central_flag"] is False

    def test_thread_count_does_not_change_bytes(self):
        a = run_cli(["growth", "--group", "sl2", "--n-max", "3", "--threads", "1"])
        b = run_cli(["growth", "--group", "sl2", "--n-max", "3", "--threads", "3"])
        assert a == b

    def test_st_gens_require_sl2(self):
        rc, _, err = run_cli(
            ["growth", "--group", "sl3", "--gens", "st", "--n-max", "1"]
        )
        assert rc == 2 and "sl2" in err


class TestCandidates:
    def test_csv_table(self):
        rc, out, _ = run_cli(["candidates", "--group", "sl2", "--k", "2..4"])
        assert rc == 0
        assert out.splitlines() == [
            "k,r_k_log2,modulus,quotient_order",
            "2,1.0,3,24",
            "3,2.584962500721156,4,48",
            "4,3.584962500721156,5,120",
        ]

    def test_single_k_and_s_primes(self):
        rc, out, _ = run_cli(
            ["candidates", "--group", "sl2", "--k", "3", "--s-primes", "3"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 2
        # r_3 = 3^3 * 6 = 162, first prime power not dividing it is 4
        assert lines[1].startswith("3,") and lines[1].endswith(",4,48")

    def test_big_orders_become_strings_in_json(self):
        rc, out, _ = run_cli(
            ["candidates", "--group", "sl4", "--k", "13", "--format", "json"]
        )
        assert rc == 0
        row = json.loads(out)[0]
        assert isinstance(row["quotient_order"], str)
        assert int(row["quotient_order"]) > 2**53
        rc, out, _ = run_cli(
            ["candidates", "--group", "sl2", "--k", "2", "--format", "json"]
        )
        assert json.loads(out)[0]["quotient_order"] == 24

    def test_bad_range(self):
        rc, _, err = run_cli(["candidates", "--group", "sl2", "--k", "5..2"])
        assert rc == 2 and "range" in err


class TestFit:
    def test_fit_candidates_file(self, tmp_path):
        _, csv_text, _ = run_cli(["candidates", "--group", "sl2", "--k", "10..60"])
        path = tmp_path / "cand.csv"
        path.write_text(csv_text)
        rc, out, _ = run_cli(["fit", str(path)])
        assert rc == 0
        fitted = json.loads(out)
        assert list(fitted) == ["slope", "intercept", "max_residual"]
        assert abs(fitted["slope"] - 3) < 0.8

    def test_fit_from_stdin_growth_header(self):
        lines = ["n,ball_size,F_value,witness,modulus,quotient_order,central_flag"]
        lines += [f"{n},0,{n ** 3},,,," for n in range(1, 8)]
        rc, out, _ = run_cli(["fit"], stdin_text="\n".join(lines) + "\n")
        assert rc == 0
        fitted = json.loads(out)
        assert abs(fitted["slope"] - 3) < 1e-9

    def test_unrecognized_header(self):
        rc, _, err = run_cli(["fit"], stdin_text="a,b\n1,2\n")
        assert rc == 2 and "header" in err


class TestVerify:
    def test_moy_prasad_suite(self):
        rc, out, _ = run_cli(
            ["verify", "--suite", "moy-prasad", "--group", "sl2",
             "--p", "3", "--k", "2"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "check_name,instance,status,detail"
        assert len(lines) == 3
        assert lines[1].startswith("moy-prasad,")
        assert lines[2].startswith("commutator-filtration,")
        assert all(",pass," in line for line in lines[1:])

    def test_failing_check_exits_1(self):
        rc, out, _ = run_cli(
            ["verify", "--suite", "adjoint", "--group", "sl2", "--p", "2"]
        )
        assert rc == 1
        assert ",fail," in out

    def test_inconclusive_exits_3(self):
        rc, out, _ = run_cli(
            ["verify", "--suite", "strong-approx", "--group", "sl2",
             "--level", "2", "--modulus", "9", "--trials", "1", "--seed", "5"]
        )
        assert rc == 3
        assert ",inconclusive," in out

    def test_sampling_mode_is_reported(self):
        rc, out, _ = run_cli(
            ["verify", "--suite", "strong-approx", "--group", "sl2",
             "--level", "2", "--modulus", "9"]
        )
        assert rc == 0
        assert "[mode=probabilistic]" in out

    def test_normal_subgroups_reference_instance(self):
        rc, out, _ = run_cli(
            ["verify", "--suite", "normal-subgroups", "--group", "sl2",
             "--modulus", "25"]
        )
        assert rc == 0
        assert "3 normal subgroups" in out

    def test_normal_subgroups_sl3_mod_4(self):
        rc, out, _ = run_cli(
            ["verify", "--suite", "normal-subgroups", "--group", "sl3",
             "--modulus", "4"]
        )
        assert rc == 0
        assert "3 normal subgroups above the center" in out

    @pytest.mark.parametrize("suite", [["adjoint"], ["moy-prasad", "--k", "2"]])
    def test_composite_p_is_usage_error(self, suite):
        rc, out, err = run_cli(
            ["verify", "--suite", suite[0], "--group", "sl2", "--p", "4", *suite[1:]]
        )
        assert (rc, out, err) == (2, "", "error: --p must be prime, got 4\n")

    def test_strong_approx_respects_budget(self):
        rc, out, err = run_cli(
            ["verify", "--suite", "strong-approx", "--group", "sl2",
             "--level", "2", "--modulus", "9", "--budget", "10"]
        )
        assert rc == 3 and out == ""
        assert err.startswith("budget:") and len(err.splitlines()) == 1

    def test_missing_flags(self):
        rc, _, err = run_cli(["verify", "--suite", "moy-prasad", "--group", "sl2"])
        assert rc == 2 and "--p" in err
        rc, _, err = run_cli(["verify", "--suite", "centerless", "--group", "sl2"])
        assert rc == 2 and "--modulus" in err


class TestExamples:
    def test_lamplighter_rows(self):
        rc, out, _ = run_cli(["examples", "--group", "lamplighter", "--k", "2..4"])
        assert rc == 0
        assert out.splitlines() == [
            "k,candidate,modulus,order,certificate_pass",
            "2,d1+d3,3,24,",
            "3,d1+d7,4,64,",
            "4,d1+d13,5,160,true",
        ]

    def test_semidirect_rows(self):
        rc, out, _ = run_cli(["examples", "--group", "semidirect", "--k", "2..4"])
        assert rc == 0
        assert out.splitlines()[1:] == [
            "2,2;0,3,72,true",
            "3,6;0,4,128,true",
            "4,12;0,5,200,true",
        ]

    def test_abelian_rows(self):
        rc, out, _ = run_cli(["examples", "--group", "abelian", "--k", "2..4"])
        assert rc == 0
        assert out.splitlines()[1:] == [
            "2,2;0,3,3,",
            "3,6;0,4,4,",
            "4,12;0,5,5,",
        ]

    def test_json_certificates_are_booleans(self):
        rc, out, _ = run_cli(
            ["examples", "--group", "semidirect", "--k", "2", "--format", "json"]
        )
        assert json.loads(out)[0]["certificate_pass"] is True


class TestRing:
    def test_gaussian_detection(self):
        rc, out, _ = run_cli(["ring", "--ring", "f=1,0,1", "--element", "0,5"])
        assert rc == 0
        assert out.splitlines() == [
            "split: prime=13,root=5,residue=12",
            "ideal: prime=2,factor=x+1,norm=2",
        ]

    def test_negative_coordinates_space_separated(self):
        rc, out, _ = run_cli(["ring", "--ring", "f=1,0,1", "--element", "-3,4"])
        assert rc == 0
        assert run_cli(["ring", "--ring", "f=1,0,1", "--element=-3,4"]) == (rc, out, "")
        assert out.startswith("split: prime=")

    def test_zero_element(self):
        rc, _, err = run_cli(["ring", "--ring", "f=1,0,1", "--element", "0,0"])
        assert rc == 2 and "zero" in err

    def test_exhausted_scan_exits_3(self):
        rc, _, err = run_cli(
            ["ring", "--ring", "f=1,0,1", "--element", "12,0", "--m-max", "3"]
        )
        assert rc == 3

    def test_bad_ring_text(self):
        rc, _, err = run_cli(["ring", "--ring", "f=x^2+1", "--element", "1,0"])
        assert rc == 2


class TestDeterminism:
    def test_seeded_verify_is_byte_identical(self):
        argv = ["verify", "--suite", "strong-approx", "--group", "sl2",
                "--level", "3", "--modulus", "25", "--seed", "7"]
        assert run_cli(argv) == run_cli(argv)

    def test_candidates_json_is_byte_identical(self):
        argv = ["candidates", "--group", "sl3", "--k", "2..30", "--format", "json"]
        assert run_cli(argv) == run_cli(argv)

    def test_subprocess_smoke(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "resfin.cli", "dq", "--matrix", "1,12;0,1"]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == b"modulus=5,order=120\n"
        assert (first.stdout, first.returncode) == (second.stdout, second.returncode)

    def test_python_dash_m_package(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-m", "resfin", "dq", "--group", "sl2", "--matrix=1,12;0,1"]
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, b"modulus=5,order=120\n")


# sha256 of json.dumps([exit code, stdout, stderr]) for each README
# quick-start command in order: a refactor must leave every one of them
# byte-identical.  `fit` reads the CSV that `candidates` wrote.
QUICK_START_DIGESTS = [
    (["dq", "--group", "sl2", "--matrix", "1,12;0,1"],
     "8a42f3bb9dba7d38e1d7066d0561d84b963d83267090bb2e8d4aab3083985c7b"),
    (["growth", "--group", "sl2", "--n-max", "6"],
     "cd6a98d4e039e3d35d7a083c7ce54e9be9ceb25eb1ccf7691dc4b9d71a1a9b9b"),
    (["candidates", "--group", "sl3", "--k", "10..500"],
     "b66d5f460ad63d22bd7f7fb7e4cc278fbbc817628f96a5d96e4846dcaee0c3a7"),
    (["fit", "cand.csv"],
     "28a4515d9c0f22f7c341f350fa90abc134c6230fedadfa31b43a87531248d4ec"),
    (["verify", "--suite", "moy-prasad", "--group", "sl2", "--p", "5", "--k", "3"],
     "88cd0e64a9034e22a5ec25f2cd75c0270920aa731d9ecb44e542fd637aab5202"),
    (["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "25"],
     "2cae530c85784e237809879282207d4d9d482932a5b7fdda0e7d6fb831c59e9b"),
    (["examples", "--group", "lamplighter", "--k", "2..16"],
     "d111c6b3b78379368e6eac7a5bf6fc9948497d78d1ac128d6102e1964159e46e"),
    (["ring", "--ring", "f=1,0,1", "--element", "0,5"],
     "52ff3d1f7295b4172b6cb7202e900e84f05e25d3cf7e5a7a59ddea30d23ed95e"),
]


def test_quick_start_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want in QUICK_START_DIGESTS:
        result = run_cli(argv)
        if argv[0] == "candidates":
            (tmp_path / "cand.csv").write_text(result[1])
        got = hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()
        assert got == want, argv


USAGE_ERRORS = [  # value errors: exit 2, one "error:" line
    ["dq", "--matrix", "1,2;3"],
    ["dq", "--matrix", ";"],
    ["dq", "--matrix", "1"],
    ["dq", "--matrix", "1,a;0,1"],
    ["dq", "--matrix", "2,0;0,1"],
    ["dq", "--matrix", "1,0;0,1"],
    ["dq", "--group", "gl2", "--matrix", "1,1;0,1"],
    ["growth", "--group", "sl1", "--n-max", "1"],
    ["growth", "--group", "sl9x", "--n-max", "1"],
    ["growth", "--group", "sl2", "--n-max", "-1"],
    ["growth", "--group", "sl2", "--n-max", "3", "--power", "0"],
    ["growth", "--group", "sl3", "--gens", "st", "--n-max", "1"],
    ["candidates", "--group", "sl2", "--k", "0..3"],
    ["candidates", "--group", "sl2", "--k", "a..b"],
    ["candidates", "--group", "sl2", "--k", "5..2"],
    ["candidates", "--group", "sl2", "--k", "1", "--multiplier", "0"],
    ["candidates", "--group", "sl2", "--k", "1", "--s-primes", "x"],
    ["candidates", "--group", "sl2", "--k", "1", "--s-primes", "4"],
    ["candidates", "--group", "sl2", "--k", "1", "--s-primes", "-2"],
    ["fit", os.path.join(os.path.dirname(__file__), "no-such-file.csv")],
    ["fit", os.path.dirname(__file__)],
    ["verify", "--suite", "moy-prasad", "--group", "sl2"],
    ["verify", "--suite", "moy-prasad", "--group", "sl2", "--p", "5", "--k", "x"],
    ["verify", "--suite", "moy-prasad", "--group", "sl2", "--p", "5", "--k", "0..1"],
    ["verify", "--suite", "adjoint", "--group", "sl2", "--p", "0"],
    ["verify", "--suite", "adjoint", "--group", "sl1", "--p", "5"],
    ["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "0"],
    ["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "12"],
    ["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "-3"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "2", "--modulus", "4"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--modulus", "5"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "2", "--modulus", "9",
     "--trials", "0"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "2", "--modulus", "9",
     "--trials", "-1"],
    ["examples", "--group", "lamplighter", "--k", "1"],
    ["examples", "--group", "semidirect", "--k", "2..x"],
    ["examples", "--group", "abelian", "--k", "3..2"],
    # candidates past the integer-to-string limit fail before any row
    ["examples", "--group", "lamplighter", "--k", "2..9859"],
    ["examples", "--group", "semidirect", "--k", "2..9859"],
    ["ring", "--ring", "f=", "--element", "1"],
    ["ring", "--ring", "f=1", "--element", "1"],
    ["ring", "--ring", "f=1,0,1", "--element", "1,2,3"],
    ["ring", "--ring", "f=1,0,1", "--element", "1,x"],
    ["ring", "--ring", "f=1,0,1;invert=x", "--element", "1,1"],
    ["ring", "--ring", "f=1,0,1", "--element", "0,0"],
    ["ring", "--ring", "f=1,0,1", "--element", "1,1", "--m-max", "1"],
    ["ring", "--ring", "f=1,0,1", "--element", "1,1", "--m-max", "0"],
    ["ring", "--ring", "f=1,0,1", "--element", "1,1", "--m-max=-5"],
    ["ring", "--ring", "f=1,0,1", "--element", "1,1", "--m-max", "200000000"],
]

ARGPARSE_ERRORS = [  # exit 2 from argparse itself
    [],
    ["bogus"],
    ["dq"],
    ["dq", "--matrix", "1,1;0,1", "--frobnicate"],
    ["growth", "--group", "sl2", "--n-max", "x"],
    ["growth", "--group", "sl2", "--n-max", "2", "--gens", "abc"],
    ["candidates", "--group", "sl2"],
    ["candidates", "--group", "sl2", "--k", "1", "--format", "xml"],
    ["fit", "a.csv", "b.csv"],
    ["verify", "--suite", "bogus", "--group", "sl2"],
    ["verify", "--suite", "adjoint", "--group", "sl2", "--p", "five"],
    ["examples", "--group", "free", "--k", "2"],
    ["ring", "--ring", "f=1,0,1"],
    ["ring", "--ring", "f=1,0,1", "--element", "1,1", "--m-max", "ten"],
]

BUDGET_CASES = [  # exit 3, one "budget:" line
    ["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "5", "--budget", "10"],
    ["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "5", "--budget", "10"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "1", "--modulus", "9",
     "--budget", "10"],
    ["growth", "--group", "sl2", "--n-max", "3", "--budget", "5"],
    ["growth", "--group", "sl3", "--n-max", "2", "--budget", "5"],
    ["ring", "--ring", "f=1,0,1", "--element", "12,0", "--m-max", "3"],
]

# moy-prasad checks generators and builds no group, so it passes on
# instances whose G^i is far beyond any budget, and --budget does not reach it
CERTIFICATE_CASES = [  # exit 0, every check passes
    ["verify", "--suite", "moy-prasad", "--group", "sl5", "--p", "5", "--k", "2"],
    ["verify", "--suite", "moy-prasad", "--group", "sl2", "--p", "3", "--k", "3", "--budget", "10"],
    ["verify", "--suite", "moy-prasad", "--group", "sl3", "--p", "7", "--k", "2"],
    ["verify", "--suite", "moy-prasad", "--group", "sl3", "--p", "3", "--k", "3"],
    ["verify", "--suite", "moy-prasad", "--group", "sl4", "--p", "3", "--k", "2"],
]


class TestExitCodes:
    """The exit-code contract over every subcommand: bad values exit 2 with
    one "error:" line, usage errors exit 2, exhausted budgets exit 3 with one
    "budget:" line, and nothing prints a traceback."""

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_value_errors(self, argv):
        rc, out, err = run_cli(argv)
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    @pytest.mark.parametrize("argv", ARGPARSE_ERRORS, ids=" ".join)
    def test_argparse_errors(self, argv):
        rc, out, err = run_cli(argv)
        assert (rc, out) == (2, "")
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", BUDGET_CASES, ids=" ".join)
    def test_budget_exhausted(self, argv):
        rc, out, err = run_cli(argv)
        assert (rc, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("budget: "), err

    @pytest.mark.parametrize("argv", CERTIFICATE_CASES, ids=" ".join)
    def test_exits_0(self, argv):
        rc, out, err = run_cli(argv)
        assert (rc, err) == (0, "")
        rows = out.splitlines()[1:]
        assert rows and all(",pass," in row for row in rows), out

    def test_bound_messages(self):
        rc, _, err = run_cli(["ring", "--ring", "f=1,0,1", "--element", "1,1", "--m-max=-5"])
        assert (rc, err) == (2, "error: --m-max must be >= 2, got -5\n")
        rc, _, err = run_cli(["verify", "--suite", "strong-approx", "--group", "sl2",
                              "--level", "2", "--modulus", "9", "--trials", "0"])
        assert (rc, err) == (2, "error: --trials must be >= 1, got 0\n")
        rc, _, err = run_cli(["ring", "--ring", "f=1,0,1", "--element", "1,1",
                              "--m-max", "200000000"])
        assert (rc, err) == (2, "error: sieve limit 200000000 exceeds cap 100000000\n")

    def test_trials_unused_at_level_one(self):
        argv = ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "1",
                "--modulus", "9"]
        assert run_cli(argv + ["--trials", "0"]) == run_cli(argv)
        assert run_cli(argv)[0] == 0

    def test_bad_fit_input(self, tmp_path):
        for name, data in [
            ("nul.csv", b"k,quotient_order\n1,2\x00\n"),
            ("latin1.csv", b"\xff\xfe\n"),
            ("short.csv", b"k,quotient_order\n1,2\n2,3\n"),
            ("flat.csv", b"k,quotient_order\n1,2\n1,3\n1,4\n"),
        ]:
            path = tmp_path / name
            path.write_bytes(data)
            rc, out, err = run_cli(["fit", str(path)])
            assert (rc, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_cached_parser_matches_a_fresh_one(self):
        calls = [
            ["dq", "--matrix", "1,12;0,1"],
            ["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "5"],
            ["dq"],
            ["candidates", "--group", "sl2", "--k", "2..4", "--format", "json"],
            ["dq", "--matrix", "1,0;0,1"],
            ["growth", "--group", "sl2", "--n-max", "2"],
            ["verify", "--suite", "bogus", "--group", "sl2"],
            ["dq", "--matrix", "-1,0;0,-1", "--allow-central"],
            ["growth", "--group", "sl2", "--n-max", "3", "--budget", "5"],
            ["dq", "--matrix", "1,12;0,1"],
        ]
        reused = [run_cli(argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run_cli(argv))
        assert reused == fresh
        assert cli._parser() is cli._parser()


def test_emit_quoting_and_endings():
    data = cli.emit(["a", "b"], [[1, "x,y"], [2, None]], "csv")
    assert data == b'a,b\n1,"x,y"\n2,\n'
    data = cli.emit(["a"], [], "csv")
    assert data == b"a\n"
    rows = json.loads(cli.emit(["v"], [[2**60]], "json"))
    assert rows == [{"v": str(2**60)}]


@pytest.mark.parametrize("rows", [
    [],
    [[1, "x,y"], [2, None]],
    [[2**60, -(2**60), 3.5], [True, False, "line\nbreak é"]],
    [[[1, [2, 3]], {"k": [4]}, 0.1]],
    [[1]],  # shorter than the header: zip drops the missing keys
    [[k, k / 7, str(k)] for k in range(2049)],  # over two full chunks
])
def test_emit_json_streams_json_dumps(rows):
    # the chunked writer against json.dumps of the whole list
    header = ["a", "b", "c"]
    payload = [{key: cli._json_value(v) for key, v in zip(header, row)} for row in rows]
    assert cli.emit(header, rows, "json") == (json.dumps(payload, indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("exc,code,prefix", [
    (ValueError("sweep failed"), 2, "error: "),
    (cli.BudgetExceededError("sweep ran out"), 3, "budget: "),
])
def test_candidates_failing_part_way_prints_nothing(monkeypatch, fmt, exc, code, prefix):
    real = cli.growth.candidate_sweep

    def failing(*args, **kwargs):
        yield from itertools.islice(real(*args, **kwargs), 3)
        raise exc

    monkeypatch.setattr(cli.growth, "candidate_sweep", failing)
    rc, out, err = run_cli(["candidates", "--group", "sl2", "--k", "2..10", "--format", fmt])
    assert (rc, out, err) == (code, "", f"{prefix}{exc}\n")
