"""End-to-end tests of the command-line driver: pinned output formats,
exit codes, and byte-level determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import runpy
import subprocess
import random
import sys
from fractions import Fraction

import pytest

from resfin import chevalley, cli


def run_cli(argv, stdin_text=None, main=None):
    """Invoke main() (or the given stand-in) in process, returning (exit
    code, stdout, stderr).  An argparse usage error's SystemExit becomes its
    exit code."""
    old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        try:
            rc = (main or cli.main)(argv)
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

    def test_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run_cli(["fit", str(path)]) == (
            2, "", "error: empty input, expected a candidates or growth CSV\n")

    def test_orders_past_the_float_range(self, tmp_path):
        # sl8 orders near 10**315: the fit takes math.log of the ints, never float()
        _, csv_text, _ = run_cli(["candidates", "--group", "sl8", "--k", "100000..100004"])
        path = tmp_path / "c8.csv"
        path.write_text(csv_text)
        rc, out, err = run_cli(["fit", str(path)])
        assert (rc, err) == (0, "")
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        assert all(int(order) > 2**1024 for *_, order in rows)
        # least squares in exact rationals over the same logs
        xs = [Fraction(math.log(int(k))) for k, *_ in rows]
        ys = [Fraction(math.log(int(order))) for *_, order in rows]
        n = len(rows)
        slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) / (
            n * sum(x * x for x in xs) - sum(xs) ** 2)
        intercept = (sum(ys) - slope * sum(xs)) / n
        fitted = json.loads(out)
        assert fitted["slope"] == pytest.approx(float(slope), rel=1e-9)
        assert fitted["intercept"] == pytest.approx(float(intercept), rel=1e-9)

    def test_incomplete_rows_are_skipped(self):
        complete = ["k,modulus,quotient_order"] + [f"{k},7,{k ** 3}" for k in range(1, 6)]
        rows = complete[:3] + ["9"] + complete[3:] + ["10,11,"]
        want = run_cli(["fit"], stdin_text="\n".join(complete) + "\n")
        assert want[0] == 0 and abs(json.loads(want[1])["slope"] - 3) < 1e-9
        assert run_cli(["fit"], stdin_text="\n".join(rows) + "\n") == want


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

    @pytest.mark.parametrize("group", ["lamplighter", "semidirect", "abelian"])
    def test_each_row_is_built_once(self, monkeypatch, group):
        # the row of the largest k, built first for the digit-limit check,
        # is the table's last row, not built again
        calls = []
        real = cli._example_row
        monkeypatch.setattr(cli, "_example_row", lambda g, k: calls.append(k) or real(g, k))
        rc, out, _ = run_cli(["examples", "--group", group, "--k", "3..6"])
        assert rc == 0 and len(out.splitlines()) == 5
        assert calls == [6, 3, 4, 5]


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

    def test_large_constant_term(self):
        rc, out, err = run_cli(["ring", "--ring", "f=1000000000000000001,0,1", "--element", "1,0"])
        assert (rc, err) == (0, "")
        assert out.splitlines() == ["split: prime=3,root=1,residue=1", "ideal: prime=2,factor=x+1,norm=2"]
        rc, out, err = run_cli(["ring", "--ring", "f=1000000000000000000000001,0,1", "--element", "1,0"])
        assert (rc, out) == (2, "")
        assert err == ("error: min_poly coefficients 1000000000000000000000001,0,1 "
                       "are too large to test for irreducibility\n")


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


# The same digests for the detection search's other modes: central
# quotients in dq (a central win on SL2 and SL3, the center barred by a
# central image on SL4), the candidate sweep with central quotients, with
# S-units and a multiplier, and a central power table.
SEARCH_DIGESTS = [
    (["dq", "--group", "sl2", "--matrix", "1,4;0,1", "--allow-central"],
     "68e647c2a61da05b6f690a612782ee7bde026d001fcdef9af2456cabb526e3c1"),
    (["dq", "--group", "sl3", "--matrix", "1,0,60;0,1,0;0,0,1", "--allow-central"],
     "da2dce9e92c491b7be99a3c6010daaabd01e4172362c85295331cc554ae3ef2d"),
    (["dq", "--group", "sl4", "--matrix", "-1,0,0,0;0,-1,0,0;0,0,-1,0;0,0,0,-1", "--allow-central"],
     "acec5284f5aede4c80742c1d9b25ae5322e78320500645f8679feb4937925517"),
    (["candidates", "--group", "sl2", "--k", "10..3000", "--allow-central"],
     "54d95f1b5d24ea919f4af7765e3b495981d98d27a8a8725400f1100e7a23e1d2"),
    (["candidates", "--group", "sl4", "--k", "1..2000", "--s-primes", "2,3", "--multiplier", "12",
      "--format", "json"],
     "708dfec087e460fdc6c4e7dd7f82a7cf6e73e8520bf165f50955790798626189"),
    (["growth", "--group", "sl3", "--n-max", "4", "--power", "2", "--allow-central"],
     "9b06c8b1e421df01d0051ea803b5fd60a7d53e83d9b9b2c639fa3b1a28871120"),
]


def test_search_modes_match_golden_digests():
    for argv, want in SEARCH_DIGESTS:
        got = hashlib.sha256(json.dumps(list(run_cli(argv))).encode()).hexdigest()
        assert got == want, argv


# The same digests for `ring` on lcm(1..K) * coords, elements whose content
# is a multiword integer, in each ring of the rings benchmark, at both ends
# of its K bands and at two prime limits, recorded at 3745ae2.  Two rows
# exit 3: no split prime <= 3000 of x^5 - x + 1 survives lcm(1..2900), and
# none at all survives lcm(1..3000).
RING_LARGE_CONTENT_DIGESTS = [  # (ring, coords, K, --m-max, digest)
    ("f=1,0,1", (7, -3), 1100, 3000, "2408c162cfa5078b2d258273cd1757f40f1f29e016af452d3006ac4a4608c8bc"),
    ("f=1,0,1", (7, -3), 1100, 20000, "2408c162cfa5078b2d258273cd1757f40f1f29e016af452d3006ac4a4608c8bc"),
    ("f=1,0,1", (7, -3), 2900, 3000, "f46b6e4c50c82ad01801624a6e37ee0234839d4fae3dc3b98ec164278c6c6099"),
    ("f=1,0,1", (7, -3), 2900, 20000, "f46b6e4c50c82ad01801624a6e37ee0234839d4fae3dc3b98ec164278c6c6099"),
    ("f=-2,0,1", (5, 2), 1100, 3000, "102f8e5755d989b78cfe012d39860d94ef71ed451261c5d40b0db24021cb1e3d"),
    ("f=-2,0,1", (5, 2), 1100, 20000, "102f8e5755d989b78cfe012d39860d94ef71ed451261c5d40b0db24021cb1e3d"),
    ("f=-2,0,1", (5, 2), 2900, 3000, "c2838c5f498b4399437176f5cd9bd0d2e3aa414a0434794966df5c2ec5e8a889"),
    ("f=-2,0,1", (5, 2), 2900, 20000, "c2838c5f498b4399437176f5cd9bd0d2e3aa414a0434794966df5c2ec5e8a889"),
    ("f=-2,0,0,1", (3, -1, 4), 1100, 3000, "755c85f599d45292171e9b2cb6b6bd3e835339e874b2761fcfd998ef728738a1"),
    ("f=-2,0,0,1", (3, -1, 4), 1100, 20000, "755c85f599d45292171e9b2cb6b6bd3e835339e874b2761fcfd998ef728738a1"),
    ("f=-2,0,0,1", (3, -1, 4), 2900, 3000, "50f26ebab1d8ce9300ce9535aeeafbdc006d32c72be1005e19fabaac6ca6dfcd"),
    ("f=-2,0,0,1", (3, -1, 4), 2900, 20000, "50f26ebab1d8ce9300ce9535aeeafbdc006d32c72be1005e19fabaac6ca6dfcd"),
    ("f=1,0,0,0,1", (2, 0, -5, 1), 1100, 3000, "cd3f0be8f3bed65db74f94ad1c44a72294009da2c026a3950a728ee944ad0364"),
    ("f=1,0,0,0,1", (2, 0, -5, 1), 1100, 20000, "cd3f0be8f3bed65db74f94ad1c44a72294009da2c026a3950a728ee944ad0364"),
    ("f=1,0,0,0,1", (2, 0, -5, 1), 2900, 3000, "8cfb3a6cbaa05c3fed0f087294f3cf1e3046cf6dadcb6b2c5c07cc06ecdbd1b0"),
    ("f=1,0,0,0,1", (2, 0, -5, 1), 2900, 20000, "8cfb3a6cbaa05c3fed0f087294f3cf1e3046cf6dadcb6b2c5c07cc06ecdbd1b0"),
    ("f=1,-1,0,0,0,1", (1, 4, 0, -2, 3), 1100, 3000, "e2f0a328a5ff3898870177b70df3d8d07f4b0cb7042a9f41f8a9eb1c71c913bb"),
    ("f=1,-1,0,0,0,1", (1, 4, 0, -2, 3), 1100, 20000, "e2f0a328a5ff3898870177b70df3d8d07f4b0cb7042a9f41f8a9eb1c71c913bb"),
    ("f=1,-1,0,0,0,1", (1, 4, 0, -2, 3), 2900, 3000, "9fa9a19a31c9936a99ecea63d4b9ec7509e5c117b74bef8089d7a252a03b767a"),
    ("f=1,-1,0,0,0,1", (1, 4, 0, -2, 3), 2900, 20000, "b1589154d905b7a863e46cc88829110412cd9afff36fd8bb42adab7a5717defa"),
    ("f=1,0,1;invert=5", (-6, 11), 1100, 3000, "59c191cecd4523f8f833a7de9479184f17f212063b5da08c053a48f06411f38b"),
    ("f=1,0,1;invert=5", (-6, 11), 1100, 20000, "59c191cecd4523f8f833a7de9479184f17f212063b5da08c053a48f06411f38b"),
    ("f=1,0,1;invert=5", (-6, 11), 2900, 3000, "1d27b2cfc731dd8ad0422517c10e16665d1abb959ebc6d2f47dc1e35bbaaaec8"),
    ("f=1,0,1;invert=5", (-6, 11), 2900, 20000, "1d27b2cfc731dd8ad0422517c10e16665d1abb959ebc6d2f47dc1e35bbaaaec8"),
    ("f=1,0,1", (7, -3), 3000, 3000, "9fa9a19a31c9936a99ecea63d4b9ec7509e5c117b74bef8089d7a252a03b767a"),
]


@pytest.mark.parametrize("ring,coords,k,m_max,want", RING_LARGE_CONTENT_DIGESTS,
                         ids=[f"{r[0]} K={r[2]} m={r[3]}" for r in RING_LARGE_CONTENT_DIGESTS])
def test_ring_on_large_contents_matches_golden_digests(ring, coords, k, m_max, want):
    lcm = math.lcm(*range(1, k + 1))
    element = ",".join(str(c * lcm) for c in coords)
    argv = ["ring", "--ring", ring, "--element", element, "--m-max", str(m_max)]
    got = hashlib.sha256(json.dumps(list(run_cli(argv))).encode()).hexdigest()
    assert got == want


# The same digests for the enumerated group tables (normal subgroups, the
# centerless quotient, strong approximation exact and seeded) and for
# candidate windows that start at a prime power, recorded at c524f67.
VERIFY_DIGESTS = [
    (["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "8"],
     "4fa705f5d4a3f8229e8c2ca204bce68124a066ab4bd0f70d8a923c29606eeb83"),
    (["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "9"],
     "5ce90576a5688bc75c547b552618fb745114149b0d567c6f585789e150430d14"),
    (["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "25"],
     "2cae530c85784e237809879282207d4d9d482932a5b7fdda0e7d6fb831c59e9b"),
    (["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "27"],
     "b5b6d1821e8b9eecbf79573d0ea720152279cfc410bf35b45512c6e55546197b"),
    (["verify", "--suite", "normal-subgroups", "--group", "sl3", "--modulus", "2"],
     "3f230ee04138b87ca71c1654e84dd5e967151116bf3a13519833bb5d10eb5e53"),
    (["verify", "--suite", "normal-subgroups", "--group", "sl3", "--modulus", "4"],
     "1f3a297cc2ca08a1db177699f513ff9b2436ec14479ec93db0dc976c43b7edd4"),
    (["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "4"],
     "59fbe9c026dafce4668348d2f80de0522de5b3abc038b10b260dd519a5c43133"),
    (["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "16"],
     "76d1c2a21be8fe760efe70327fa7b463edb4134bc75a3f08e3a181b4fcb4a255"),
    (["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "25"],
     "92b97c19213c464becb30e885f3b0a66ecbf230d62ed200e4555d827a78e9bf6"),
    (["verify", "--suite", "centerless", "--group", "sl3", "--modulus", "3"],
     "886399b841ac6310befb53edcd79c4f78cf6c5345866abb952948e3badee6bbd"),
    (["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "1", "--modulus", "45"],
     "9cdcdd169a198ca209ed52fe0ce92c502c4904de09da589c7c703c26c4847548"),
    (["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "2", "--modulus", "9",
      "--seed", "3"],
     "79f89826ddc1f33dabfe8865af45f39bd5d535c2c6855f98bf3bcfea6f22df51"),
    (["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "3", "--modulus", "25",
      "--seed", "11"],
     "a16bfca494db3739ae47a6d333ecdfd42cd152e099625b1ea2144370c1e7b331"),
    (["verify", "--suite", "strong-approx", "--group", "sl3", "--level", "1", "--modulus", "3"],
     "cfb46e716908e25857b4d3ab96453df9818c7ff2bc46b511f948b7e2709cb151"),
    (["candidates", "--group", "sl2", "--k", "1024..1100", "--s-primes", "3", "--multiplier", "2"],
     "5f37e749cda53daa70c1084c1c7e9aef59a2dba887a271f4f918f2e2b08b0d83"),
    (["candidates", "--group", "sl3", "--k", "2187..2300", "--allow-central", "--format", "json"],
     "2bb94ce66c0c525d2ef9d344973598b80f1dc94669168dfa7de67628babe09f6"),
    # adjoint irreducibility, recorded at 9b64897: sl2 p = 223 is the last
    # prime on the exhaustive branch and p = 229 the first on the spin.
    (["verify", "--suite", "adjoint", "--group", "sl2", "--p", "2"],
     "b7480cab7ef7f2605ec55301854befa1eb5b541ff6436f2e4bdca6059f80b59f"),
    (["verify", "--suite", "adjoint", "--group", "sl2", "--p", "3"],
     "094bb5451d54f06e92fc6e8982a3e1f784ed259f4e4126b34d418ab86f552ba6"),
    (["verify", "--suite", "adjoint", "--group", "sl2", "--p", "13"],
     "aa4f9c4672613f0a33b056f890f63fc6979d91fad2e399edaa48fea3353c8dc1"),
    (["verify", "--suite", "adjoint", "--group", "sl2", "--p", "223"],
     "3a08886c7936e4f22b0ecd01c7a28e520f0b829c02fa688179ed2697c7aeaae5"),
    (["verify", "--suite", "adjoint", "--group", "sl2", "--p", "229"],
     "d67c6a11c59443e65f2d384333ea1798c136bca2e90896dc3bc2268afb29c202"),
    (["verify", "--suite", "adjoint", "--group", "sl3", "--p", "2"],
     "04b072f065276356ca92566f73bd5baf007449e80f158f8ccd37058059151897"),
    (["verify", "--suite", "adjoint", "--group", "sl3", "--p", "3"],
     "f98cd5b1f27215d1f5c06352df411a49185d5b519ac97728f65ead7d9de1ab0a"),
    (["verify", "--suite", "adjoint", "--group", "sl3", "--p", "5"],
     "b913526cc909391751cfa31e03f4fd433feb21f6b01020e7d3a18be01ba04b45"),
    (["verify", "--suite", "adjoint", "--group", "sl4", "--p", "3"],
     "34f20d2fa66070c0e082c46cd7688e6eea4bec11b85a06a039ea2315c7827c26"),
    # recorded at 3ff9145: the Lie center where p | n with n != p, and at n = 5
    (["verify", "--suite", "adjoint", "--group", "sl4", "--p", "2"],
     "681f85f595abea690f38ebdd3df8e8bf7963adf71f77d6b38aa839f091bd3eef"),
    (["verify", "--suite", "adjoint", "--group", "sl4", "--p", "5"],
     "b40c387a4e02ac8a8a0b59f3fc74cc7041b9e3ec323adcf69e42a98a44e7881b"),
    (["verify", "--suite", "adjoint", "--group", "sl5", "--p", "5"],
     "d83938dfe47cfb0ad83d7579292d372c648cdb363e72f0ceb90ef4d6a624b6f0"),
]


@pytest.mark.parametrize("argv,want", VERIFY_DIGESTS, ids=[" ".join(a) for a, _ in VERIFY_DIGESTS])
def test_verify_and_windows_match_golden_digests(argv, want):
    got = hashlib.sha256(json.dumps(list(run_cli(argv))).encode()).hexdigest()
    assert got == want


TABLE_SUITES = ("normal-subgroups", "centerless", "strong-approx")


def test_table_suites_never_decode_a_matrix(monkeypatch):
    # the structure checks read codes, counts and indices only: with the one
    # decoder raising, every table suite row and every order still matches
    def no_decode(*args):
        raise AssertionError("a group table was decoded")

    monkeypatch.setattr(chevalley, "_decode", no_decode)
    rows = [(argv, want) for argv, want in VERIFY_DIGESTS if argv[2] in TABLE_SUITES]
    assert {argv[2] for argv, _ in rows} == set(TABLE_SUITES) and len(rows) == 14
    for argv, want in rows:
        assert hashlib.sha256(json.dumps(list(run_cli(argv))).encode()).hexdigest() == want, argv
    for spec, m in [(chevalley.SL2, 1), (chevalley.SL2, 12), (chevalley.SL3, 3)]:
        assert len(chevalley.enumerate_group(spec, m)) == spec.order_mod(m)
    with pytest.raises(AssertionError, match="decoded"):
        chevalley.enumerate_group(chevalley.SL2, 4).elements


DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

# sha256 of each demo's stdout, run in process, recorded at b870c6a
DEMO_DIGESTS = {
    "counterexample_groups.py": "08f5960f1a833aef78e19edd92fc73f92a0105945999024c5014a1dd88bc9be1",
    "growth_exponent.py": "61e217ff6cbf443511321fb5868b2eef85451da634346c577575ff2672421cf7",
    "minimal_quotients.py": "4166f2cda393a863de5af882a0b1f74409be143daedb8b0f2fbc46d9f55df13e",
    "number_rings.py": "6ca19182f2d1bc09750aa71b7fc3ecb23aa4181b09d2a6a8dfac445b82e30dc9",
    "structure_suite.py": "cdce0c2aed85f519d06e0b5001c22f294ed9ec1065886ccc89534c4ae0c7cc37",
}


def test_every_demo_has_a_digest():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_matches_golden_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DEMO_DIGESTS[name]


USAGE_ERRORS = [  # value errors: exit 2, one "error:" line
    ["dq", "--matrix", "1,2;3"],
    ["dq", "--matrix", ";"],
    ["dq", "--matrix", "1"],
    ["dq", "--matrix", "1,a;0,1"],
    ["dq", "--matrix", "2,0;0,1"],
    ["dq", "--matrix", "1,0;0,1"],
    ["dq", "--matrix", "1,0;0,1", "--allow-central"],
    ["dq", "--group", "gl2", "--matrix", "1,1;0,1"],
    ["dq", "--group", "sl", "--matrix", "1,1;0,1"],
    ["growth", "--group", "sl1", "--n-max", "1"],
    ["growth", "--group", "sl9x", "--n-max", "1"],
    ["growth", "--group", "sl2", "--n-max", "-1"],
    ["growth", "--group", "sl2", "--n-max", "3", "--power", "0"],
    ["growth", "--group", "sl3", "--gens", "st", "--n-max", "1"],
    ["growth", "--group=", "--n-max", "2"],
    # a budget below 1 fails before the ball is built
    ["growth", "--group", "sl2", "--n-max", "3", "--budget", "-5"],
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
    ["verify", "--suite", "adjoint", "--group", "sl2"],
    ["verify", "--suite", "adjoint", "--group", "sl2", "--p", "0"],
    ["verify", "--suite", "adjoint", "--group", "sl1", "--p", "5"],
    ["verify", "--suite", "normal-subgroups", "--group", "sl2"],
    ["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "0"],
    ["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "12"],
    # a composite modulus fails before the budget check of the enumeration
    ["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "1000"],
    ["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "-3"],
    ["verify", "--suite", "centerless", "--group", "sl2", "--modulus", "4", "--budget", "-1"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "2", "--modulus", "4"],
    # the modulus is checked before gcd(N, m)
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "2", "--modulus", "0"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--modulus", "5"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "0", "--modulus", "5"],
    ["verify", "--suite", "strong-approx", "--group", "sl2", "--level", "-2", "--modulus", "5"],
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
    # a --k range that begins with a minus sign reaches the command's check
    ["candidates", "--group", "sl2", "--k", "-2..5"],
    ["verify", "--suite", "moy-prasad", "--group", "sl2", "--p", "5", "--k", "-1..2"],
    ["examples", "--group", "abelian", "--k", "-3..-1"],
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
    ["ring", "--ring", "f=1000000000000000000000001,0,1", "--element", "1,0"],
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

TESTS_DIR = os.path.dirname(__file__)


def _stable(text):
    """text with the tests directory, named by the fit rows, as <tests>."""
    return text.replace(TESTS_DIR, "<tests>")


# sha256 of the exact stderr (through _stable) of the USAGE_ERRORS and
# BUDGET_CASES rows, keyed by their argv joined with spaces, recorded at
# 790fc5f
STDERR_DIGESTS = {
    "dq --matrix 1,2;3":
        "1b8b410cfd7c0c527a4bdd45223011a995edf9ef7222b5a4aaac44c33dbd442a",
    "dq --matrix ;":
        "c525f01f8afa861834977962c53c8a20647ca79bd23bbe97071a564a961c418e",
    "dq --matrix 1":
        "eea1e748e775aa7f8e0679a769ceba53e75d9384c718406dbd3cd36662558d23",
    "dq --matrix 1,a;0,1":
        "0fe4e3b104fd0ac03b48b0eebbc29ae13bc71bdf89548d2d5cc92d2c1b3c3322",
    "dq --matrix 2,0;0,1":
        "090a52a9f220816a6cb477f3ba7276b7859fa261589b5a29bbb369849ab53ecc",
    "dq --matrix 1,0;0,1":
        "4e08366e69e243eb69fd6249e26f1a0849f74d6e06edd9168778ee66164dfb3f",
    "dq --group gl2 --matrix 1,1;0,1":
        "f8aa600c4a2dd7c5bd351680b27fbf52a55b2e0038ec593925e636b65a3a547a",
    "dq --group sl --matrix 1,1;0,1":
        "513b1d3759642cff968fee0e14a932f51bca476a644ef155cb8cce424acc32ee",
    "growth --group sl1 --n-max 1":
        "eea1e748e775aa7f8e0679a769ceba53e75d9384c718406dbd3cd36662558d23",
    "growth --group sl9x --n-max 1":
        "ccbd97db3b401226cbe48a9dde40045ca40bcbdae08bcd8ba86ef9e2fd067015",
    "growth --group sl2 --n-max -1":
        "9f4ea39a2f0b78ccfb5400d78aae98d65fe65a5a2a75df33a0d52529421ea70f",
    "growth --group sl2 --n-max 3 --power 0":
        "8592648c6358afd81cfe4636344770f82508c2b135ac8c74d4c394116d4414e9",
    "growth --group sl3 --gens st --n-max 1":
        "03e50f45b23f241b0ad93ee363948c1de7064eee2bcce37f44bd41c106245d48",
    "candidates --group sl2 --k 0..3":
        "951f50fab381689e01caa9ac168712b2d72ffb2c7ad06a992e7d31b4bff9d260",
    "candidates --group sl2 --k a..b":
        "8bc0dd1fb131a81e071fcd7057d99678f63c33b4c0eef16b5bb11ba89c742afc",
    "candidates --group sl2 --k 5..2":
        "58189a2fd704f6aca2d77e72b95a628fdd260cbd557e382858c47c7a5e8a6702",
    "candidates --group sl2 --k 1 --multiplier 0":
        "109c82227ee32f8356f1de58320e85c3187c5b4c88f6c9da57898eb6370d68f7",
    "candidates --group sl2 --k 1 --s-primes x":
        "e2ae0bc270d7a40f5145d8e005da180ee433b33e127d823ed8cd7a02066fbb06",
    "candidates --group sl2 --k 1 --s-primes 4":
        "0ef5132775b4e20a72a0a33cdf2c4a6625606719d2cf21bbc902061b93128484",
    "candidates --group sl2 --k 1 --s-primes -2":
        "62d9b4745878f829aa55475f6f613e1917a070cbd8f42881b485182c6e1e7cd6",
    "fit <tests>/no-such-file.csv":
        "6dcd6d674fe1c9385788d5a96c863fabe6d6f7429c1512a11f342ca0626782f2",
    "fit <tests>":
        "e7af5139cb0d532f009a18f75d7e87643e61052109a89d2f0c35f92c9cfdd6e5",
    "verify --suite moy-prasad --group sl2":
        "3119395311b2f4fa3db694a82432839c0b9e68d9acd1c32f59c554c7aee911f1",
    "verify --suite moy-prasad --group sl2 --p 5 --k x":
        "5926a02ea722c84328278632d5693f1f5ca422d298cb3151571636d40400581f",
    "verify --suite moy-prasad --group sl2 --p 5 --k 0..1":
        "90a0b707baeebbf4e829857d6da4a43495ffbf59d0852f79916ae38becd4f1fc",
    "verify --suite adjoint --group sl2 --p 0":
        "eb08388fb3257d86974596547f8672f043f9442d7c551b50c81bba6e7a21dc90",
    "verify --suite adjoint --group sl1 --p 5":
        "eea1e748e775aa7f8e0679a769ceba53e75d9384c718406dbd3cd36662558d23",
    "verify --suite normal-subgroups --group sl2 --modulus 0":
        "a076b870b8560ac8eb7440d77800732db8302a49cc798e26e937444a2ac6a9db",
    "verify --suite normal-subgroups --group sl2 --modulus 12":
        "ebd06fb3ae891505714dd3f40c5b0e6194b5cf9c7ecff7f0ef4a6b2f04062bef",
    "verify --suite centerless --group sl2 --modulus -3":
        "a076b870b8560ac8eb7440d77800732db8302a49cc798e26e937444a2ac6a9db",
    "verify --suite strong-approx --group sl2 --level 2 --modulus 4":
        "a4c90dbfc3d077f328e7bbda3cbc4b19a0bd741b166db631a99dc10502409eaf",
    "verify --suite strong-approx --group sl2 --modulus 5":
        "e4098c3bb5dcbaf3c1c8fcec5779d146f673aaf6ff18f47430c5322961dbd796",
    "verify --suite strong-approx --group sl2 --level 0 --modulus 5":
        "e067cce05670d11503085df98c23ecc062f23e078b60399b4d1997a4b80c7769",
    "verify --suite strong-approx --group sl2 --level -2 --modulus 5":
        "bb351726068626a06f010a3b53b5fdc692cb1efd480e021ae12498fcb19d5210",
    "verify --suite strong-approx --group sl2 --level 2 --modulus 9 --trials 0":
        "99b27cf3c55459d15e03c7580a5a7643772d97c6ad71c7b55fa371317e243a95",
    "verify --suite strong-approx --group sl2 --level 2 --modulus 9 --trials -1":
        "a8a3e44764b211de8a61ef1f02d252e6f42b252d655147e8293ad67773f64b3d",
    "examples --group lamplighter --k 1":
        "7ecbeb5186726e7bdb43b4f58c3d5a5d884d800a057ba46a2c83338caf082892",
    "examples --group semidirect --k 2..x":
        "dd55998e45b87e55748e4fa74989668f1e22546593e819a5b3d773628de9c3be",
    "examples --group abelian --k 3..2":
        "74f8df334bfa5e1d215606888e85296ba5542bf359161d08f400950125d880f4",
    "examples --group lamplighter --k 2..9859":
        "cbb88980848fec67437bdbd09457bf93374f5ec2e6d23b51b41bd4458fd64fea",
    "examples --group semidirect --k 2..9859":
        "cbb88980848fec67437bdbd09457bf93374f5ec2e6d23b51b41bd4458fd64fea",
    "ring --ring f= --element 1":
        "29275e68815f3848ab2390bf4935e37695c4b77ee967b8ffb0a9e615043e1e5e",
    "ring --ring f=1 --element 1":
        "6cdda0b73fcf9c36b56c002c6ebfcaf0e9112def697838e9d4958e50171e560a",
    "ring --ring f=1,0,1 --element 1,2,3":
        "b29bafda88e1b2d628160341adc2b1e530ba3fdbcf4c2f0ffa698f4bc055dedd",
    "ring --ring f=1,0,1 --element 1,x":
        "fc78f280e10bf1f9ea5a83ef22de227df127ec20f8b828d1a818e96dc575aba0",
    "ring --ring f=1,0,1;invert=x --element 1,1":
        "f808a9bc1aa37ee28fdb37564fb836bd23d2db1c8edbf75e816b5051b6a097f9",
    "ring --ring f=1,0,1 --element 0,0":
        "69454a019ebb6a9d0730e21e64058122c184ea610b01dfdd4d20f73b02c71bd1",
    "ring --ring f=1,0,1 --element 1,1 --m-max 1":
        "9e76cf6ea413acd5abbd236801e0a885bb849a4df98edcde003f4f50b330cc1a",
    "ring --ring f=1,0,1 --element 1,1 --m-max 0":
        "bb7b3bc0188641717085af815ff585a5ffe102441626b2a81daff0d8166ca56a",
    "ring --ring f=1,0,1 --element 1,1 --m-max=-5":
        "f078bae82c340eceb1f4d3ee6d030a8f32be4e14cb73f07d49d77c3ef10886a0",
    "ring --ring f=1,0,1 --element 1,1 --m-max 200000000":
        "ed46161a8aff723c4323f05b81138aa4c913dfaf53172c3098cecbbbfb3de8c9",
    "ring --ring f=1000000000000000000000001,0,1 --element 1,0":
        "6b6c7dd239c91113a66cf0fdf3e7021fdcea0f2d17a7a32cb34a9609c98302ca",
    # recorded at 3ff9145
    "verify --suite adjoint --group sl2":
        "b3a8d841fcb8d15c9786fe761428306da1c8652a8215499f42de09e0d698237b",
    "verify --suite normal-subgroups --group sl2":
        "c87a2fa6b5f7fe63182595728eecc737de5da8d3b030def90e4c2409a17ce6df",
    "growth --group= --n-max 2":
        "c2e978e37dc0c429071c7bcaaada642ee6b04d7169148cbd4c3ed55d87d57b5e",
    "dq --matrix 1,0;0,1 --allow-central":
        "4e08366e69e243eb69fd6249e26f1a0849f74d6e06edd9168778ee66164dfb3f",
    "verify --suite normal-subgroups --group sl2 --modulus 5 --budget 10":
        "502d94fbddf229480cdfc0498fbc5455e6183a49a4f756283a7215a76a6760e5",
    "verify --suite centerless --group sl2 --modulus 5 --budget 10":
        "502d94fbddf229480cdfc0498fbc5455e6183a49a4f756283a7215a76a6760e5",
    "verify --suite strong-approx --group sl2 --level 1 --modulus 9 --budget 10":
        "0ea404fc08571f2ee55b76ffd8e4e3789db89bd2acfe20dc3dd2e8972607970d",
    "growth --group sl2 --n-max 3 --budget 5":
        "7952dbee383549c02db3c92e1b594c5f4c690e7f71d2891ad225601794dcbac7",
    "growth --group sl3 --n-max 2 --budget 5":
        "989523a441540f8175991c2c7f30a4176534362a819d9a6def6e832ae3cadfec",
    "ring --ring f=1,0,1 --element 12,0 --m-max 3":
        "fc448fcbdb70663f783177b6e928901946c2cf9c50aca96ed7dc617093114dc0",
    # the modulus check ahead of the gcd test
    "verify --suite strong-approx --group sl2 --level 2 --modulus 0":
        "a076b870b8560ac8eb7440d77800732db8302a49cc798e26e937444a2ac6a9db",
    # a budget below 1 is a usage error
    "growth --group sl2 --n-max 3 --budget -5":
        "f5c09fbadec59e089776a81d06d1541979b131db4b345e967eb66063a90f1513",
    "verify --suite centerless --group sl2 --modulus 4 --budget -1":
        "cced38b2e559451dbae447a1ef4b6508342005be2ee0c3dc0240e2573142cb57",
    # a --k range that begins with a minus sign: the command's own message
    "candidates --group sl2 --k -2..5":
        "951f50fab381689e01caa9ac168712b2d72ffb2c7ad06a992e7d31b4bff9d260",
    "verify --suite moy-prasad --group sl2 --p 5 --k -1..2":
        "90a0b707baeebbf4e829857d6da4a43495ffbf59d0852f79916ae38becd4f1fc",
    "examples --group abelian --k -3..-1":
        "7ecbeb5186726e7bdb43b4f58c3d5a5d884d800a057ba46a2c83338caf082892",
}


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

    @pytest.mark.parametrize("key", sorted(STDERR_DIGESTS))
    def test_error_texts_match_golden_digests(self, key):
        argv = next(a for a in USAGE_ERRORS + BUDGET_CASES if _stable(" ".join(a)) == key)
        err = _stable(run_cli(argv)[2])
        assert hashlib.sha256(err.encode()).hexdigest() == STDERR_DIGESTS[key], err

    def test_composite_modulus_fails_before_enumeration(self, monkeypatch):
        def enumerate_group(*args, **kwargs):
            raise AssertionError("enumerated a group for a composite modulus")

        monkeypatch.setattr(chevalley, "enumerate_group", enumerate_group)
        argv = ["verify", "--suite", "normal-subgroups", "--group", "sl2", "--modulus", "90"]
        assert run_cli(argv) == (2, "", "error: modulus 90 is not a prime power\n")

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

    @pytest.mark.parametrize("name", ["sl", "slx", "sl9x"])
    def test_malformed_group_names(self, name):
        rc, out, err = run_cli(["dq", "--group", name, "--matrix", "1,1;0,1"])
        assert (rc, out, err) == (2, "", f"error: unknown group {name!r}\n")

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
        # the cached table holds the cached parser's own command parsers: a
        # default set on one shows in the top-level parse of that command,
        # and cache_clear drops the table with the parser
        ap, commands = cli._parser()
        assert sorted(commands) == sorted(argv[0] for argv in VALID_CALLS)
        try:
            for argv in VALID_CALLS:
                commands[argv[0]].set_defaults(probe=argv[0])
                assert ap.parse_args(argv).probe == argv[0]
        finally:
            cli._parser.cache_clear()
        fresh_ap, fresh_commands = cli._parser()
        assert fresh_ap is not ap
        assert all(fresh_commands[name] is not commands[name] for name in commands)
        assert not hasattr(fresh_ap.parse_args(VALID_CALLS[0]), "probe")
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


VALID_CALLS = [  # one call of each command that exits 0
    ["dq", "--matrix", "1,12;0,1"],
    ["growth", "--group", "sl2", "--n-max", "2"],
    ["candidates", "--group", "sl2", "--k", "2..4"],
    ["fit"],
    ["verify", "--suite", "adjoint", "--group", "sl2", "--p", "5"],
    ["examples", "--group", "abelian", "--k", "2..4"],
    ["ring", "--ring", "f=1,0,1", "--element", "0,5"],
]

ABBREVIATED_SIGNED_CALLS = [  # a signed value after an abbreviated flag: exit 0
    ["dq", "--mat", "-1,0;0,-1"],
    ["ring", "--ring", "f=1,0,1", "--elem", "-3,2"],
]

FIT_STDIN = "k,quotient_order\n2,6\n3,24\n4,120\n5,720\n"

DISPATCH_CALLS = VALID_CALLS + [
    # help at both levels
    ["-h"], ["--help"], ["dq", "-h"], ["verify", "--help"],
    ["dq", "--matrix", "1,1;0,1", "-h"],
    # no command first
    [], ["bogus"], ["--format", "csv", "dq"],
    ["--", "dq", "--matrix", "1,1;0,1"],
    # argparse's own errors in a command
    ["dq"], ["dq", "--matrix"], ["candidates", "--group", "sl2"],
    ["growth", "--group", "sl2", "--n-max", "2", "--gens", "abc"],
    ["verify", "--suite", "bogus", "--group", "sl2"],
    ["growth", "--group", "sl2", "--n-max", "x"],
    ["dq", "--matrix", "1,1;0,1", "--bogus"],
    ["dq", "--matrix", "1,1;0,1", "--bogus", "x", "--allow-central"],
    ["dq", "--matrix", "1,1;0,1", "x", "y"],
    ["fit", "a.csv", "b.csv"],
    # abbreviated flags
    ["growth", "--group", "sl2", "--n-m", "3"],
    ["dq", "--mat", "1,12;0,1"],
    ["dq", "--matrix", "1,12;0,1", "--allow"],
    # "--"
    ["dq", "--matrix", "1,1;0,1", "--"],
    ["dq", "--", "--matrix", "1,1;0,1"],
    ["fit", "--", "-"],
    # signed values
    ["dq", "--matrix", "-1,1;0,-1", "--allow-central"],
    ["ring", "--ring", "f=1,0,1", "--element", "-3,2"],
    ["candidates", "--group", "sl2", "--k", "-2..5"],
    ["candidates", "--group", "sl2", "--k", "-2"],
    *ABBREVIATED_SIGNED_CALLS,
    ["dq", "--x", "-1,0;0,-1"],  # an unknown flag keeps its value apart
    # the command's own exits 1, 2 and 3
    ["verify", "--suite", "adjoint", "--group", "sl2", "--p", "2"],
    ["dq", "--matrix", "2,0;0,1"],
    ["growth", "--group", "sl2", "--n-max", "3", "--budget", "5"],
]


def two_level_main(argv):
    """The reference dispatch: the top-level parser's parse_args over all
    of argv, then the command under main's two handlers."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    except cli.BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return cli.EXIT_INCONCLUSIVE


@pytest.mark.parametrize("argv", DISPATCH_CALLS, ids=" ".join)
def test_dispatch_matches_the_two_level_parse(argv):
    got = run_cli(argv, FIT_STDIN)
    assert got == run_cli(argv, FIT_STDIN, main=two_level_main)
    if argv in VALID_CALLS + ABBREVIATED_SIGNED_CALLS:
        assert (got[0], got[2]) == (0, "")


SIGNED_VALUES = ["-1", "-0", "-.5", "-1,2", "-1,0;0,-1", "-2..5", "-1..2", "-3..-1"]


def _value_flag_calls():
    """Each valid call, then each long flag of its command that takes a
    value, or the abbreviation of one, then a value that starts with "-"
    and a digit."""
    commands = cli._parser()[1]
    for call in VALID_CALLS:
        parser = commands[call[0]]
        flags = [a.option_strings[-1] for a in parser._actions if a.option_strings and a.nargs != 0]
        flags += {"dq": ["--mat"], "ring": ["--elem"]}.get(call[0], [])
        for flag, value in itertools.product(flags, SIGNED_VALUES):
            yield call + [flag, value]


VALUE_FLAG_CALLS = list(_value_flag_calls())


def test_every_command_has_value_flag_calls():
    assert {argv[0] for argv in VALUE_FLAG_CALLS} == {c[0] for c in VALID_CALLS} - {"fit"}
    assert ["verify", "--suite", "adjoint", "--group", "sl2", "--p", "5", "--k", "-1..2"] in VALUE_FLAG_CALLS
    assert ["examples", "--group", "abelian", "--k", "2..4", "--k", "-3..-1"] in VALUE_FLAG_CALLS


@pytest.mark.parametrize("argv", VALUE_FLAG_CALLS, ids=" ".join)
def test_a_signed_token_is_the_value_of_the_flag_before_it(argv):
    # "--flag -x" parses as "--flag=-x": same exit code, stdout and stderr
    *head, flag, value = argv
    assert run_cli(argv, FIT_STDIN) == run_cli(head + [f"{flag}={value}"], FIT_STDIN)


SIGNED_MALFORMED = [  # (argv, exit code, the last line of stderr)
    (["dq", "--group", "-1,2", "--matrix", "1,1;0,1"], 2, "error: unknown group '-1,2'"),
    (["verify", "--suite", "adjoint", "--group", "sl2", "--p", "-1,2"], 2,
     "resfin verify: error: argument --p: invalid int value: '-1,2'"),
    (["fit", "-1,2"], 2, "error: [Errno 2] No such file or directory: '-1,2'"),
    # an unknown flag keeps its value apart
    (["dq", "--matrix", "1,1;0,1", "--x", "-1,0;0,-1"], 2,
     "resfin: error: unrecognized arguments: --x -1,0;0,-1"),
]


@pytest.mark.parametrize("argv,code,last", SIGNED_MALFORMED,
                         ids=[" ".join(argv) for argv, _, _ in SIGNED_MALFORMED])
def test_signed_malformed_values_reach_the_flag_s_own_check(tmp_path, monkeypatch, argv, code, last):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(argv)
    assert (rc, out, err.splitlines()[-1]) == (code, "", last)


def test_emit_quoting_and_endings():
    data = "".join(cli.emit(["a", "b"], [[1, "x,y"], [2, None]], "csv"))
    assert data == 'a,b\n1,"x,y"\n2,\n'
    data = "".join(cli.emit(["a"], [], "csv"))
    assert data == "a\n"
    rows = json.loads("".join(cli.emit(["v"], [[2**60]], "json")))
    assert rows == [{"v": str(2**60)}]


def test_emit_cells_follow_the_written_rules():
    # csv: "" for None, true/false for bools, repr for floats, str otherwise;
    # json: ints past 2**53 - 1 in magnitude as strings, the rest as they are
    rng = random.Random(36)
    cells = [None, True, False, 2**60, -(2**60), 2**53, 2**53 - 1, -(2**53), "s"]
    cells += [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300) for _ in range(2000)]
    cells += [rng.randint(-(2**64), 2**64) >> rng.randint(0, 64) for _ in range(2000)]

    def csv_text(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v) if isinstance(v, float) else str(v)

    def json_text(v):
        big = isinstance(v, int) and not isinstance(v, bool) and abs(v) > 2**53 - 1
        return json.dumps(str(v) if big else v)

    rows = [[v, "|"] for v in cells]  # a lone empty field would be quoted
    assert "".join(cli.emit(["v", "w"], rows, "csv")) == "v,w\n" + "".join(
        csv_text(v) + ",|\n" for v in cells)
    objs = json.loads("".join(cli.emit(["v", "w"], rows, "json")))
    assert [json.dumps(obj["v"]) for obj in objs] == [json_text(v) for v in cells]


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
    assert "".join(cli.emit(header, rows, "json")) == json.dumps(payload, indent=2) + "\n"


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
