"""Command-line driver binding the library into reproducible experiments.

One experiment per invocation; every number printed is produced by a module
operation, the CLI only parses flags and formats tables.  Exit codes: 0 all
good, 1 a property check failed, 2 usage error, 3 budget exhausted or
inconclusive.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import arith, counterexamples, growth, matgrp, numring
from . import chevalley
from .chevalley import BudgetExceededError, GroupSpec
from .matgrp import RangeExhaustedError, UndetectableError

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

JSON_INT_LIMIT = 2**53 - 1


# ---------------------------------------------------------------------------
# output formats


def emit(header: list[str], rows: list[list], fmt: str) -> bytes:
    """CSV: the documented header, LF endings, no trailing separator.
    JSON: list of objects in header order, big integers as decimal strings."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
        return buf.getvalue().encode("utf-8")
    payload = [
        {key: _json_value(v) for key, v in zip(header, row)} for row in rows
    ]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def _json_value(v):
    if isinstance(v, bool) or v is None or isinstance(v, (float, str)):
        return v
    if isinstance(v, int) and abs(v) > JSON_INT_LIMIT:
        return str(v)
    return v


def _write(data: bytes) -> None:
    sys.stdout.write(data.decode("utf-8"))


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_range(text: str) -> tuple[int, int]:
    """"a..b" or a single "k"."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}, expected a..b") from exc
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _require_prime_p(args) -> None:
    if args.p < 2 or not arith.is_prime(args.p):
        raise ValueError(f"--p must be prime, got {args.p}")


def _spec_for(args, n: int | None = None) -> GroupSpec:
    if getattr(args, "group", None):
        spec = GroupSpec.from_name(args.group)
        if n is not None and spec.n != n:
            raise ValueError(
                f"--group {args.group} does not match the {n}x{n} matrix"
            )
        return spec
    if n is None:
        raise ValueError("--group is required")
    return GroupSpec(n)


def _format_poly(coeffs: tuple[int, ...]) -> str:
    """Low-to-high coefficients as a readable polynomial in x."""
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            var = "x" if d == 1 else f"x^{d}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += sign + body
    return text


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dq(args) -> int:
    a = matgrp.parse_matrix(args.matrix)
    spec = _spec_for(args, n=len(a))
    if matgrp.det(a) != 1:
        raise ValueError("matrix must have determinant 1")
    try:
        r = matgrp.congruence_D(a, spec, allow_central=args.allow_central)
    except UndetectableError:
        print("error: identity is undetectable", file=sys.stderr)
        return EXIT_USAGE
    line = f"modulus={r.modulus},order={r.quotient_order}"
    if args.allow_central:
        line += f",central={'true' if r.central_quotient else 'false'}"
    print(line)
    return EXIT_OK


GROWTH_HEADER = [
    "n", "ball_size", "F_value", "witness", "modulus", "quotient_order",
    "central_flag",
]


def _cmd_growth(args) -> int:
    spec = _spec_for(args)
    gens_name = args.gens or ("st" if spec.n == 2 else "elementary")
    if gens_name == "st":
        if spec.n != 2:
            raise ValueError("the S,T generating set is specific to sl2")
        gens = growth.sl2_st()
    else:
        gens = growth.elementary_set(spec.n)
    table = growth.farb_growth(
        gens,
        spec,
        args.n_max,
        k=args.power,
        allow_central=args.allow_central,
        budget=args.budget,
    )
    rows = []
    for row in table.rows:
        d = row.detection
        rows.append([
            row.n,
            row.ball_size,
            row.f_value,
            matgrp.format_matrix(row.witness) if row.witness is not None else None,
            d.modulus if d is not None else None,
            d.quotient_order if d is not None else None,
            d.central_quotient if d is not None else None,
        ])
    _write(emit(GROWTH_HEADER, rows, args.format))
    return EXIT_OK


CANDIDATES_HEADER = ["k", "r_k_log2", "modulus", "quotient_order"]


def _cmd_candidates(args) -> int:
    spec = _spec_for(args)
    s_primes = tuple(
        int(tok) for tok in args.s_primes.split(",") if tok.strip()
    ) if args.s_primes else ()
    cs = growth.CandidateSeq(spec, s_primes=s_primes, e=args.multiplier)
    lo, hi = _parse_range(args.k)
    rows = [
        [k, r_log2, r.modulus, r.quotient_order]
        for k, r_log2, r in growth.candidate_sweep(cs, lo, hi, allow_central=args.allow_central)
    ]
    _write(emit(CANDIDATES_HEADER, rows, args.format))
    return EXIT_OK


def _cmd_fit(args) -> int:
    if args.path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        raise ValueError("empty input, expected a candidates or growth CSV")
    header = records[0]
    if "k" in header and "quotient_order" in header:
        xi, yi = header.index("k"), header.index("quotient_order")
    elif "n" in header and "F_value" in header:
        xi, yi = header.index("n"), header.index("F_value")
    else:
        raise ValueError("unrecognized CSV header, expected candidates or growth columns")
    pairs = []
    for rec in records[1:]:
        if len(rec) <= max(xi, yi) or not rec[xi] or not rec[yi]:
            continue
        x, y = int(rec[xi]), int(rec[yi])
        if x > 0 and y > 0:
            pairs.append((x, y))
    f = growth.fit_exponent(pairs)
    out = {"slope": f.slope, "intercept": f.intercept, "max_residual": f.max_residual}
    print(json.dumps(out))
    return EXIT_OK


VERIFY_HEADER = ["check_name", "instance", "status", "detail"]
VERIFY_SUITES = (
    "moy-prasad", "adjoint", "normal-subgroups", "centerless", "strong-approx",
)


def _cmd_verify(args) -> int:
    spec = _spec_for(args)
    results: list[chevalley.CheckResult] = []
    if args.suite == "moy-prasad":
        if args.p is None or args.k is None:
            raise ValueError("moy-prasad needs --p and --k")
        _require_prime_p(args)
        lo, hi = _parse_range(args.k)
        if lo < 2:
            raise ValueError("moy-prasad needs level k >= 2")
        for k in range(lo, hi + 1):
            for i in range(1, k):
                results.append(chevalley.moy_prasad_check(spec, args.p, k, i))
            results.append(chevalley.commutator_filtration_check(spec, args.p, k))
    elif args.suite == "adjoint":
        if args.p is None:
            raise ValueError("adjoint needs --p")
        _require_prime_p(args)
        results.append(chevalley.adjoint_irreducibility_check(spec, args.p))
    elif args.suite == "normal-subgroups":
        if args.modulus is None:
            raise ValueError("normal-subgroups needs --modulus")
        table = chevalley.enumerate_group(spec, args.modulus, budget=args.budget)
        results.append(chevalley.normal_structure_check(table))
    elif args.suite == "centerless":
        if args.modulus is None:
            raise ValueError("centerless needs --modulus")
        table = chevalley.enumerate_group(spec, args.modulus, budget=args.budget)
        results.append(chevalley.centerless_quotient_check(table))
    else:  # strong-approx
        if args.level is None or args.modulus is None:
            raise ValueError("strong-approx needs --level and --modulus")
        if args.level > 1 and args.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        results.append(
            chevalley.strong_approx_check(
                spec, args.level, args.modulus, trials=args.trials, seed=args.seed,
                budget=args.budget,
            )
        )
    rows = []
    for r in results:
        detail = r.detail if r.mode == "exhaustive" else f"{r.detail} [mode={r.mode}]"
        rows.append([r.check, r.instance, r.status, detail])
    _write(emit(VERIFY_HEADER, rows, args.format))
    if any(r.status == "fail" for r in results):
        return EXIT_FALSIFIED
    if any(r.status == "inconclusive" for r in results):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


EXAMPLES_HEADER = ["k", "candidate", "modulus", "order", "certificate_pass"]


def _candidate(group: str, k: int):
    """The examples candidate for k, and its text in the candidate column."""
    if group == "lamplighter":
        g = counterexamples.lamp_candidate(k)
        return g, "+".join(f"d{i}" for i in sorted(g.support))
    if group == "semidirect":
        g = counterexamples.semidirect_candidate(k)
        return g, f"{g.vec[0]};{g.vec[1]}"
    v = counterexamples.abelian_candidate(k)
    return v, f"{v[0]};{v[1]}"


def _cmd_examples(args) -> int:
    lo, hi = _parse_range(args.k)
    # the largest k has the longest candidate: render it before any row, so
    # a k past Python's integer-to-string limit fails at once (k < 2 fails
    # at its own row)
    if lo >= 2:
        try:
            _candidate(args.group, hi)
        except ValueError:
            raise ValueError(
                f"--k {hi}: the candidate has more digits than Python's "
                f"{sys.get_int_max_str_digits()}-digit integer-to-string limit"
            ) from None
    rows = []
    inconclusive = False
    for k in range(lo, hi + 1):
        g, cand = _candidate(args.group, k)
        cert = None
        if args.group == "lamplighter":
            r = counterexamples.lamp_quotient_D(k)
            if k >= 4:
                cert = counterexamples.lamp_injectivity_certificate(
                    k, r.modulus
                ).passed
        elif args.group == "semidirect":
            r = counterexamples.semidirect_quotient_D(k)
            cert = counterexamples.semidirect_kernel_structure_check(
                r.modulus
            ).passed
        else:  # abelian
            r = counterexamples.abelian_D(g)
        if cert is False:
            inconclusive = True
        rows.append([k, cand, r.modulus, r.order, cert])
    _write(emit(EXAMPLES_HEADER, rows, args.format))
    return EXIT_FALSIFIED if inconclusive else EXIT_OK


def _cmd_ring(args) -> int:
    if args.m_max < 2:
        raise ValueError(f"--m-max must be >= 2, got {args.m_max}")
    ring = numring.parse_ring(args.ring)
    try:
        coords = tuple(int(tok) for tok in args.element.split(","))
    except ValueError as exc:
        raise ValueError(f"bad element text {args.element!r}") from exc
    a = ring.element(coords)
    try:
        split = numring.detect_split(a, limit=args.m_max)
        ideal = numring.min_detecting_ideal(a, limit=args.m_max)
    except UndetectableError:
        print("error: zero is undetectable", file=sys.stderr)
        return EXIT_USAGE
    print(f"split: prime={split.prime},root={split.root},residue={split.residue}")
    print(
        f"ideal: prime={ideal.prime},factor={_format_poly(ideal.factor)},"
        f"norm={ideal.norm}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resfin",
        description="minimal detecting quotients and residual finiteness growth",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("dq", help="minimal detecting congruence quotient of a matrix")
    p.add_argument("--matrix", required=True, help='row-major, e.g. "1,12;0,1"')
    p.add_argument("--group", help="sl2|sl3|sl4 (default: inferred from the matrix)")
    p.add_argument("--allow-central", action="store_true")
    p.set_defaults(func=_cmd_dq)

    p = sub.add_parser("growth", help="normal growth table F(n) along word balls")
    p.add_argument("--group", required=True)
    p.add_argument("--gens", choices=("st", "elementary"))
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--power", type=int, default=1, help="measure D(g^k) instead of D(g)")
    p.add_argument("--allow-central", action="store_true")
    p.add_argument("--budget", type=int, default=growth.DEFAULT_BALL_BUDGET)
    p.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="accepted and ignored; growth tables run serially",
    )
    add_output(p)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("candidates", help="detection orders along the probe sequence")
    p.add_argument("--group", required=True)
    p.add_argument("--k", required=True, help="range a..b")
    p.add_argument("--s-primes", help='inverted primes, e.g. "2,3"')
    p.add_argument("--multiplier", type=int, default=1, help="index factor e")
    p.add_argument("--allow-central", action="store_true")
    add_output(p)
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("fit", help="log-log exponent fit of a candidates or growth CSV")
    p.add_argument("path", nargs="?", help="CSV file (default: stdin)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="structural check suites, one CSV line per check")
    p.add_argument("--suite", choices=VERIFY_SUITES, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, help="prime, for moy-prasad and adjoint")
    p.add_argument("--k", help="filtration level or range a..b")
    p.add_argument("--modulus", type=int, help="for normal-subgroups, centerless, strong-approx")
    p.add_argument("--level", type=int, help="congruence level N for strong-approx")
    p.add_argument("--trials", type=int, default=64)
    p.add_argument(
        "--seed", type=int, default=0,
        help="seeds strong-approx's random conjugates (--level > 1); "
        "no other suite reads it",
    )
    p.add_argument(
        "--budget", type=int, default=chevalley.DEFAULT_ENUM_BUDGET,
        help="element budget of the group enumeration in normal-subgroups, "
        "centerless and strong-approx; no other suite reads it",
    )
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("examples", help="counterexample families: candidates and certificates")
    p.add_argument(
        "--group", choices=("lamplighter", "semidirect", "abelian"), required=True
    )
    p.add_argument("--k", required=True, help="range a..b")
    add_output(p)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("ring", help="split-prime and minimal-ideal detection in Z[x]/(f)")
    p.add_argument("--ring", required=True, help='"f = c0,c1,...; invert = f0"')
    p.add_argument("--element", required=True, help='power-basis coordinates, e.g. "0,5"')
    p.add_argument("--m-max", type=int, default=numring.DEFAULT_PRIME_LIMIT)
    p.set_defaults(func=_cmd_ring)

    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Parsing leaves it unchanged and
    returns a fresh Namespace per call."""
    return build_parser()


def _join_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--matrix -1,0;0,-1" as "--matrix=-1,0;0,-1": argparse takes a
    separate value that begins with "-" for an unknown flag."""
    out: list[str] = []
    for tok in argv:
        if (out and out[-1] in ("--matrix", "--element")
                and tok.startswith("-") and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_join_signed_values(argv))
    try:
        return args.func(args)
    except (UndetectableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RangeExhaustedError, BudgetExceededError) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
