"""The per-layer metrics, what each should move, and how a traced pass
yields them.

Every entry is ``(name, unit, better, target)``.  ``target`` names the
end-to-end metric and workload the layer metric should move; it is the
prediction a change to that layer is judged against.  ``BENCHMARK.json``
lists the same names, units and directions (a test keeps them in step).
"""

from __future__ import annotations

import spans as tr

_S, _N = "s", "count"

LAYER_METRICS = [
    # arith
    ("arith.is_prime_power.calls", _N, "lower", "wall_s on detect"),
    ("arith.is_prime_power.self_s", _S, "lower", "wall_s on detect"),
    ("arith.factorize.calls", _N, "lower", "wall_s on detect"),
    ("arith.factorize.self_s", _S, "lower", "wall_s on detect"),
    ("arith.primes_up_to.calls", _N, "lower", "wall_s on rings (one sieve per detection) and detect (r_log2 re-sieves per k)"),
    ("arith.primes_up_to.self_s", _S, "lower", "wall_s on rings and detect"),
    ("arith.primes_up_to.sieved", _N, "lower", "wall_s on rings and detect"),
    ("arith.prime_powers_up_to.calls", _N, "lower", "setup_s and op_p50_ms on detect"),
    ("arith.prime_powers_up_to.self_s", _S, "lower", "setup_s and op_p50_ms on detect"),
    # matgrp
    ("matgrp.congruence_D.calls", _N, "lower", "op_p50_ms on detect"),
    ("matgrp.congruence_D.self_s", _S, "lower", "op_p50_ms on detect"),
    ("matgrp.mat_mul.calls", _N, "lower", "wall_s on detect"),
    ("matgrp.mat_mul_mod.calls", _N, "lower", "wall_s on structure"),
    ("matgrp.mat_inv_mod.calls", _N, "lower", "wall_s on structure"),
    ("matgrp.q_tested_per_detection", "ratio", "lower", "wall_s on detect"),
    # chevalley
    ("chevalley.enumerate_group.calls", _N, "lower", "wall_s and peak_rss_mb on structure"),
    ("chevalley.enumerate_group.self_s", _S, "lower", "wall_s and peak_rss_mb on structure"),
    ("chevalley.enumerate_group.elements", _N, "lower", "wall_s and peak_rss_mb on structure"),
    ("chevalley.conjugacy_classes.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.normal_subgroups_containing_center.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.filtration_center_subgroups.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.moy_prasad_check.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.commutator_filtration_check.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.filtration_elements.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.adjoint_irreducibility_check.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.strong_approx_check.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.centerless_quotient_check.self_s", _S, "lower", "op_p90_ms and wall_s on structure"),
    ("chevalley.checks.sampled_frac", "ratio", "lower", "no time metric (guards against checking less)"),
    # growth
    ("growth.word_ball.self_s", _S, "lower", "wall_s on detect"),
    ("growth.word_ball.elements", _N, "lower", "wall_s on detect"),
    ("growth.farb_growth.self_s", _S, "lower", "wall_s on detect (pool wait included)"),
    ("growth.candidate_D_analytic.calls", _N, "lower", "wall_s on detect"),
    ("growth.candidate_D_analytic.self_s", _S, "lower", "wall_s on detect"),
    ("growth.CandidateSeq.r_log2.self_s", _S, "lower", "wall_s on detect"),
    ("growth.short_unipotent_word.self_s", _S, "lower", "op_p90_ms on detect"),
    ("growth.evaluate_word.self_s", _S, "lower", "op_p90_ms on detect"),
    ("growth.evaluate_word.tokens", _N, "lower", "op_p90_ms on detect"),
    # numring
    ("numring.detect_split.calls", _N, "lower", "wall_s on rings"),
    ("numring.detect_split.self_s", _S, "lower", "wall_s on rings"),
    ("numring.min_detecting_ideal.calls", _N, "lower", "wall_s on rings"),
    ("numring.min_detecting_ideal.self_s", _S, "lower", "wall_s on rings"),
    ("numring.factor_distinct_mod.calls", _N, "lower", "wall_s on rings"),
    ("numring.factor_distinct_mod.self_s", _S, "lower", "wall_s on rings"),
    ("numring.reduce_element.calls", _N, "lower", "wall_s on rings"),
    ("numring.reduce_element.per_detection", "ratio", "lower", "wall_s on rings"),
    ("numring.parse_ring.self_s", _S, "lower", "op_p50_ms on rings"),
    # counterexamples
    ("counterexamples.semidirect_kernel_structure_check.self_s", _S, "lower", "op_p90_ms on rings"),
    ("counterexamples.lamp_injectivity_certificate.self_s", _S, "lower", "op_p90_ms on rings"),
    ("counterexamples.lamp_quotient_D.self_s", _S, "lower", "op_p90_ms on rings"),
    ("counterexamples.semidirect_quotient_D.self_s", _S, "lower", "op_p90_ms on rings"),
    # cli
    ("cli.main.self_s", _S, "lower", "op_p50_ms on every workload (parse + dispatch + format)"),
    ("cli.emit.self_s", _S, "lower", "op_p50_ms on every workload"),
    ("cli.emit.bytes", _N, "lower", "op_p50_ms on every workload"),
    # what the trace itself costs and misses
    ("trace.wall_s", _S, "lower", "traced wall_s of the same op list"),
    ("trace.overhead_s", _S, "lower", "traced wall_s minus untraced wall_s"),
    ("trace.unattributed_s", _S, "lower", "op time covered by no layer span"),
    # the mechanisms ROADMAP plans to change, as shares of traced op time
    ("mech.candidate_sweep.share", "ratio", "lower", "wall_s on detect"),
    ("mech.growth_tables.share", "ratio", "lower", "wall_s on detect"),
    ("mech.word_eval.share", "ratio", "lower", "wall_s and op_p90_ms on detect"),
    ("mech.pair_scans.share", "ratio", "lower", "wall_s on structure"),
    ("mech.normal_lattice.share", "ratio", "lower", "wall_s on structure"),
    ("mech.enumeration.share", "ratio", "lower", "wall_s on structure"),
]

MECHANISMS = {
    "mech.candidate_sweep.share": {"growth.candidate_D_analytic", "growth.CandidateSeq.r_log2"},
    "mech.growth_tables.share": {"growth.farb_growth"},
    "mech.word_eval.share": {"growth.short_unipotent_word", "growth.evaluate_word"},
    "mech.pair_scans.share": {"chevalley.moy_prasad_check", "chevalley.commutator_filtration_check"},
    "mech.normal_lattice.share": {"chevalley.normal_structure_check"},
    "mech.enumeration.share": {"chevalley.enumerate_group", "chevalley.strong_approx_check"},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_tracer(tracer: tr.Tracer, latencies: list[float], wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, except trace.overhead_s,
    which needs the untraced passes and is filled in by run.py."""
    self_s, roots = tr.self_times(tracer.spans)
    op_time = sum(latencies)
    values: dict[str, float] = {}
    for name, unit, _, _ in LAYER_METRICS:
        func, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls[func]
        elif stat == "self_s":
            values[name] = self_s.get(func, 0.0)
        elif unit == _N:
            values[name] = tracer.items[name]
    values["matgrp.q_tested_per_detection"] = _ratio(
        tracer.q_tested,
        tracer.calls["matgrp.congruence_D"] + tracer.calls["growth.candidate_D_analytic"],
    )
    values["numring.reduce_element.per_detection"] = _ratio(
        tracer.calls["numring.reduce_element"], tracer.calls["numring.detect_split"]
    )
    values["chevalley.checks.sampled_frac"] = _ratio(tracer.sampled_checks, tracer.checks)
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = op_time - roots
    for name, funcs in MECHANISMS.items():
        values[name] = _ratio(tr.inclusive_time(tracer.spans, frozenset(funcs)), op_time)
    return values


def top_self_times(tracer: tr.Tracer, n: int = 12) -> list[tuple[str, float]]:
    self_s, _ = tr.self_times(tracer.spans)
    return sorted(self_s.items(), key=lambda kv: -kv[1])[:n]
