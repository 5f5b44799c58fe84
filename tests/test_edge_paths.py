"""Edge paths of the library API that no command-line test reaches: the
argument guards, the degenerate sizes and the exhausted fold search."""

from collections import namedtuple

import pytest

from resfin import arith, growth, matgrp
from resfin import counterexamples as ce
from resfin import numring as nr
from resfin.chevalley import GroupSpec
from resfin.matgrp import BudgetExceededError

SL3 = GroupSpec(3)
EYE2 = matgrp.identity(2)
Raises = namedtuple("Raises", "exc pattern")

# name -> (call, the value it returns or the Raises it must raise)
EDGE_CASES = {
    "primes_up_to above the cap": (
        lambda: arith.primes_up_to(10**8 + 1), Raises(ValueError, "exceeds cap")),
    "primes_up_to(1)": (lambda: arith.primes_up_to(1), []),
    "lcm_valuation at k = 0": (lambda: arith.lcm_valuation(0, 2), Raises(ValueError, "k >= 1")),
    "least_nondivisor(0)": (lambda: arith.least_nondivisor(0), Raises(ValueError, "m >= 1")),
    "reduce_mod at modulus 0": (lambda: matgrp.reduce_mod(EYE2, 0), Raises(ValueError, "modulus")),
    "CandidateSeq.r(0)": (lambda: growth.CandidateSeq(SL3).r(0), Raises(ValueError, "k must be >= 1")),
    "CandidateSeq.r_log2(0)": (
        lambda: growth.CandidateSeq(SL3).r_log2(0), Raises(ValueError, "k must be >= 1")),
    "adjugate of a 1x1 matrix": (lambda: matgrp.adjugate(((5,),)), ((1,),)),
    "lamp_quotient_D(1)": (lambda: ce.lamp_quotient_D(1), Raises(ValueError, "k must be >= 2")),
    "semidirect_quotient_D(1)": (
        lambda: ce.semidirect_quotient_D(1), Raises(ValueError, "k must be >= 2")),
    "semidirect_fold at d = 0": (
        lambda: ce.semidirect_fold(ce.semidirect_candidate(6), 0), Raises(ValueError, "modulus")),
    # lcm(1..6) = 60 dies mod every d <= 6
    "semidirect_detect past its last fold": (
        lambda: ce.semidirect_detect(ce.semidirect_candidate(6), 6),
        Raises(BudgetExceededError, "no fold modulus <= 6")),
    "_pdivmod by the zero polynomial": (
        lambda: nr._pdivmod((1, 2), (), 5), Raises(ZeroDivisionError, "division by zero")),
    # 3x + 1 is the constant 1 mod 3
    "factor_distinct_mod of a constant": (lambda: nr.factor_distinct_mod((1, 3), 3), []),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_path(name):
    call, want = EDGE_CASES[name]
    if isinstance(want, Raises):
        with pytest.raises(want.exc, match=want.pattern):
            call()
    else:
        assert call() == want
