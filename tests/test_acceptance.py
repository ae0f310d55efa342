"""
Acceptance suite: one test per exit criterion, each printing a PASS line
with its runtime (run with ``pytest -s`` to see them inline).  Tolerances
are exact; the time limits are part of the criteria.
"""

import math
import random
import time
from itertools import permutations

from sigmabraid.characters import (
    klein_character,
    sphere_point,
    torus_character,
)
from sigmabraid.checks import relation_checks, verify_equation_bank
from sigmabraid.criterion import (
    CertificateCase,
    case_character,
    explore_ball,
    generate_lemma_certificates,
    verify_certificate,
)
from sigmabraid.models import ModelId, parse_model_word
from sigmabraid.sigma import (
    IN_COMPLEMENT,
    IN_SIGMA1,
    act_permutation,
    commutator_fg_flag,
    decide_sigma,
    enumerate_complement,
    r_infinity_certificate,
)
from sigmabraid.words import GroupContext


class Timer:
    def __init__(self, name, limit):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s, limit {self.limit}s)")
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s ({elapsed:.2f}s)"


def test_criterion_1_complement_counts():
    with Timer("1 complement counts", 1.0):
        for n in range(2, 7):
            assert enumerate_complement(GroupContext("P", "T", n)).count == math.comb(n, 2)
            assert enumerate_complement(GroupContext("P", "K", n)).count == 2 * math.comb(n, 2)
        for n in range(4, 8):
            expected = math.comb(n, 3) + math.comb(n, 4)
            assert enumerate_complement(GroupContext("P", "S2", n)).count == expected
        assert enumerate_complement(GroupContext("P", "S2", 5)).count == 15


def test_criterion_2_presentation_vs_oracle():
    with Timer("2 presentation vs oracle", 30.0):
        total = 0
        for check in relation_checks(max_n=1, random_words=0):
            if check.kind == "oracle":
                assert check.passed, str(check)
                total += 1
        assert total >= 8 + 29 + 75 + 8


def test_criterion_3_equation_bank():
    with Timer("3 equation bank", 5.0):
        for model in ModelId:
            count = 10_000 if model is ModelId.G2K else 0
            checks = verify_equation_bank(model, random_words=count, max_len=12)
            assert all(c.passed for c in checks), [str(c) for c in checks if not c.passed]
        assert len(verify_equation_bank(ModelId.G3T, random_words=0)) == 12


def test_criterion_4_certificate_suite():
    with Timer("4 certificate suite", 60.0):
        for case in CertificateCase:
            for p in (1, 2, 3, 5):
                for q in (1, 2, 3, 5):
                    cert = generate_lemma_certificates(case, p, q)
                    chi_model, chi_braid = case_character(case, p, q)
                    report = verify_certificate(cert, chi_model)
                    assert report.passed and report.endpoints_checked, (case, p, q)
                    assert all(line.margin > 0 for line in report.lines)
                    verdict = decide_sigma(chi_braid.spec.group, sphere_point(chi_braid))
                    assert verdict.membership == IN_SIGMA1, (case, p, q)


def _random_complement_witness(rng, surface, n):
    i = rng.randrange(1, n + 1)
    j = rng.randrange(1, n + 1)
    while j == i:
        j = rng.randrange(1, n + 1)
    if surface == "K":
        b = [0] * n
        b[i - 1], b[j - 1] = 1, -1
        return sphere_point(klein_character(n, b))
    p, q = 0, 0
    while (p, q) == (0, 0):
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
    a, b = [0] * n, [0] * n
    a[i - 1], a[j - 1] = p, -p
    b[i - 1], b[j - 1] = q, -q
    return sphere_point(torus_character(n, a, b))


def test_criterion_5_invariance_sweep():
    with Timer("5 invariance sweep", 60.0):
        rng = random.Random(0)
        for n in range(2, 6):
            taus = list(permutations(range(1, n + 1)))
            for surface in ("T", "K"):
                group = GroupContext("P", surface, n)
                points = [_random_complement_witness(rng, surface, n) for _ in range(100)]
                for pt in points:
                    assert decide_sigma(group, pt).membership == IN_COMPLEMENT
                for tau in taus:
                    for pt in points:
                        moved = act_permutation(group, tau, pt)
                        assert decide_sigma(group, moved).membership == IN_COMPLEMENT


def test_criterion_6_negative_controls():
    from sigmabraid.characters import character
    with Timer("6 bounded ball controls", 60.0):
        chi = character(ModelId.G2K, {"y": -1})
        target = parse_model_word("y x y^-1", ModelId.G2K)
        report = explore_ball(ModelId.G2K, chi, radius=6, targets=[target])
        assert report.base == "y^-1"
        assert report.targets[0].in_ball and report.targets[0].nonnegative
        assert not report.targets[0].reachable
        assert "not a disconnection proof" in report.note

        chi = character(ModelId.G2K, {"b": 1})
        report = explore_ball(ModelId.G2K, chi, radius=4)
        assert report.reachable_count == report.nonnegative_count
        assert report.unreached_sample == ()


def test_criterion_7_application_layer():
    with Timer("7 application layer", 1.0):
        for n in range(2, 7):
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            cert = r_infinity_certificate(n, matrix=identity)
            assert cert.certified
            assert cert.index_bound == math.factorial(2 * math.comb(n, 2))
        expected = {("T", 1), ("K", 1), ("S2", 1), ("S2", 2), ("S2", 3)}
        for surface in ("T", "K", "S2"):
            for n in range(1, 8):
                flag = commutator_fg_flag(GroupContext("P", surface, n))
                assert flag == ((surface, n) in expected)


def test_criterion_8_abelianization_net():
    with Timer("8 abelianization net", 10.0):
        checked = 0
        for check in relation_checks(max_n=6, random_words=0):
            if check.kind == "abelianization":
                assert check.passed, str(check)
                checked += 1
        assert checked > 2000
