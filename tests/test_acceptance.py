"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime. Run with `pytest tests/test_acceptance.py -v -s` to see them.

Every tolerance is exact (rational arithmetic, zero tolerance) except the
stated wall-clock budgets, which are asserted as given.
"""

import time
from math import gcd

from cyindex import selftest as corpus
from cyindex.cli import main
from cyindex.numtheory import euler_phi, indices_with_phi_at_most, sylvester_bound


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def _report(number: int, label: str, timer: Timer, budget: float):
    print(f"PASS criterion {number}: {label} ({timer.seconds:.3f}s < {budget:g}s)")
    assert timer.seconds < budget, f"criterion {number} exceeded {budget}s"


def _phi_counting(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def test_criterion_01_totient_tables():
    with Timer() as t:
        assert indices_with_phi_at_most(2) == [1, 2, 3, 4, 6]
        assert indices_with_phi_at_most(4) == [1, 2, 3, 4, 5, 6, 8, 10, 12]
        oracle_phi = [0] + [_phi_counting(m) for m in range(1, 1001)]
        for bound in range(1, 65):
            members = indices_with_phi_at_most(bound)
            got = [m for m in members if m <= 1000]
            want = [m for m in range(1, 1001) if oracle_phi[m] <= bound]
            assert got == want, bound
        corpus.check_totients()
    _report(1, "totient tables match the brute-force oracle", t, 1.0)


def test_criterion_02_low_dimension_tables(capsys):
    with Timer() as t:
        code = main(["table", "--dims", "1,2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = {line.split(":", 1)[0]: line.split(":", 1)[1] for line in out.splitlines() if ":" in line}
        i1 = [int(tok) for tok in lines["I(1) members (5)"].split()]
        assert i1 == [1, 2, 3, 4, 6]
        key = next(k for k in lines if k.startswith("I(2) members"))
        i2 = [int(tok) for tok in lines[key].split()]
        expected = [m for m in indices_with_phi_at_most(20) if m != 60]
        assert i2 == expected
        assert 66 in i2 and 60 not in i2 and 64 not in i2
        assert euler_phi(64) == 32
    with capsys.disabled():
        _report(2, "I(1) and I(2) tables reproduced exactly", t, 1.0)


def test_criterion_03_degree_zero_identities():
    with Timer() as t:
        corpus.check_log_degrees()
    _report(3, "log degree exactly 0 on both family grids", t, 1.0)


def test_criterion_04_index_identities():
    with Timer() as t:
        corpus.check_pair_indices()
    _report(4, "pair indices match m and m^e on both grids", t, 1.0)


def test_criterion_05_dimension_inequality():
    with Timer() as t:
        corpus.check_dim_inequalities()
    _report(5, "padding inequality holds; excluded pairs rejected", t, 1.0)


def test_criterion_06_klt_checks():
    with Timer() as t:
        corpus.check_klt()
    _report(6, "klt checks pass on all family leaves, fail on tampered ones", t, 10.0)


def test_criterion_07_main_theorem_desk_scale():
    with Timer() as t:
        pairs = corpus.check_realize()
    _report(7, f"realize+verify on all {pairs} grid pairs (3 <= n <= 10)", t, 60.0)


def test_criterion_08_tamper_suite():
    from test_certify import TAMPER_CASES, _failing_names, _verify_obj

    with Timer() as t:
        assert len(TAMPER_CASES) >= 20
        for param in TAMPER_CASES:
            build, expected = param.values
            report = _verify_obj(build())
            assert not report.passed, param.id
            assert expected in _failing_names(report), (param.id, _failing_names(report))
    _report(8, f"all {len(TAMPER_CASES)} mutations detected with the named check", t, 5.0)


def test_criterion_09_search_ground_truth():
    with Timer() as t:
        corpus.check_search()
    _report(9, "plane searches match the classification and re-verify", t, 30.0)


def test_criterion_10_sylvester_bound_consistency():
    with Timer() as t:
        i1 = [1, 2, 3, 4, 6]
        i2 = [m for m in indices_with_phi_at_most(20) if m != 60]
        assert sylvester_bound(2) == max(i1) == 6
        assert sylvester_bound(3) == max(i2) == 66
    _report(10, "extremal indices match the Sylvester-sequence bound", t, 1.0)
