import pytest

from filament_prng import prng, verify
from filament_prng.errors import TooLarge
from filament_prng.prng import MAX_STREAM_SAMPLES
from filament_prng.verify import (
    SuiteResult,
    verify_closure,
    verify_compound,
    verify_gauss,
    verify_theorem1,
)


def test_suite_result_describe():
    good = SuiteResult(name="demo", cases=10, max_error=1e-12, tolerance=1e-9)
    bad = SuiteResult(name="demo", cases=10, max_error=1e-3, tolerance=1e-9)
    assert good.passed and "pass" in good.describe()
    assert not bad.passed and "FAIL" in bad.describe()


def test_gauss_sweep_deterministic_across_workers():
    first = verify_gauss(q_max=60)
    again = verify_gauss(q_max=60)
    assert first == again
    assert all(s.passed for s in first)


def test_sweep_work_budget_refused_before_any_work():
    # gauss sums at most q_max**3 terms; the largest accepted q_max is 1024
    assert 1024**3 <= verify.MAX_SWEEP_CASES < 1025**3
    with pytest.raises(TooLarge):
        verify_gauss(q_max=1025)
    # each polygon passes the corner budget, the sweep does not
    with pytest.raises(TooLarge, match="closure sweep"):
        verify_closure(sides_range=(3, 3), q_max=300_000)
    with pytest.raises(TooLarge, match="theorem1 sweep"):
        verify_theorem1(sides_range=(3, 8), q_max=300)
    with pytest.raises(TooLarge):
        verify_compound(p_max=MAX_STREAM_SAMPLES + 1)
    # the default sweeps fit: at most 300**3 = 2.7e7 units
    assert 300**3 <= verify.MAX_SWEEP_CASES


def test_theorem1_sweep_small():
    suite = verify_theorem1(sides_range=(3, 4), q_max=8)
    assert suite.passed
    assert suite.cases > 0


def test_closure_sweep_small():
    suite = verify_closure(sides_range=(3, 4), q_max=10)
    assert suite.passed


def test_compound_sweep_small():
    suite = verify_compound(prime_sets=((5, 7),), p_max=300)
    assert suite.passed
    # admissible means coprime to 35
    assert suite.cases == sum(1 for p in range(1, 301) if p % 5 and p % 7)


def test_compound_sweep_evaluates_identity_once_per_stream(monkeypatch):
    calls = []
    residual = prng.compound_identity_residual

    def counted(*args):
        calls.append(args[1])
        return residual(*args)

    monkeypatch.setattr(prng, "compound_identity_residual", counted)
    monkeypatch.setattr(verify, "compound_identity_residual", counted)
    assert verify_compound(((5, 7), (11, 13, 17)), 1000).passed
    assert calls == [(5, 7), (11, 13, 17)]
