"""The verification harness itself: green by default, honest under faults."""

import dataclasses

import pytest

from millscf import verify
from millscf.tails import FAMILIES, get_family
from millscf.verify import SUITES, run_suites


def test_all_suites_pass():
    results = run_suites()
    assert len(results) == len(SUITES)
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert failures == []


def test_suite_filtering():
    results = run_suites(["alternating", "pade"])
    assert [name for name, _, _ in results] == ["alternating", "pade"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"])


def test_injected_sign_fault_is_caught(monkeypatch):
    # a sign operator of the wrong sign must fail the sign suite and nothing else
    real = verify._sign_operator
    monkeypatch.setattr(verify, "_sign_operator", lambda *args: -real(*args))
    results = run_suites()
    status = {name: ok for name, ok, _ in results}
    assert not status["sign-identity"]
    assert all(ok for name, ok in status.items() if name != "sign-identity")


def test_fit_conditions_follow_the_family_flags(monkeypatch):
    # the suite holds a family to the conditions its fits_* flags claim:
    # lee claiming the value fit (it starts from sqrt(n+1), not beta_n(0))
    # must fail it, naming lee
    lee = dataclasses.replace(get_family("lee"), fits_value=True)
    monkeypatch.setitem(FAMILIES, "lee", lambda: lee)
    [(_, ok, detail)] = run_suites(["fit-conditions"])
    assert not ok
    assert detail.startswith("Delta_0(0) = ") and detail.endswith(
        " for lee (tol 1e-14)")
