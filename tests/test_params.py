import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hsbubble.errors import DomainError, NumericalError
from hsbubble.params import (HSParams, Record, derive_constants,
                             yamabe_consistency)


def test_constants_n7_s1():
    c = derive_constants(HSParams(7, 1.0))
    assert c.crit_exp == pytest.approx(2.4, abs=0)
    # kappa = 30^{5/2} = 900*sqrt(30)
    np.testing.assert_allclose(c.kappa, 900.0 * math.sqrt(30.0), rtol=1e-15)
    np.testing.assert_allclose(c.kappa, 4929.50302, rtol=1e-8)
    assert c.c_ns == pytest.approx(25.0 / 132.0, rel=1e-15)
    assert c.lambda_ns == pytest.approx(9.0 / 44.0, rel=1e-15)
    assert c.kappa_pow == 30.0


def test_constants_n8_shalf():
    c = derive_constants(HSParams(8, 0.5))
    assert c.crit_exp == pytest.approx(2.5, abs=0)
    assert c.c_ns == pytest.approx(11.0 / 54.0, rel=1e-15)
    assert c.lambda_ns == pytest.approx(19.0 / 90.0, rel=1e-15)
    # kappa = (7.5*6)^{6/(2*1.5)} = 45^2
    np.testing.assert_allclose(c.kappa, 2025.0, rtol=1e-14)
    assert c.kappa_pow == 45.0


def test_constants_collapse_at_s0():
    c = derive_constants(HSParams(7, 0.0))
    assert c.c_ns == pytest.approx(5.0 / 24.0, rel=1e-15)
    assert c.lambda_ns == pytest.approx(5.0 / 24.0, rel=1e-15)


def test_kappa_pow_identity_both_ways():
    # (n-s)(n-2) versus kappa**(2*(s)-2), over a parameter grid
    for n in range(3, 13):
        for s in (0.25, 0.5, 1.0, 1.5, 1.75):
            p = HSParams(n, s)
            c = derive_constants(p)
            direct = c.kappa ** (c.crit_exp - 2.0)
            np.testing.assert_allclose(direct, c.kappa_pow, rtol=5e-13)
            assert c.kappa_pow == (n - s) * (n - 2)


def test_coupling_constants_differ_for_positive_s():
    for n in range(3, 13):
        for s in (0.1, 0.5, 1.0, 1.9):
            c = derive_constants(HSParams(n, s))
            assert c.c_ns != c.lambda_ns


def test_crit_exp_decreasing_in_s():
    for n in (3, 5, 7, 12):
        svals = np.linspace(0.0, 1.95, 40)
        exps = [HSParams(n, float(s)).crit_exp for s in svals]
        assert all(a > b for a, b in zip(exps, exps[1:]))


def test_yamabe_consistency_exact_rationals():
    expected = {3: Fraction(1, 8), 7: Fraction(5, 24), 10: Fraction(2, 9)}
    for n in range(3, 13):
        rep = yamabe_consistency(n)
        assert rep["c_at_0"] == rep["lambda_at_0"] == rep["yamabe"]
        assert isinstance(rep["yamabe"], Fraction)
        assert rep["yamabe"] == Fraction(n - 2, 4 * (n - 1))
        if n in expected:
            assert rep["yamabe"] == expected[n]


def test_domain_rejections():
    with pytest.raises(DomainError):
        HSParams(2, 1.0)
    with pytest.raises(DomainError):
        HSParams(7, 2.0)
    with pytest.raises(DomainError):
        HSParams(7, -0.1)
    with pytest.raises(DomainError):
        HSParams(7.5, 1.0)
    for n in (math.inf, math.nan):
        with pytest.raises(DomainError, match="dimension must be an integer"):
            HSParams(n, 1.0)
    assert HSParams(np.int64(7), 1.0).n == 7
    with pytest.raises(DomainError):
        yamabe_consistency(2)


def test_kappa_overflow_is_a_numerical_error():
    # (7, 1.99): kappa = 25.05**250 is beyond the float range
    with pytest.raises(NumericalError, match=r"kappa .* n = 7, s = 1.99"):
        HSParams(7, 1.99).kappa
    with pytest.raises(NumericalError, match="kappa"):
        derive_constants(HSParams(30, 1.9))


class Jet(Record):
    h0: float
    lap_h: float
    f0: float = 0.0

    @functools.cached_property
    def total(self):
        return self.h0 + self.lap_h + self.f0


def test_record_binds_by_position_keyword_and_default():
    assert Jet._fields == ("h0", "lap_h", "f0")
    assert vars(Jet(1.0, 2.0)) == {"h0": 1.0, "lap_h": 2.0, "f0": 0.0}
    assert Jet(1.0, f0=3.0, lap_h=2.0) == Jet(1.0, 2.0, 3.0)
    # the fields keep their order whatever the call's, as a report echoes
    assert list(vars(Jet(f0=3.0, lap_h=2.0, h0=1.0))) == ["h0", "lap_h", "f0"]
    assert repr(Jet(1.0, 2.0)) == "Jet(h0=1.0, lap_h=2.0, f0=0.0)"
    # the validation hook runs on the bound fields, however they came
    with pytest.raises(DomainError, match="dimension"):
        HSParams(s=1.0, n=2)


@pytest.mark.parametrize("args,kwargs", [
    ((1.0,), {}), ((), {"lap_h": 2.0}), ((1.0, 2.0, 3.0, 4.0), {}),
    ((1.0, 2.0), {"h0": 1.0}), ((1.0, 2.0), {"f1": 0.0}),
], ids=["missing", "missing-first", "too-many", "repeated", "unknown"])
def test_record_refuses_a_bad_binding(args, kwargs):
    with pytest.raises(TypeError, match=re.escape(
            f"Jet binds each field ('h0', 'lap_h', 'f0') once: got "
            f"{len(args)} by position and {list(kwargs)}")):
        Jet(*args, **kwargs)


def test_record_refuses_assignment_and_still_caches():
    jet = Jet(1.0, 2.0)
    with pytest.raises(AttributeError, match="Jet.h0 cannot be assigned"):
        jet.h0 = 5.0
    with pytest.raises(AttributeError):
        jet.total = 5.0  # before it is cached, the property's name too
    assert (jet.total, jet.h0) == (3.0, 1.0)
    assert vars(jet)["total"] == 3.0


def test_equal_records_share_one_memo_entry():
    from hsbubble.bubble import default_grid
    from hsbubble.geometry import PotentialJet
    from hsbubble.linearized import assemble_mode

    p, q = HSParams(7, 1), HSParams(7, 1.0)
    assert p == q and hash(p) == hash(q) and p != HSParams(7, 1.5)
    # equal fields of another record type are not equal
    assert Jet(1.0, 2.0) != PotentialJet(1.0, 2.0)
    assemble_mode.cache_clear()
    grid = default_grid(q, N=500)
    assert assemble_mode(p, 2, grid) is assemble_mode(q, 2, grid)
    info = assemble_mode.cache_info()
    # the first ell = 2 build also misses the ell = 0 entry it is built from;
    # the second lookup, with the equal record, hits
    assert (info.misses, info.hits) == (2, 1)
