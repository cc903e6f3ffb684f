"""Integer coefficients end to end: a ``Fraction`` is built only where a
division leaves a non-integral value.

Integer inputs (the Wronskian basis, the D_T, an integer expression, the
``basis`` and ``appendixA`` suites) must not build one ``Fraction``.  The
count wraps ``Fraction.__new__``, which every ``Fraction`` goes through on
Python 3.11, results of arithmetic included; on 3.12 and later arithmetic
results are built by ``Fraction._from_coprime_ints``, which is wrapped too.
"""

from fractions import Fraction

import pytest

from diffhom import hwv, verify, wronskian
from diffhom.dpoly import is_diff_homogeneous, parse, to_text
from diffhom.tableaux import Partition


@pytest.fixture
def fractions_built(monkeypatch):
    """A one-entry list counting the Fractions built while the test runs."""
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in Fraction.__dict__:
        from_coprime = Fraction._from_coprime_ints

        def counting_from_coprime(cls, *args):
            count[0] += 1
            return from_coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_coprime))
    return count


def test_the_counter_sees_construction_and_arithmetic(fractions_built):
    a = Fraction(1, 2)
    assert fractions_built[0] == 1
    a * 3 + a
    assert fractions_built[0] >= 3


def test_integer_inputs_build_no_fraction(fractions_built):
    # the cached builders are called through __wrapped__, the suites after
    # their caches are emptied, so that the work is done under the count
    basis = wronskian.enumerate_canonical_basis.__wrapped__(2, 4)
    assert len(basis) == 81
    assert all(type(c) is int for _, p in basis for c in p.terms.values())
    d_t = hwv.hwv_basis.__wrapped__(Partition((3, 2)), 2, 2)
    assert d_t and all(type(c) is int for _, p in d_t for c in p.terms.values())
    for _, p in basis[::7]:
        text = to_text(p)
        assert is_diff_homogeneous(parse(text, 2)) == (True, 4)
    assert fractions_built[0] == 0
    for cached in (wronskian.enumerate_canonical_basis, wronskian._rewritings, hwv.hwv_basis):
        cached.cache_clear()
    for suite in ("basis", "appendixA"):
        report = verify.run_suite(suite, jobs=1)
        assert all(r.passed for r in report.results)
    assert fractions_built[0] == 0


def test_parse_gives_an_int_for_every_integral_written_coefficient():
    p = parse("4/2*x0[1]*x1 - 6*x0*x1[1] + 3/2*x0^2 - 0/5*x1^2 + 7", 1)
    assert p.terms == {((0, 1, 1), (1, 0, 1)): 2, ((0, 0, 1), (1, 1, 1)): -6,
                       ((0, 0, 2),): Fraction(3, 2), (): 7}
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction, int]
    assert is_diff_homogeneous(parse("-12/4*x0*x1[1] + 9/3*x0[1]*x1", 1)) == (True, 2)
