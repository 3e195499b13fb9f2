from fractions import Fraction

from keyval.values import INF

F = Fraction


def test_infinity_absorbs_addition():
    assert INF + F(3, 2) is INF
    assert F(-7) + INF is INF
    assert INF + INF is INF


def test_infinity_dominates_ordering():
    # inf is above every finite value and equals only itself, in both operand orders
    for v in (F(-3, 2), 0, 5, 10**40):
        assert (v < INF, v <= INF, v > INF, v >= INF, v == INF, v != INF) == (
            True, True, False, False, False, True), v
        assert (INF < v, INF <= v, INF > v, INF >= v, INF == v, INF != v) == (
            False, False, True, True, False, True), v
    assert (INF < INF, INF <= INF, INF > INF, INF >= INF, INF == INF, INF != INF) == (
        False, True, False, True, True, False)


def test_format_parse_round_trip():
    assert [str(v) for v in (F(3, 2), F(-5), F(0), INF)] == ["3/2", "-5", "0", "inf"]
    assert repr(INF) == "inf"


def test_infinity_is_hashable():
    assert {INF: "top"}[INF] == "top"
