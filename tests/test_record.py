"""The package's eleven record classes: reprs, equality, hashing, freezing
and cached properties, as they were when the records were dataclasses."""

from fractions import Fraction as F

import pytest

import qdigits.limiting_curve as limiting_curve
from qdigits.digitsum import QParam
from qdigits.limiting_curve import BridgeLevel, CurveSamples, LimitingBridge
from qdigits.odometer import OdometerState, StabilizingLevel
from qdigits.report import IdentityCheck, VerificationReport
from qdigits.takagi import AffineMap, DeRhamSystem
from qdigits.trollope_delange import ScaleDecomposition

P = QParam(F(3, 4))


def check(name="id"):
    return IdentityCheck(name, "a = b", "n <= 4", 4, False, "n=3: 1 != 2")


def level(sup=F(1, 8), alpha=(0, 1, 1, 0, 0)):
    return BridgeLevel(4, 6, 2, F(1, 64), F(9, 4), 2, sup, alpha, None, 0, F(1, 3))


def bridge(seed=None):
    return LimitingBridge("zero orbit", seed, F(3, 4), 8, (level(),), ("n",))


# (make, other, frozen, text): make() builds a fresh instance whose repr
# is text (the dataclass repr, or OdometerState's own), other() an
# instance of the same class that differs in one compared field
RECORDS = [
    (
        lambda: QParam(F(3, 4)),
        lambda: QParam(F(-3, 4)),
        True,
        "QParam(q=Fraction(3, 4), a=Fraction(2, 3), is_curve_regime=True)",
    ),
    (
        check,
        lambda: check("other"),
        False,
        "IdentityCheck(name='id', statement='a = b', scope='n <= 4', checked=4,"
        " passed=False, first_counterexample='n=3: 1 != 2')",
    ),
    (
        lambda: VerificationReport("title", {"q": "3/4"}, [check()], ["a note"]),
        lambda: VerificationReport("title", {"q": "3/4"}, [check()]),
        False,
        "VerificationReport(title='title', params={'q': '3/4'}, checks=[IdentityCheck("
        "name='id', statement='a = b', scope='n <= 4', checked=4, passed=False,"
        " first_counterexample='n=3: 1 != 2')], notes=['a note'])",
    ),
    (
        lambda: OdometerState(5, 8, origin="zero"),
        lambda: OdometerState(5, 8),
        True,
        "OdometerState(value=0x5, length=8, origin='zero', seed=None)",
    ),
    (
        lambda: StabilizingLevel(4, 0, 4, F(1, 32)),
        lambda: StabilizingLevel(5, 1, 4, F(1, 32)),
        True,
        "StabilizingLevel(position=4, prefix_end=0, run_length=4, ratio=Fraction(1, 32))",
    ),
    (
        lambda: ScaleDecomposition.of(5, P),
        lambda: ScaleDecomposition.of(6, P),
        True,
        "ScaleDecomposition(n=5, k=2, p=4, r=Fraction(9, 16), x=Fraction(1, 4))",
    ),
    (
        lambda: CurveSamples((F(0), F(1, 2), F(0))),
        lambda: CurveSamples((F(0), F(1, 3), F(0))),
        True,
        "CurveSamples(values=(Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)))",
    ),
    (
        level,
        lambda: level(sup=F(1, 9)),
        True,
        "BridgeLevel(run_length=4, position=6, prefix_end=2, ratio=Fraction(1, 64),"
        " normalizer=Fraction(9, 4), grid_exponent=2, sup_distance=Fraction(1, 8))",
    ),
    (
        bridge,
        lambda: bridge(seed=1),
        True,
        "LimitingBridge(description='zero orbit', seed=None, q=Fraction(3, 4),"
        " register_length=8, levels=(BridgeLevel(run_length=4, position=6, prefix_end=2,"
        " ratio=Fraction(1, 64), normalizer=Fraction(9, 4), grid_exponent=2,"
        " sup_distance=Fraction(1, 8)),), notes=('n',))",
    ),
    (
        lambda: AffineMap(F(1, 2), F(1, 3)),
        lambda: AffineMap(F(1, 2)),
        True,
        "AffineMap(slope=Fraction(1, 2), intercept=Fraction(1, 3))",
    ),
    (
        lambda: DeRhamSystem.takagi(F(1, 2)),
        lambda: DeRhamSystem.takagi(F(1, 3)),
        True,
        "DeRhamSystem(a0=Fraction(1, 2), a1=Fraction(1, 2), g0=AffineMap(slope=Fraction(1, 2),"
        " intercept=Fraction(0, 1)), g1=AffineMap(slope=Fraction(-1, 2), intercept=Fraction(1, 2)))",
    ),
]
IDS = [make().__class__.__name__ for make, *_ in RECORDS]


@pytest.mark.parametrize("make, other, frozen, text", RECORDS, ids=IDS)
def test_repr(make, other, frozen, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, other, frozen, text", RECORDS, ids=IDS)
def test_equality_by_value_within_one_class(make, other, frozen, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other() and not a == other()
    for make_else, *_ in RECORDS:
        if make_else is not make:
            stranger = make_else()
            assert a != stranger and stranger != a
            assert a.__eq__(stranger) is NotImplemented


@pytest.mark.parametrize("make, other, frozen, text", RECORDS, ids=IDS)
def test_hashing(make, other, frozen, text):
    if frozen:
        assert hash(make()) == hash(make())
        assert len({make(), make(), other()}) == 2
    else:
        with pytest.raises(TypeError):
            hash(make())


@pytest.mark.parametrize("make, other, frozen, text", RECORDS, ids=IDS)
def test_assignment(make, other, frozen, text):
    record = make()
    name = text[text.index("(") + 1 : text.index("=")]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == text
    else:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"


def test_constructor_keywords_defaults_and_factories():
    assert OdometerState(value=5, length=8, origin="zero") == OdometerState(5, 8, "zero")
    assert OdometerState(5, 8).origin == "explicit"
    assert IdentityCheck("id", "s", "sc", 1, True).first_counterexample is None
    first, second = VerificationReport("a"), VerificationReport("b")
    first.notes.append("n")
    assert (first.params, first.checks, second.notes) == ({}, [], [])
    for call in (
        lambda: OdometerState(5),
        lambda: OdometerState(5, 8, "zero", None, "extra"),
        lambda: OdometerState(5, 8, value=5),
        lambda: OdometerState(5, 8, colour="red"),
        lambda: QParam(F(3, 4), F(2, 3)),
    ):
        with pytest.raises(TypeError):
            call()


def test_post_init_runs():
    assert QParam(1).q == F(1) and isinstance(QParam(1).q, F)
    with pytest.raises(ValueError):
        QParam(0)
    with pytest.raises(ValueError):
        OdometerState(256, 8)


def test_identity_check_to_dict_in_field_order():
    assert check().to_dict() == {
        "name": "id",
        "statement": "a = b",
        "scope": "n <= 4",
        "checked": 4,
        "passed": False,
        "first_counterexample": "n=3: 1 != 2",
    }
    assert list(check().to_dict()) == list(vars(check()))


def test_bridge_level_ignores_its_split_form():
    # alpha, beta, low and factor are neither shown nor compared
    assert level() == level(alpha=(0, 2, 2, 0, 0))
    assert hash(level()) == hash(level(alpha=(0, 2, 2, 0, 0)))


def test_bridge_level_devs_built_once(monkeypatch):
    calls = []
    join = limiting_curve._join

    def counting_join(*args):
        calls.append(args)
        return join(*args)

    monkeypatch.setattr(limiting_curve, "_join", counting_join)
    lvl = level()
    devs = lvl.devs
    assert devs == (0, 16, 16, 0, 0)
    assert lvl.devs is devs and lvl.curve is lvl.curve
    assert len(calls) == 1
    assert lvl.curve.values == (0, F(16, 3), F(16, 3), 0, 0)


def test_cached_properties_cache():
    samples = CurveSamples((F(0), F(1, 2), F(0)))
    assert samples.grid is samples.grid == (0, F(1, 2), 1)
    system = DeRhamSystem.takagi(F(1, 2))
    assert system._integer_form is system._integer_form
    assert system._seam_residual is system._seam_residual == 0
