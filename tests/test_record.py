"""The package's ten record classes: reprs, equality, hashing, freezing
and cached properties.  Every record is frozen, and hashable unless a field
holds a dict or a list, as VerificationReport's do.  The reprs write every
Fraction, alone or in a tuple, in hex (as OdometerState its value), and
each evals back to an equal record."""

import sys
from fractions import Fraction as F

import pytest

from qdigits.digitsum import QParam
from qdigits.limiting_curve import BridgeLevel, CurveSamples, LimitingBridge, theorem1_experiment
from qdigits.odometer import OdometerState, StabilizingLevel, find_stabilizing_levels
from qdigits.report import IdentityCheck, VerificationReport
from qdigits.takagi import AffineMap, DeRhamSystem

def check(name="id"):
    return IdentityCheck(name, "a = b", "n <= 4", 4, False, "n=3: 1 != 2")


def level(sup=F(1, 8)):
    return BridgeLevel(4, 6, 2, F(1, 64), F(9, 4), 2, sup)


def bridge(seed=None):
    return LimitingBridge("zero orbit", seed, F(3, 4), 8, (level(),), ("n",))


# (make, other, text): make() builds a fresh instance whose repr is text
# (the dataclass repr with its Fractions in hex), other() an instance of
# the same class that differs in one field
RECORDS = [
    (
        lambda: QParam(F(3, 4)),
        lambda: QParam(F(-3, 4)),
        "QParam(q=Fraction(0x3, 0x4))",
    ),
    (
        check,
        lambda: check("other"),
        "IdentityCheck(name='id', statement='a = b', scope='n <= 4', checked=4,"
        " passed=False, first_counterexample='n=3: 1 != 2')",
    ),
    (
        lambda: VerificationReport("title", {"q": "3/4"}, [check()], ["a note"]),
        lambda: VerificationReport("title", {"q": "3/4"}, [check()]),
        "VerificationReport(title='title', params={'q': '3/4'}, checks=[IdentityCheck("
        "name='id', statement='a = b', scope='n <= 4', checked=4, passed=False,"
        " first_counterexample='n=3: 1 != 2')], notes=['a note'])",
    ),
    (
        lambda: OdometerState(5, 8, origin="zero"),
        lambda: OdometerState(5, 8),
        "OdometerState(value=0x5, length=8, origin='zero', seed=None)",
    ),
    (
        lambda: StabilizingLevel(4, 0, 4, F(1, 32)),
        lambda: StabilizingLevel(5, 1, 4, F(1, 32)),
        "StabilizingLevel(position=4, prefix_end=0, run_length=4, ratio=Fraction(0x1, 0x20))",
    ),
    (
        lambda: CurveSamples((F(0), F(1, 2), F(0))),
        lambda: CurveSamples((F(0), F(1, 3), F(0))),
        "CurveSamples(values=(Fraction(0x0, 0x1), Fraction(0x1, 0x2), Fraction(0x0, 0x1)))",
    ),
    (
        level,
        lambda: level(sup=F(1, 9)),
        "BridgeLevel(run_length=4, position=6, prefix_end=2, ratio=Fraction(0x1, 0x40),"
        " normalizer=Fraction(0x9, 0x4), grid_exponent=2, sup_distance=Fraction(0x1, 0x8))",
    ),
    (
        bridge,
        lambda: bridge(seed=1),
        "LimitingBridge(description='zero orbit', seed=None, q=Fraction(0x3, 0x4),"
        " register_length=8, levels=(BridgeLevel(run_length=4, position=6, prefix_end=2,"
        " ratio=Fraction(0x1, 0x40), normalizer=Fraction(0x9, 0x4), grid_exponent=2,"
        " sup_distance=Fraction(0x1, 0x8)),), notes=('n',))",
    ),
    (
        lambda: AffineMap(F(1, 2), F(1, 3)),
        lambda: AffineMap(F(1, 2)),
        "AffineMap(slope=Fraction(0x1, 0x2), intercept=Fraction(0x1, 0x3))",
    ),
    (
        lambda: DeRhamSystem.takagi(F(1, 2)),
        lambda: DeRhamSystem.takagi(F(1, 3)),
        "DeRhamSystem(a0=Fraction(0x1, 0x2), a1=Fraction(0x1, 0x2),"
        " g0=AffineMap(slope=Fraction(0x1, 0x2), intercept=Fraction(0x0, 0x1)),"
        " g1=AffineMap(slope=Fraction(-0x1, 0x2), intercept=Fraction(0x1, 0x2)))",
    ),
]
IDS = [make().__class__.__name__ for make, *_ in RECORDS]


@pytest.mark.parametrize("make, other, text", RECORDS, ids=IDS)
def test_repr(make, other, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, other, text", RECORDS, ids=IDS)
def test_equality_by_value_within_one_class(make, other, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other() and not a == other()
    for make_else, *_ in RECORDS:
        if make_else is not make:
            stranger = make_else()
            assert a != stranger and stranger != a
            assert a.__eq__(stranger) is NotImplemented


@pytest.mark.parametrize("make, other, text", RECORDS, ids=IDS)
def test_hashing(make, other, text):
    if make().__class__ is VerificationReport:
        # its fields hold a dict and lists
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert len({make(), make(), other()}) == 2


@pytest.mark.parametrize("make, other, text", RECORDS, ids=IDS)
def test_assignment(make, other, text):
    record = make()
    name = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


def test_identity_checks_in_a_set():
    # the same scan in two reports gives equal checks, which a set merges
    first, second = VerificationReport("a"), VerificationReport("b")
    for rep in (first, second):
        rep.scan("id", "n = n", "n < 3", [(f"n={n}", n, n) for n in range(3)])
    second.add("other", "s", "sc", 1, True)
    assert len(set(first.checks) | set(second.checks)) == 2


def test_report_fields_are_fixed_but_its_containers_grow():
    rep = VerificationReport("title")
    with pytest.raises(AttributeError):
        rep.title = "other"
    with pytest.raises(AttributeError):
        rep.checks = []
    rep.add("a", "s", "sc", 1, True)
    rep.scan("b", "s", "sc", [("n=1", 1, 1), ("n=2", 2, 3)])
    rep.notes.append("a note")
    assert [(c.name, c.checked, c.passed) for c in rep.checks] == [("a", 1, True), ("b", 2, False)]
    assert rep.checks[1].first_counterexample == "n=2: 2 != 3"
    assert rep.notes == ["a note"] and not rep.passed


def test_reports_share_no_container():
    first, second = VerificationReport("a"), VerificationReport("a")
    assert first == second
    for attr in ("params", "checks", "notes"):
        assert getattr(first, attr) is not getattr(second, attr)
    params, checks, notes = {"q": "3/4"}, [check()], ["n"]
    given = VerificationReport("b", params, checks, notes)
    given.add("a", "s", "sc", 1, True)
    given.notes.append("m")
    assert (params, checks, notes) == ({"q": "3/4"}, [check()], ["n"])


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


# Python's default limit on int <-> str conversion, in decimal digits
DEFAULT_INT_DIGITS = 4300


@pytest.fixture
def default_int_digits():
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    previous = get_limit()
    sys.set_int_max_str_digits(DEFAULT_INT_DIGITS)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


NAMESPACE = {
    "Fraction": F,
    "AffineMap": AffineMap,
    "BridgeLevel": BridgeLevel,
    "CurveSamples": CurveSamples,
    "DeRhamSystem": DeRhamSystem,
    "IdentityCheck": IdentityCheck,
    "LimitingBridge": LimitingBridge,
    "OdometerState": OdometerState,
    "QParam": QParam,
    "StabilizingLevel": StabilizingLevel,
    "VerificationReport": VerificationReport,
}


def past_the_limit(x):
    """Whether a term of the Fraction x has more than DEFAULT_INT_DIGITS digits."""
    return max(abs(x.numerator), x.denominator) >= 10**DEFAULT_INT_DIGITS


@pytest.mark.parametrize("q", [F(2, 3), F(-2, 3), F(9, 10)])
def test_bridge_reprs_past_the_digit_limit(default_int_digits, q):
    # the default experiment's deepest level has a normalizer (2q)^(n-1)
    # of more than 4300 digits: n = 8038 at q = 9/10
    bridge = theorem1_experiment(1, QParam(q), [4, 8, 12])
    assert past_the_limit(bridge.levels[-1].normalizer)
    for record in (*bridge.levels, bridge):
        assert eval(repr(record), NAMESPACE) == record


def test_stabilizing_level_repr_past_the_digit_limit(default_int_digits):
    state = OdometerState.random_state(190, 1 << 17)
    (lvl,) = find_stabilizing_levels(state, 16)
    assert lvl.position == 130026 and past_the_limit(lvl.ratio)
    assert eval(repr(lvl), NAMESPACE) == lvl


def test_qparam_repr_past_the_digit_limit(default_int_digits):
    # q's terms have 4294 and 5419 digits
    q = F(3**9000 + 1, 3 * 4**9000)
    assert past_the_limit(q)
    text = repr(QParam(q))
    assert text == f"QParam(q=Fraction({q.numerator:#x}, {q.denominator:#x}))"
    assert eval(text, NAMESPACE) == QParam(q)


# a weight whose terms have 9000 digits, more than twice the default limit
WIDE = QParam(F(2 * 3**18862 + 1, 3**18863))


def wide_records():
    """One record of each class, each Fraction field at WIDE's terms or
    wider; the two report records hold only strings and ints."""
    q, a = WIDE.q, WIDE.a
    lvl = BridgeLevel(4, 43, 39, q, a, 8, q * q)
    return [
        WIDE,
        check(),
        VerificationReport("wide", {"q": "wide"}, [check()], ["a note"]),
        OdometerState(WIDE.q.denominator, WIDE.q.denominator.bit_length()),
        StabilizingLevel(4, 0, 4, q),
        CurveSamples((F(0), q, a)),
        lvl,
        LimitingBridge("wide", None, q, 64, (lvl,), ("n",)),
        AffineMap(q, a),
        DeRhamSystem.takagi(a),
    ]


def test_every_record_repr_at_a_wide_weight(default_int_digits):
    records = wide_records()
    assert [type(r) for r in records] == [type(make()) for make, *_ in RECORDS]
    assert past_the_limit(WIDE.q)
    # and OdometerState's int value, which its repr writes in hex
    assert records[3].value >= 10**DEFAULT_INT_DIGITS
    for record in records:
        assert eval(repr(record), NAMESPACE) == record


@pytest.mark.parametrize("p", [QParam(F(3, 4)), WIDE], ids=["3/4", "wide"])
def test_qparam_repr_evals_back(default_int_digits, p):
    back = eval(repr(p), NAMESPACE)
    assert back == p and hash(back) == hash(p)
    assert (back.a, back.is_curve_regime) == (p.a, p.is_curve_regime)


def test_cached_properties_cache():
    system = DeRhamSystem.takagi(F(1, 2))
    assert system._integer_form is system._integer_form
    assert system._seam_residual is system._seam_residual == 0
