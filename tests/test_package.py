"""The package's public names."""

import qdigits


def test_exports_resolve_once():
    assert len(qdigits.__all__) == len(set(qdigits.__all__))
    for name in qdigits.__all__:
        assert hasattr(qdigits, name), name


def test_removed_names_stay_gone():
    assert "Regime" not in qdigits.__all__
    assert not hasattr(qdigits, "Regime")
    assert not hasattr(qdigits.QParam, "from_a")
