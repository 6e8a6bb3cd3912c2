"""Property tests for the one model-spec grammar.

``parse_exponent`` reads ``power:beta=B``, ``weibull:k=K`` and ``exp``;
``parse_model`` reads those plus ``tabulated:path=FILE``, each with an
optional ``/sin`` suffix.  Valid specs must build the named kind with the
written parameter, and every malformed spec must raise InvalidModel, never
a bare ValueError, KeyError or IndexError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stretchwalk.density import TabulatedExponent, parse_exponent, parse_model
from stretchwalk.errors import InvalidModel

# Derandomised and without an example database, so the suite stays
# deterministic and writes no files.
_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_KINDS = ("power", "weibull", "exp", "tabulated")

# (kind, parameter, spec) for every exponent kind, parameters well inside
# each kind's domain (beta >= 1, k > 2).
_exponent_specs = st.one_of(
    st.floats(1.0, 8.0).map(lambda b: ("power", b, f"power:beta={b!r}")),
    st.floats(2.05, 8.0).map(lambda k: ("weibull", k, f"weibull:k={k!r}")),
    st.just(("exp", None, "exp")),
)


def _parameter(exponent):
    return {"power": getattr(exponent, "beta", None),
            "weibull": getattr(exponent, "k", None)}.get(exponent.kind)


def _both_reject(spec):
    for parse in (parse_exponent, parse_model):
        with pytest.raises(InvalidModel):
            parse(spec)


@_SETTINGS
@given(_exponent_specs)
def test_valid_exponent_spec_builds_named_kind(case):
    kind, param, spec = case
    exponent = parse_exponent(spec)
    assert exponent.kind == kind
    assert _parameter(exponent) == param


@settings(_SETTINGS, max_examples=30)
@given(_exponent_specs, st.booleans())
def test_valid_model_spec_builds_named_kind(case, sin):
    kind, param, spec = case
    model = parse_model(spec + "/sin" if sin else spec)
    assert model.exponent.kind == kind
    assert _parameter(model.exponent) == param
    assert model.is_pure is not sin


@_SETTINGS
@given(_exponent_specs)
def test_exponent_spec_takes_no_sin(case):
    with pytest.raises(InvalidModel):
        parse_exponent(case[2] + "/sin")


# -- mutation classes ----------------------------------------------------------

_keys = st.sampled_from(("beta", "k", "path", "lambda", "perturbation", "x"))
_identifiers = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)


@_SETTINGS
@given(st.sampled_from(_KINDS), _keys, st.sampled_from(("3", "2.5", "steps.csv")))
def test_wrong_key_for_kind(kind, key, value):
    own = {"power": "beta", "weibull": "k", "exp": None, "tabulated": "path"}[kind]
    if key == own:
        key = "x"
    _both_reject(f"{kind}:{key}={value}")


@_SETTINGS
@given(_identifiers.filter(lambda k: k not in _KINDS), st.booleans())
def test_unknown_kind(kind, with_key):
    _both_reject(f"{kind}:beta=3" if with_key else kind)


@_SETTINGS
@given(_exponent_specs, _keys, st.sampled_from(("3", "2.5")))
def test_extra_or_duplicated_key(case, key, value):
    _, _, spec = case
    sep = "," if ":" in spec else ":"
    _both_reject(f"{spec}{sep}{key}={value}")


@pytest.mark.parametrize("spec", ["power:beta=", "weibull:k=", "tabulated:path=",
                                  "power:=3", "power:", "exp:", "power:beta=3,",
                                  "power", "weibull", "tabulated", ""])
def test_empty_or_missing_value(spec):
    _both_reject(spec)


@_SETTINGS
@given(st.sampled_from(("power:beta", "weibull:k")),
       st.sampled_from(("inf", "-inf", "+inf", "nan", "NaN", "Infinity", "1e999")),
       st.booleans())
def test_nonfinite_parameter(head, value, sin):
    spec = f"{head}={value}"
    _both_reject(spec + "/sin" if sin else spec)


@_SETTINGS
@given(_exponent_specs,
       st.one_of(st.text(" x;)=:/,!", min_size=1, max_size=6),
                 st.sampled_from(("/sin/sin", "/sinx", "/SIN", " /sin", "/sin "))))
def test_trailing_junk(case, junk):
    # No junk from this alphabet extends a number or spells the /sin suffix.
    _both_reject(case[2] + junk)


@pytest.mark.parametrize("spec", [None, 3, b"exp", ["exp"]])
def test_non_string_spec(spec):
    _both_reject(spec)


# -- tabulated specs -------------------------------------------------------------


@pytest.fixture(scope="module")
def tabulated_files(tmp_path_factory):
    grid = np.linspace(1e-3, 14.0, 3000)
    root = tmp_path_factory.mktemp("specs")
    plain = root / "plain.csv"
    with_q = root / "with_q.csv"
    np.savetxt(plain, np.column_stack([grid, grid**2]), delimiter=",")
    np.savetxt(with_q, np.column_stack([grid, grid**2, 0.1 * np.sin(grid)]), delimiter=",")
    return plain, with_q


def test_tabulated_spec(tabulated_files):
    plain, with_q = tabulated_files
    model = parse_model(f"tabulated:path={plain}")
    assert isinstance(model.exponent, TabulatedExponent)
    assert model.is_pure
    assert not parse_model(f"tabulated:path={plain}/sin").is_pure
    # A q column is part of the tabulated model itself.
    assert parse_model(f"tabulated:path={with_q}").perturbation.name == "tabulated"


def test_tabulated_q_kinks_are_the_grid_ends(tabulated_files):
    # q is zero off its grid, so it may jump at either end.
    assert parse_model(f"tabulated:path={tabulated_files[1]}").kinks == (1e-3, 14.0)


def test_tabulated_spec_rejections(tabulated_files, tmp_path):
    plain, with_q = tabulated_files
    junk = tmp_path / "junk.csv"
    junk.write_text("x,g\nnot,numbers\n")
    for spec in (f"tabulated:path={with_q}/sin",       # two perturbations
                 f"tabulated:path={tmp_path / 'missing.csv'}",
                 f"tabulated:path={junk}",
                 f"tabulated:path={plain},path={plain}"):
        with pytest.raises(InvalidModel):
            parse_model(spec)
    with pytest.raises(InvalidModel):
        parse_exponent(f"tabulated:path={plain}")
