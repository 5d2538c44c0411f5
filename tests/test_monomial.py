import ast
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumerator
import sdof
from sdof.channel import InterferenceModel, sample_channel
from enumerator import box_image
from sdof.errors import CapacityError, ParameterError
from sdof.interference_sets import build_base_dimension_sets
from sdof.monomial import Monomial

exponent_maps = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), st.integers(-4, 4), max_size=4)


def test_canonical_form_drops_zero_exponents():
    m = Monomial.from_dict({"x": 1, "y": 0})
    assert m == Monomial.gen("x")
    assert Monomial.gen("x") * Monomial.gen("x", -1) == Monomial.one()


def test_product_and_division():
    m = Monomial.from_dict({"x": 2, "y": -1})
    n = Monomial.from_dict({"y": 1, "z": 3})
    assert (m * n) == Monomial.from_dict({"x": 2, "z": 3})
    assert (m / n) == Monomial.from_dict({"x": 2, "y": -2, "z": -3})
    assert m ** 3 == Monomial.from_dict({"x": 6, "y": -3})
    assert m ** 0 == Monomial.one()


@pytest.mark.parametrize("bad", [0.5, 1.7, float("nan"), "1"])
def test_non_integral_exponents_are_refused(bad):
    # truncating would make x^0.5 print as x^0 and differ from one
    with pytest.raises(ParameterError, match="exponents must be integers"):
        Monomial.gen("x", bad)
    with pytest.raises(ParameterError, match="exponents must be integers"):
        Monomial.from_dict({"x": 1, "y": bad})
    with pytest.raises(ParameterError, match="exponents must be integers"):
        Monomial.gen("x") ** bad


def test_numpy_integer_exponents_are_accepted():
    two = np.int64(2)
    assert Monomial.gen("x", two) == Monomial.from_dict({"x": two}) == Monomial.gen("x") ** two
    assert str(Monomial.gen("x", two)) == "x^2"
    assert type(Monomial.gen("x", two).exponents[0][1]) is int


def test_the_constructor_canonicalizes_its_pairs():
    # unsorted pairs, a repeated name and a zero exponent all reach the one
    # canonical form that equality and hashing compare
    m = Monomial((("y", 1), ("x", 1), ("z", 2), ("z", -2), ("x", 1)))
    assert m == Monomial.from_dict({"x": 2, "y": 1})
    assert hash(m) == hash(Monomial.from_dict({"x": 2, "y": 1}))
    assert m.exponents == (("x", 2), ("y", 1))
    assert str(Monomial((("y", 1), ("x", 1)))) == "x*y"
    assert Monomial((("x", np.int64(3)),)).exponents == (("x", 3),)
    assert type(Monomial((("x", np.int64(3)),)).exponents[0][1]) is int


@pytest.mark.parametrize("pairs, match", [
    ((("x", 0.5),), "exponents must be integers"),
    ((("x", 1), ("y", 1.0)), "exponents must be integers"),
])
def test_the_constructor_refuses_what_it_cannot_canonicalize(pairs, match):
    with pytest.raises(ParameterError, match=match):
        Monomial(pairs)


def test_products_powers_and_inverses_skip_the_constructor_check(monkeypatch):
    x, y = Monomial.gen("x", 2), Monomial.from_dict({"y": -1, "z": 3})
    checked = []
    monkeypatch.setattr(Monomial, "__post_init__", lambda self: checked.append(self))
    results = [x * y, x / y, y.inverse(), y ** 3, y ** 0, Monomial.one()]
    assert checked == []
    assert results == [Monomial.from_dict(d) for d in (
        {"x": 2, "y": -1, "z": 3}, {"x": 2, "y": 1, "z": -3}, {"y": 1, "z": -3},
        {"y": -3, "z": 9}, {}, {})]


def test_evaluate():
    m = Monomial.from_dict({"x": 2, "y": -1})
    assert m.evaluate({"x": 3.0, "y": 2.0}) == 4.5


def test_str():
    assert str(Monomial.one()) == "1"
    assert str(Monomial.from_dict({"x": 1, "y": -2})) == "x*y^-2"


@given(a=exponent_maps, b=exponent_maps)
@settings(max_examples=200, deadline=None)
def test_product_adds_exponents_componentwise(a, b):
    prod = Monomial.from_dict(a) * Monomial.from_dict(b)
    names = set(a) | set(b)
    expected = {n: a.get(n, 0) + b.get(n, 0) for n in names}
    assert prod == Monomial.from_dict(expected)


@given(a=exponent_maps, b=exponent_maps)
@settings(max_examples=100, deadline=None)
def test_equality_is_symmetric_and_hash_consistent(a, b):
    ma, mb = Monomial.from_dict(a), Monomial.from_dict(b)
    assert (ma == mb) == (mb == ma)
    if ma == mb:
        assert hash(ma) == hash(mb)


def test_distinct_monomials_separate_numerically():
    # distinct canonical exponent vectors evaluate to distinct reals for
    # essentially every gain draw; collisions would break the alignment tests
    sets = build_base_dimension_sets(3, 1)
    monomials = [next(iter(enumerator.members(s))) for s in sets]
    monomials += [Monomial.gen("h_11") * m for m in monomials]
    monomials += [Monomial.gen("h_21") * m for m in monomials[:2]]
    pairs = list(itertools.combinations(monomials, 2))
    for seed in range(1000):
        r = sample_channel(InterferenceModel(3), fixed=True, seed=seed)
        values = {f"h_{tx}{rx}": r.h(tx, rx) for tx in (1, 2, 3) for rx in (1, 2, 3)}
        values.update({f"c_{i}": 0.25 * i + 0.1 for i in range(1, 5)})
        for p, q in pairs:
            vp, vq = p.evaluate(values), q.evaluate(values)
            assert abs(vp - vq) > 1e-12 * max(abs(vp), abs(vq))

# the enumerator's box image, the oracle of the dimension sets (its code is
# in tests/enumerator.py, not in the package)

@pytest.mark.parametrize("gamma, top", [(1, 3), (4, 3), (9, 2)])
def test_unit_box_image_is_product_order_and_byte_sorted(gamma, top):
    # the enumerator lists a set's members in this order
    rows = box_image(np.eye(gamma, dtype=np.int8), top)
    assert rows.dtype == np.int8
    assert [tuple(r) for r in rows.tolist()] \
        == list(itertools.product(range(1, top + 1), repeat=gamma))
    assert np.array_equal(enumerator.distinct_rows(rows), rows)


def test_box_image_refuses_rows_beyond_int8():
    # every row and its shift by one must fit: 126 + 1 does, 127 + 1 does not
    assert box_image(np.array([[1]], np.int8), 126)[-1].tolist() == [126]
    with pytest.raises(CapacityError):
        box_image(np.array([[1]], np.int8), 127)
    # a generator's reach sums over the pattern's rows: 2 * 63 + 1 fits
    assert box_image(np.array([[1], [1]], np.int8), 63)[-1].tolist() == [126]
    with pytest.raises(CapacityError):
        box_image(np.array([[1], [1]], np.int8), 64)


def test_box_image_refusal_survives_optimized_mode():
    # python -O strips assert statements, so the guard must not be one
    code = ("import numpy as np\n"
            "from enumerator import box_image\n"
            "from sdof.errors import CapacityError\n"
            "try:\n"
            "    box_image(np.array([[1]], np.int8), 200)\n"
            "except CapacityError:\n"
            "    print('refused')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdof.__file__)))
    tests = os.path.dirname(os.path.abspath(enumerator.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "refused\n"


def test_the_package_has_no_assert_statements():
    # python -O strips them, so a check written as one is no check there
    package = pathlib.Path(sdof.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# the exact layer: the gain monomials and the fixed-gain set algebra, which
# decide alignment in Python ints and must not depend on a float library
EXACT_MODULES = {"errors", "monomial", "interference_sets"}
# the fading builders of precoding read pam's stream tables, so pam must not
# import precoding, or the layers built on it
NOT_IMPORTED_BY = {"pam": {"precoding", "analysis", "cli"}}


def test_the_package_imports_only_the_standard_library_and_numpy():
    # a second BLAS (scipy's, say) brings its own thread pool, which
    # oversubscribes the cores the numpy BLAS already uses
    package = pathlib.Path(sdof.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        exact = path.stem in EXACT_MODULES
        allowed = sys.stdlib_module_names | (set() if exact else {"numpy"})
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):
                # from .x import y, or from . import x: an exact module's must
                # stay inside the exact layer, and pam's below precoding
                modules = [node.module] if node.module else [a.name for a in node.names]
                found += [f"{path.name}:{node.lineno} .{module}" for module in modules
                          if (exact and module not in EXACT_MODULES)
                          or module in NOT_IMPORTED_BY.get(path.stem, ())]
                continue
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []
