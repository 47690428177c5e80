"""The reference oracle reproduces the paper and agrees with the engine."""

from __future__ import annotations

import pytest

from eqbench import inputs
from eqbench.oracle import Oracle, equivalent_free, isomorphic, same_up_to_isomorphism
from repro import Session, parse_dependencies, parse_query


def _q(name: str) -> str:
    return f"{name}(X) :- {inputs.EX41_BODIES[name]}"


@pytest.fixture(scope="module")
def oracle():
    return Oracle({"ex41": inputs.ex41_family()})


@pytest.mark.parametrize(
    "semantics, expected",
    [
        ("set", {"Q1": True, "Q2": True, "Q3": True}),
        ("bag-set", {"Q1": False, "Q2": True, "Q3": True}),
        ("bag", {"Q1": False, "Q2": False, "Q3": True}),
    ],
)
def test_example_4_1_verdicts(oracle, semantics, expected):
    got = {name: oracle.verdict("ex41", _q(name), _q("Q4"), semantics) for name in expected}
    assert got == expected


def test_isomorphism_is_a_renaming_of_bags():
    q = parse_query("Q(X) :- p(X,Y), p(X,Y), r(Y)")
    assert isomorphic(q, parse_query("Q(A) :- r(B), p(A,B), p(A,B)"))
    assert not isomorphic(q, parse_query("Q(A) :- p(A,B), r(B)"))
    assert not isomorphic(q, parse_query("Q(A) :- p(A,B), p(A,C), r(B)"))
    assert not isomorphic(parse_query("Q(X) :- p(X,Y)"), parse_query("Q(X) :- p(X,X)"))


def test_dependency_free_tests_differ_by_semantics():
    left = parse_query("Q(X) :- p(X,Y), p(X,Y)")
    right = parse_query("Q(X) :- p(X,Y)")
    assert equivalent_free(left, right, "set", frozenset())
    assert equivalent_free(left, right, "bag-set", frozenset())
    assert not equivalent_free(left, right, "bag", frozenset())
    assert equivalent_free(left, right, "bag", frozenset({"p"}))


@pytest.mark.parametrize("semantics", inputs.SEMANTICS)
def test_reference_cb_matches_the_engine(oracle, semantics):
    family = inputs.ex41_family()
    session = Session(
        dependencies=parse_dependencies(family.sigma_text, set_valued=list(family.set_valued))
    )
    engine = session.reformulate(parse_query(_q("Q4")), semantics)
    expected = oracle.reformulations("ex41", _q("Q4"), semantics)
    assert same_up_to_isomorphism(list(engine.reformulations), expected)
    assert not same_up_to_isomorphism(list(engine.reformulations)[1:], expected)


def test_delta_sigma_edits_reach_the_reference_chase(oracle):
    extra = ("r(X) -> vv(X,Z)", "vv(X,Y) & vv(X,Z) -> Y = Z")
    chased = oracle.chase(_q("Q4"), "bag-set", "ex41", extra=extra, set_valued=("vv",))
    assert "vv" in {atom.predicate for atom in chased.body}
    assert "vv" not in {atom.predicate for atom in oracle.chase(_q("Q4"), "bag-set", "ex41").body}
