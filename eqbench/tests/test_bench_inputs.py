"""The generators: deterministic per seed, different across seeds, same sizes."""

from __future__ import annotations

from collections import Counter

import pytest

from eqbench import inputs
from eqbench.inputs import Decide, Write
from repro import Session, parse_dependencies, parse_query


def _shape(workload) -> Counter:
    """What a seed may not change: request kinds, families and semantics."""
    return Counter(
        (type(r).__name__, getattr(r, "family", ""), r.semantics) for r in workload.cycle
    )


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_deterministic_per_seed(name):
    make = inputs.WORKLOADS[name]
    assert make(7) == make(7)


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_seeds_differ_in_texts_not_in_size(name):
    make = inputs.WORKLOADS[name]
    cycles = [make(seed).cycle for seed in range(4)]
    assert len({tuple(map(repr, cycle)) for cycle in cycles}) == 4
    assert len({len(cycle) for cycle in cycles}) == 1
    assert len({frozenset(_shape(make(seed)).items()) for seed in range(4)}) == 1


def _session(family) -> Session:
    return Session(
        dependencies=parse_dependencies(family.sigma_text, set_valued=list(family.set_valued))
    )


@pytest.mark.parametrize("name", ["decide-cold", "serve-warm"])
def test_every_variant_is_a_fresh_chase_key(name):
    workload = inputs.WORKLOADS[name](3)
    sessions = {key: _session(family) for key, family in workload.families.items()}
    for request in workload.cycle:
        session = sessions[request.family]
        for text in (request.left, request.right):
            if name == "serve-warm" and text == request.right:
                continue  # the pool's right-hand sides repeat by design
            misses = session.cache_stats().misses
            session.chase(parse_query(text), request.semantics)
            assert session.cache_stats().misses == misses + 1, text


def test_serve_warm_left_sides_are_distinct_per_semantics():
    workload = inputs.serve_warm(0)
    keys = [(r.left, r.semantics) for r in workload.cycle]
    assert len(set(keys)) == len(keys) == 3 * 3 * inputs.SERVE_WARM_VARIANTS


def test_delta_cycle_returns_to_its_start():
    cycle = inputs.serve_delta(5).cycle
    writes = [r for r in cycle if isinstance(r, Write)]
    assert [w.monotone for w in writes] == [True, False]
    grow, shrink = writes
    assert grow.target == shrink.query and shrink.target == grow.query
    assert grow.add_atoms == shrink.remove_atoms
    assert grow.add_dependencies == shrink.remove_dependencies
    assert sum(isinstance(r, Decide) for r in cycle) == 2 * inputs.DELTA_READS


def test_wire_params_spell_the_protocol():
    op, params = inputs.wire_params(inputs.serve_delta(0).cycle[0])
    assert op == "apply-delta"
    assert {"query", "semantics", "add_atoms", "add_dependencies", "set_valued"} <= set(params)
    op, params = inputs.wire_params(inputs.serve_warm(0).cycle[0])
    assert op == "decide" and set(params) == {"query", "other", "semantics"}
