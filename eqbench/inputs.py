"""Seeded request texts for the four workloads.

Everything the program receives is generated here as text: dependency sets
in rule notation and queries in datalog notation.  A seed decides names and
order — the distractor relations that make each request a fresh variant,
variable spellings, the order of requests inside a cycle — but never the
input sizes, so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

SEMANTICS = ("bag", "bag-set", "set")

#: Example 4.1 of the paper: Σ (σ1–σ4, σ7, σ8; s and t set valued) and Q1–Q4.
EX41_SIGMA = (
    "p(X,Y) -> s(X,Z) & t(X,V,W)",
    "p(X,Y) -> t(X,Y,W)",
    "p(X,Y) -> r(X)",
    "p(X,Y) -> u(X,Z) & t(X,Y,W)",
    "s(X,Y) & s(X,Z) -> Y = Z",
    "t(X,Y,Z) & t(X,Y,W) -> Z = W",
)
EX41_SET_VALUED = ("s", "t")
EX41_BODIES = {
    "Q1": "p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)",
    "Q2": "p(X,Y), t(X,Y,W), s(X,Z), r(X)",
    "Q3": "p(X,Y), t(X,Y,W), s(X,Z)",
    "Q4": "p(X,Y)",
}

#: Stated input sizes of the synthetic families (also in BENCHMARK.json).
CHAIN_LENGTH = 6
STAR_SPOKES = 6
CLIQUE_SIZE = 5
REFORMULATE_CHAIN_LENGTH = 3
SERVE_WARM_VARIANTS = 4
DELTA_READS = 3


@dataclass(frozen=True)
class Family:
    """One dependency set Σ, as rule-notation lines plus set-valued relations."""

    name: str
    sigma: tuple[str, ...]
    set_valued: tuple[str, ...]

    @property
    def sigma_text(self) -> str:
        return "\n".join(self.sigma)


@dataclass(frozen=True)
class Decide:
    """``decide(left, right)`` under *semantics* over the family's Σ."""

    family: str
    left: str
    right: str
    semantics: str


@dataclass(frozen=True)
class Reformulate:
    """``reformulate(query)`` (C&B) under *semantics* over the family's Σ."""

    family: str
    query: str
    semantics: str


@dataclass(frozen=True)
class Workload:
    """A fixed cycle of requests over one or more families."""

    families: dict[str, Family]
    cycle: tuple


def _query(body: str, head: str = "X") -> str:
    return f"Q({head}) :- {body}"


def _distractor_prefix(rng: random.Random) -> str:
    # Program relations never start with 'z', so distractors cannot collide.
    return "z" + "".join(rng.choice(string.ascii_lowercase) for _ in range(2))


def ex41_family() -> Family:
    return Family("ex41", EX41_SIGMA, EX41_SET_VALUED)


def chain_family(length: int, relation: str = "c") -> Family:
    """Keys on the first attribute and inclusions ``c_i[2] ⊆ c_{i+1}[1]``."""
    names = [f"{relation}{i}" for i in range(1, length + 1)]
    sigma = [f"{n}(X,Y) & {n}(X,Z) -> Y = Z" for n in names]
    sigma += [f"{a}(X,Y) -> {b}(Y,Z)" for a, b in zip(names, names[1:])]
    return Family(f"chain{length}", tuple(sigma), tuple(names))


def chain_body(length: int, relation: str = "c") -> str:
    return ", ".join(f"{relation}{i}(X{i - 1},X{i})" for i in range(1, length + 1))


def star_family(spokes: int) -> Family:
    """``hub(X) -> s_i(X,Y)`` with a key on each spoke: every tgd is key based."""
    names = [f"s{i}" for i in range(1, spokes + 1)]
    sigma = [f"hub(X) -> {n}(X,Y)" for n in names]
    sigma += [f"{n}(X,Y) & {n}(X,Z) -> Y = Z" for n in names]
    return Family(f"star{spokes}", tuple(sigma), tuple(names))


def clique_family() -> Family:
    return Family("clique", ("e(X,Y) & e(Y,Z) & e(X,Z) -> tri(X,Y,Z)",), ("e", "tri"))


def clique_body(size: int, skip: tuple[int, int] | None = None) -> str:
    edges = [
        f"e(X{i},X{j})"
        for i in range(1, size + 1)
        for j in range(i + 1, size + 1)
        if (i, j) != skip
    ]
    return ", ".join(edges)


def paper_families() -> list[tuple[Family, list[tuple[str, str]]]]:
    """Examples 4.1, 4.2, 4.6/4.8 and 4.3/5.1 with their decision pairs."""
    ex41 = ex41_family()
    ex42 = Family(
        "ex42",
        (
            "p(X,Y) -> r(X,Z) & s(Z,W)",
            "r(X,Y) & r(X,Z) -> Y = Z",
            "r(X,Y) & s(Y,T) & r(X,Z) & s(Z,W) -> T = W",
        ),
        (),
    )
    ex48 = Family(
        "ex48", ("p(X,Y) -> s(X,Z) & t(Z,Y)", "t(X,Y) & t(Z,Y) -> X = Z"), ("s", "t")
    )
    ex51 = Family(
        "ex51",
        (
            "r(X,Y) & r(X,Z) -> Y = Z",
            "p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T)",
            "r(X,Z) & s(Z,W) & s(X,T) -> W = T",
            "p(X,Y) & r(A,X) & s(X,T) -> X = T",
        ),
        (),
    )
    q4 = EX41_BODIES["Q4"]
    return [
        (ex41, [(EX41_BODIES[name], q4) for name in ("Q1", "Q2", "Q3")]),
        (ex42, [("p(X,Y)", "p(X,Y), r(X,Z), s(Z,W)")]),
        (ex48, [("p(X,Y), s(X,Z)", "p(X,Y), s(X,Z), s(X,W), t(W,Y)")]),
        (ex51, [("p(X,Y), r(A,X)", "p(X,Y), r(A,X), r(X,Z), s(Z,W), s(X,T)")]),
    ]


def decide_cold(seed: int) -> Workload:
    """One cycle of cold decisions: every request a structurally new pair.

    Each request carries its own distractor atom ``z..(X)`` on both sides —
    a relation Σ never mentions — so its two chase keys are new to the
    cycle's sessions while the verdict and the chase work stay those of the
    underlying pair.
    """
    rng = random.Random(f"decide-cold:{seed}")
    prefix = _distractor_prefix(rng)
    chain = chain_family(CHAIN_LENGTH)
    star = star_family(STAR_SPOKES)
    clique = clique_family()
    full_chain = chain_body(CHAIN_LENGTH)
    groups: list[tuple[Family, list[tuple[str, str]], str]] = [
        (chain, [(chain_body(1), full_chain), (chain_body(3), full_chain)], "X0"),
        (
            star,
            [("hub(X)", "hub(X), s1(X,Y)"), ("hub(X), s2(X,Y)", "hub(X), s3(X,Y), s4(X,W)")],
            "X",
        ),
        (clique, [(clique_body(CLIQUE_SIZE), clique_body(CLIQUE_SIZE, skip=(1, CLIQUE_SIZE)))], "X1"),
    ]
    groups += [(family, pairs, "X") for family, pairs in paper_families()]
    requests = []
    for family, pairs, head in groups:
        for left, right in pairs:
            for semantics in SEMANTICS:
                mark = f"{prefix}{len(requests)}({head})"
                requests.append(
                    Decide(
                        family.name,
                        _query(f"{left}, {mark}", head),
                        _query(f"{right}, {mark}", head),
                        semantics,
                    )
                )
    rng.shuffle(requests)
    families = {family.name: family for family, _, _ in groups}
    return Workload(families, tuple(requests))


def reformulate_cold(seed: int) -> Workload:
    """C&B over Example 4.1's Σ plus a key/inclusion chain, each semantics."""
    rng = random.Random(f"reformulate-cold:{seed}")
    chain = chain_family(REFORMULATE_CHAIN_LENGTH, relation="k")
    family = Family(
        "ex41+chain",
        EX41_SIGMA + chain.sigma,
        EX41_SET_VALUED + chain.set_valued,
    )
    x, y = rng.sample(["A", "B", "X", "Y", "M", "N"], 2)
    queries = (_query(f"p({x},{y})", x), _query(chain_body(1, relation="k"), "X0"))
    requests = [Reformulate(family.name, q, s) for q in queries for s in SEMANTICS]
    rng.shuffle(requests)
    return Workload({family.name: family}, tuple(requests))


def serve_warm(seed: int) -> Workload:
    """A pool of distinct Example 4.1 pairs under all three semantics."""
    rng = random.Random(f"serve-warm:{seed}")
    prefix = _distractor_prefix(rng)
    q4 = EX41_BODIES["Q4"]
    requests = []
    for variant in range(SERVE_WARM_VARIANTS):
        mark = f"{prefix}{variant}(X)"
        for name in ("Q1", "Q2", "Q3"):
            for semantics in SEMANTICS:
                requests.append(
                    Decide(
                        "ex41",
                        _query(f"{EX41_BODIES[name]}, {mark}"),
                        _query(f"{q4}, {mark}"),
                        semantics,
                    )
                )
    rng.shuffle(requests)
    return Workload({"ex41": ex41_family()}, tuple(requests))


@dataclass(frozen=True)
class Write:
    """An ``apply-delta`` request; empty strings mean "no such edit".

    ``target`` is the query the write leads to, for the oracle.
    """

    family: str
    query: str
    semantics: str
    target: str
    add_atoms: str = ""
    add_dependencies: str = ""
    remove_atoms: str = ""
    remove_dependencies: str = ""
    set_valued: tuple[str, ...] = ()

    @property
    def monotone(self) -> bool:
        return not (self.remove_atoms or self.remove_dependencies)


def serve_delta(seed: int) -> Workload:
    """Write, reads, removal, reads — the cycle returns to its starting state.

    The monotone write adds one atom and a key-based tgd with its key egd
    over a fresh set-valued relation, so the daemon resumes the checkpointed
    chase; the removal takes both back out, which forces a cold fallback and
    keeps Σ bounded.  All requests run under bag-set semantics (the SQL
    default), so every monotone write is the same cost class.
    """
    rng = random.Random(f"serve-delta:{seed}")
    relation = "v" + "".join(rng.choice(string.ascii_lowercase) for _ in range(2))
    extra = rng.choice(["Y1", "B", "K", "Y9"])
    semantics = "bag-set"
    base = _query(EX41_BODIES["Q4"])
    grown = _query(f"{EX41_BODIES['Q4']}, p(X,{extra})")
    dependencies = f"r(X) -> {relation}(X,Z)\n{relation}(X,Y) & {relation}(X,Z) -> Y = Z"
    others = [_query(EX41_BODIES[name]) for name in ("Q1", "Q2", "Q3")]
    rng.shuffle(others)
    cycle: list = [
        Write(
            "ex41",
            base,
            semantics,
            grown,
            add_atoms=f"p(X,{extra})",
            add_dependencies=dependencies,
            set_valued=(relation,),
        )
    ]
    cycle += [Decide("ex41", grown, other, semantics) for other in others[:DELTA_READS]]
    cycle.append(
        Write(
            "ex41",
            grown,
            semantics,
            base,
            remove_atoms=f"p(X,{extra})",
            remove_dependencies=dependencies,
        )
    )
    cycle += [Decide("ex41", base, other, semantics) for other in others[:DELTA_READS]]
    return Workload({"ex41": ex41_family()}, tuple(cycle))


WORKLOADS = {
    "serve-warm": serve_warm,
    "decide-cold": decide_cold,
    "reformulate-cold": reformulate_cold,
    "serve-delta": serve_delta,
}


def wire_params(request) -> tuple[str, dict]:
    """The ``(op, params)`` of *request* as the daemon's protocol spells them."""
    if isinstance(request, Decide):
        return "decide", {
            "query": request.left,
            "other": request.right,
            "semantics": request.semantics,
        }
    if isinstance(request, Write):
        params: dict = {"query": request.query, "semantics": request.semantics}
        for name in ("add_atoms", "add_dependencies", "remove_atoms", "remove_dependencies"):
            if getattr(request, name):
                params[name] = getattr(request, name)
        if request.set_valued:
            params["set_valued"] = list(request.set_valued)
        return "apply-delta", params
    raise TypeError(f"no wire form for {type(request).__name__}")
