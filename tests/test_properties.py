"""Cross-module invariants checked by exhaustive enumeration."""

import pytest

from srk import (
    check_conditions,
    diagram_to_og,
    enumerate_diagrams,
    enumerate_og,
    expand,
    og_to_diagram,
    step,
)
from srk.errors import AlreadyTerminal, ValidationError
from test_diagrams import _unpruned_diagrams


def _schubert_like(D):
    return all(q.d + q.r == D.m for q in D.quadrics)


def test_terminal_diagrams_are_exactly_the_valid_indices():
    """A terminal diagram passes the admissibility conditions iff it decodes
    to a valid index (exhaustive over structurally valid diagrams)."""
    for k in range(1, 4):
        for m in range(2 * k, 10):
            for D in _unpruned_diagrams(k, m, admissible_only=False):
                if not _schubert_like(D):
                    continue
                try:
                    diagram_to_og(D)
                    decodes = True
                except ValidationError:
                    decodes = False
                assert decodes == check_conditions(D).ok, str(D)


def test_schubert_diagrams_of_enumerated_indices_are_admissible():
    """og_to_diagram checks nothing: the Schubert diagram of every valid
    index of k <= 6, n <= 14 is admissible and decodes to the index, the
    even-n boundary spellings b_{k-s} = n/2 - 1, stored as their primed
    twins, included."""
    from srk import OgIndex

    for k in range(1, 7):
        for n in range(2 * k, 15):
            xs = list(enumerate_og(k, n))
            xs += [OgIndex(k, n, x.a[:-1], x.b + (n // 2 - 1,)) for x in xs if x.prime]
            for x in xs:
                D = og_to_diagram(x)
                assert check_conditions(D).ok, str(x)
                assert diagram_to_og(D) == x


def test_terminal_admissible_diagrams_are_the_schubert_diagrams():
    """Up to k = 6, the admissible diagrams with every d_j + r_j = m are
    exactly the Schubert diagrams of the enumerated indices, and every
    admissible diagram fits the isotropic and ambient bounds that expand
    checks on entry."""
    spaces = [(k, m) for k in range(1, 6) for m in range(2 * k, 13)]
    for k, m in spaces + [(6, 12), (6, 13)]:
        terminal = set()
        for D in enumerate_diagrams(k, m):
            assert not D.brackets or 2 * D.bracket_dims[-1] <= m, str(D)
            assert all(s <= m for s in D.sums), str(D)
            if _schubert_like(D):
                terminal.add(D)
        assert terminal == {og_to_diagram(x) for x in enumerate_og(k, m)}, (k, m)


def test_step_children_remain_admissible():
    for k in range(1, 4):
        for m in range(2 * k, 9):
            for D in enumerate_diagrams(k, m):
                try:
                    _, children = step(D)
                except AlreadyTerminal:
                    continue
                for child in children:
                    assert check_conditions(child).ok, f"{D} -> {child}"


def test_expansion_coefficients_positive_and_deterministic():
    for k in range(1, 3):
        for m in range(2 * k, 9):
            for D in enumerate_diagrams(k, m):
                S = expand(D)
                assert S == expand(D)
                assert all(c >= 1 for _, c in S)


def test_out_of_family_derivation_fails_loudly():
    """With four quadrics and a non-monotone d+r profile, a corank bump can
    break the corank-profile condition; the engine must refuse rather than
    silently drop the branch.  This cannot happen with three or fewer
    quadrics (covered exhaustively elsewhere)."""
    from srk import parse_diagram
    from srk.errors import EngineInvariantError

    exotic = parse_diagram("344000}0}0}0}")
    assert check_conditions(exotic).ok
    with pytest.raises(EngineInvariantError):
        expand(exotic)


def test_og_dimension_matches_engine_derived_dimension():
    """The closed-form og_dimension equals the one dimension of the terms of
    pushforward(x), over every index of k <= 4, n <= 12 (primed ones and the
    even-n boundary spellings b_{k-s} = n/2 - 1 included, which print as
    their primed twins) and over OG(5,10) and OG(5,11), where the engine
    loses exactly the listed classes."""
    from srk import OgIndex, og_dimension, pushforward
    from srk.errors import EngineInvariantError
    from srk.grassmannian import gr_dimension

    lost = []
    for k, n in [(k, n) for k in range(1, 5) for n in range(2 * k, 13)] + [
        (5, 10),
        (5, 11),
    ]:
        xs = list(enumerate_og(k, n))
        # each primed index again, built from its boundary spelling
        xs += [OgIndex(k, n, x.a[:-1], x.b + (n // 2 - 1,)) for x in xs if x.prime]
        for x in xs:
            try:
                terms = pushforward(x)
            except EngineInvariantError:
                lost.append(f"{x}@OG({k},{n})")
                continue
            assert {gr_dimension(t) for t, _ in terms} == {og_dimension(x)}, str(x)
    assert lost == [
        "σ_{2,3,5}^{0,3}@OG(5,10)",
        "σ_{2,3,5'}^{0,3}@OG(5,10)",
        "σ_{2,3,5'}^{0,3}@OG(5,10)",
        "σ_{3,4}^{0,1,4}@OG(5,11)",
    ]


def test_progress_along_derivations():
    """Along every root-to-leaf path, quadric sums never decrease and the
    same diagram never repeats."""
    from srk import expand as _expand

    for seed in ("00]000}0", "m=7 k=2 a=2 q=7:0", "m=9 k=2 a=- q=8:0,7:1"):
        from srk import parse_diagram

        _, root = _expand(parse_diagram(seed), trace=True)

        def walk(node, seen):
            if node.diagram is not None:
                key = node.diagram
                assert key not in seen, f"cycle at {key}"
                seen = seen | {key}
            for child in node.children:
                walk(child, seen)

        walk(root, frozenset())
