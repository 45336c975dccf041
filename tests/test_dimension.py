"""The dimension of a restriction variety, read off its diagram."""

from functools import lru_cache

from srk import (
    diagram_dimension,
    enumerate_diagrams,
    enumerate_og,
    expand,
    og_dimension,
    og_to_diagram,
    parse_diagram,
    print_diagram,
    step,
)
from srk.errors import EngineInvariantError


def test_diagram_dimension_examples():
    # 100]00}00: (3 - 1) + (5 - 2 - 2 + 0) = 3, the dimension of σ_2^2 in OG(2,7)
    assert diagram_dimension(parse_diagram("100]00}00")) == 3
    # the fundamental class of OG(2,6): k(2n - 3k - 1)/2 = 5
    assert diagram_dimension(parse_diagram("20000}0}")) == 5


def test_diagram_dimension_of_a_schubert_diagram_is_og_dimension():
    count = 0
    for k in range(1, 7):
        for n in range(2 * k, 15):
            for x in enumerate_og(k, n):
                assert diagram_dimension(og_to_diagram(x)) == og_dimension(x), x
                count += 1
    assert count == 4230


@lru_cache(maxsize=None)
def _expanded():
    """(diagram, class) for every admissible diagram with k <= 4, m <= 11
    whose expansion succeeds, and the number whose expansion raises."""
    out, raised = [], 0
    for k in range(1, 5):
        for m in range(2 * k, 12):
            for D in enumerate_diagrams(k, m):
                try:
                    out.append((D, expand(D)))
                except EngineInvariantError:
                    raised += 1
    return tuple(out), raised


def test_every_term_of_an_expansion_has_the_diagram_dimension():
    expanded, raised = _expanded()
    nonzero = 0
    for D, cls in expanded:
        if cls:
            nonzero += 1
            dims = {og_dimension(x) for x, _ in cls}
            assert dims == {diagram_dimension(D)}, print_diagram(D)
    assert nonzero > 3000 and raised < 30


def test_every_step_keeps_the_dimension():
    children = 0
    for D, _ in _expanded()[0]:
        if all(s == D.m for s in D.sums):
            continue  # terminal: nothing to step
        for child in step(D)[1]:
            assert diagram_dimension(child) == diagram_dimension(D), (
                print_diagram(D),
                print_diagram(child),
            )
            children += 1
    assert children > 3000
