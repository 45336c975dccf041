"""Rigidity classifiers and the non-rigidity witness search."""

import functools
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from srk import (
    Bracket,
    ClassSum,
    Quadric,
    QuadricDiagram,
    canonical_index,
    classify_og,
    diagram_dimension,
    enumerate_diagrams,
    enumerate_og,
    expand,
    find_nonrigid_witness,
    og_dimension,
    og_rigid_a,
    og_rigid_b,
    og_rigid_class,
    print_diagram,
    validate_og,
    x_counts,
    z_counts,
)
from srk import degeneration, diagrams, rigidity
from srk.degeneration import _expand_cached, can_reach
from srk.diagrams import bracket_sets, diagrams_with
from srk.errors import (
    EngineInvariantError,
    PositionOutOfRange,
    SearchBudgetExceeded,
    SrkError,
    ValidationError,
)
from srk.orthogonal import needs_rewrite
from test_diagrams import _unpruned_diagrams


def test_counts():
    x = validate_og(3, 9, [1, 4], [1])
    assert x_counts(x) == (1,)
    assert z_counts(x) == (1, 0)


def test_rigid_a_examples():
    assert og_rigid_a(validate_og(2, 6, [1], [1]), 1).kind == "rigid"
    assert og_rigid_a(validate_og(3, 7, [2, 3], [0]), 2).kind == "rigid"
    v = og_rigid_a(validate_og(3, 7, [1, 2], [2]), 2)
    assert v.kind == "disputed" and v.note
    x = validate_og(2, 6, [1], [1])
    for position in (2, 0, True, 1.0, "1"):
        with pytest.raises(PositionOutOfRange):
            og_rigid_a(x, position)


def test_rigid_a_clauses():
    # consecutive-gap pattern with nothing between: not rigid
    assert og_rigid_a(validate_og(2, 8, [2, 4], []), 1).token() == "not_rigid:MT-1"
    # non-essential position reported as such
    assert og_rigid_a(validate_og(2, 8, [1, 2], []), 1).kind == "not_essential"


def test_a_part_equal_to_b_j_never_meets_the_threshold():
    """At every b_j among the a-parts, 2 x_j != 2(k - j + b_j) - (n - 1).

    So no a-side clause can fire on that equality, and
    ``>`` and ``>=`` agree at B-RIGID and at ``classify_og``'s first
    condition.  Proof (derived here): let v = b_j = a_i.  Equality needs n
    odd, n = 2m + 1, and then x_j = k - j + v - m.  The parts above v number
    (s - x_j) a-parts plus (k - s - j) b-parts, k - j - x_j = m - v in all.
    The a-parts above v lie in v + 2..m: a_i <= n/2, and a part v + 1 would
    be b_j + 1.  Each b-part above v is at most m - 1 (2 b <= n - 2), so its
    successor lies in v + 2..m too, and differs from every a-part, since no
    a-part is a b-part plus one.  Both sets of values are disjoint in a
    range of m - v - 1 values, so at most m - v - 1 parts lie above v.

    Checked without the engine over k <= 7, 2k <= n <= 18.
    """
    pairs = 0
    for k in range(1, 8):
        for n in range(2 * k, 19):
            for x in enumerate_og(k, n):
                for j, bj in enumerate(x.b, start=1):
                    if bj in x.a:
                        xj = sum(1 for av in x.a if av <= bj)
                        assert 2 * xj != 2 * (k - j + bj) - (n - 1), (x, j)
                        pairs += 1
    assert pairs > 10_000


def test_rigid_b_examples():
    assert og_rigid_b(validate_og(2, 6, [1], [1]), 1).token() == "rigid:B-RIGID"
    assert og_rigid_b(validate_og(2, 9, [2], [3]), 1).kind == "not_rigid"
    assert og_rigid_b(validate_og(3, 7, [1, 2], [2]), 1).kind == "rigid"
    assert og_rigid_b(validate_og(2, 6, [2], [0]), 1).kind == "not_essential"
    x = validate_og(2, 6, [1], [1])
    for position in (2, 0, True, 1.0, "1"):
        with pytest.raises(PositionOutOfRange):
            og_rigid_b(x, position)


def test_rigid_b_contested_threshold_is_disputed():
    # x_1 sits exactly one above the arithmetic threshold at odd n;
    # the expansion of 100]00}00 concretely moves the flag element
    v = og_rigid_b(validate_og(2, 7, [2], [2]), 1)
    assert v.kind == "disputed"
    witness = QuadricDiagram(7, (Bracket(3),), (Quadric(5, 1),))
    assert expand(witness) == ClassSum.single(validate_og(2, 7, [2], [2]))


def test_rigid_b_vacuous_construction_is_disputed():
    # a_s = n/2 leaves no room for the deformation the arithmetic predicts
    assert og_rigid_b(validate_og(2, 6, [3], [1]), 1).kind == "disputed"


def test_rigid_class_examples():
    assert og_rigid_class(validate_og(2, 6, [1], [1])) == (True, True)
    assert og_rigid_class(validate_og(2, 9, [2], [3])) == (False, True)
    assert og_rigid_class(validate_og(3, 7, [2, 3], [0])) == (True, True)


def test_classify_report_shape():
    rep = classify_og(validate_og(3, 7, [1, 2], [2]))
    assert [v.token() for v in rep.a_verdicts][1].startswith("disputed")
    assert rep.class_rigid is False
    assert "SMALL-N-REGIME" in rep.warnings and "DISPUTED-A2" in rep.warnings
    js = rep.to_json_dict()
    assert js["space"] == "OG" and js["z"] == [0, 1] and js["x"] == [2]
    rep2 = classify_og(validate_og(3, 7, [2, 3], [0]))
    assert "NO-ESSENTIAL-B" in rep2.warnings and rep2.class_rigid


def test_classify_derives_per_index_data_once(monkeypatch):
    calls = {"og_essential": 0, "x_counts": 0}
    for name in calls:
        real = getattr(rigidity, name)

        def counting(x, name=name, real=real):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(rigidity, name, counting)
    # four positions; a_1 = b_2 = 2, so verdicts on both sides read x_2
    x = validate_og(4, 11, [2, 4], [0, 2])
    rep = classify_og(x)
    assert calls == {"og_essential": 1, "x_counts": 1}
    assert rep.a_verdicts == tuple(og_rigid_a(x, i) for i in (1, 2))
    assert rep.b_verdicts == tuple(og_rigid_b(x, j) for j in (1, 2))


def test_witness_found_for_small_ambient_counterexample():
    x = validate_og(3, 7, [1, 2], [2])
    w = find_nonrigid_witness(x, ("a", 2))
    assert w == QuadricDiagram(7, (Bracket(1), Bracket(3)), (Quadric(5, 1),))
    assert expand(w) == ClassSum.single(x)


def test_witness_found_for_loose_corank_condition():
    x = validate_og(2, 9, [2], [3])
    w = find_nonrigid_witness(x, ("b", 1))
    assert w == QuadricDiagram(9, (Bracket(2),), (Quadric(6, 2),))
    assert expand(w) == ClassSum.single(x)


def test_witness_absent_for_rigid_position():
    assert find_nonrigid_witness(validate_og(2, 6, [1], [1]), ("a", 1)) is None


def test_witness_respects_budget():
    with pytest.raises(SearchBudgetExceeded):
        find_nonrigid_witness(validate_og(2, 9, [2], [3]), ("b", 1), budget=2)


def test_witness_budget_from_environment(monkeypatch):
    x = validate_og(2, 9, [2], [3])
    monkeypatch.setenv("SRK_SEARCH_BUDGET", "2")
    with pytest.raises(SearchBudgetExceeded):
        find_nonrigid_witness(x, ("b", 1))
    monkeypatch.setenv("SRK_SEARCH_BUDGET", "lots")
    with pytest.raises(ValidationError, match="SRK_SEARCH_BUDGET"):
        find_nonrigid_witness(x, ("b", 1))
    monkeypatch.setenv("SRK_SEARCH_BUDGET", "-5")
    with pytest.raises(ValidationError, match="nonnegative, got -5"):
        find_nonrigid_witness(x, ("b", 1))
    with pytest.raises(ValidationError, match="nonnegative, got -1"):
        find_nonrigid_witness(x, ("b", 1), budget=-1)
    # a budget of 0 is legal: the scan stops before the first diagram
    with pytest.raises(SearchBudgetExceeded, match="passed 0 diagrams"):
        find_nonrigid_witness(x, ("b", 1), budget=0)


def test_witness_position_validation():
    x = validate_og(2, 6, [1], [1])
    with pytest.raises(PositionOutOfRange):
        find_nonrigid_witness(x, ("a", 2))
    with pytest.raises(PositionOutOfRange):
        find_nonrigid_witness(x, ("c", 1))
    for position in (("b", "1"), ("b", 1.0), ("b", True), ("b",), ("b", 1, 1), 7):
        with pytest.raises(PositionOutOfRange):
            find_nonrigid_witness(x, position)
    for budget in ("5", 5.0, True):
        with pytest.raises(ValidationError, match="budget must be an int"):
            find_nonrigid_witness(x, ("b", 1), budget=budget)


def test_witness_for_rewritten_boundary_position():
    # the boundary condition b = n/2 - 1 is queried through its bracket form
    x = validate_og(2, 8, [2], [3])
    assert find_nonrigid_witness(x, ("b", 1)) is None


# --- the memoized scan against a plain one ----------------------------------


@functools.cache
def _unpruned(k, n):
    """(diagram, its dimension) for the unpruned reference enumeration."""
    return tuple((D, diagram_dimension(D)) for D in _unpruned_diagrams(k, n))


@functools.cache
def _traced(D):
    """The traced expansion, which bypasses the library's expansion cache;
    None when the derivation leaves the admissible family."""
    try:
        return expand(D, trace=True)[0]
    except EngineInvariantError:
        return None


def _reference_scan(x, position, every_dimension=True):
    """The witness scan without memos or reachability test: the unpruned
    reference enumeration, which knows no dimensions, and the traced
    expansion.  A candidate of another dimension than the class is expanded
    too unless ``every_dimension`` is false, and a candidate whose expansion
    raises is passed over.  Returns (count, witness), count being the
    witness's 1-based place among the diagrams of the class's dimension
    (the unit of the budget), or (None, None)."""
    kind, idx = position
    cx = canonical_index(x)
    if needs_rewrite(x) and kind == "b" and idx == len(x.b):
        kind, idx = "a", cx.s
    target = ClassSum.single(cx)
    dim = og_dimension(cx)
    count = 0
    for D, d in _unpruned(x.k, x.n):
        same = d == dim
        count += same
        if (same or every_dimension) and rigidity._omits_assertion(D, cx, kind, idx):
            if _traced(D) == target:
                return count, D
    return None, None


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SrkError as exc:
        return "raised", type(exc)


@functools.cache
def _reference_answers(k, n, every_dimension=True):
    """((index, position), reference outcome) for every not_rigid position."""
    out = []
    for x in enumerate_og(k, n):
        rep = classify_og(x)
        for kind, verdicts in (("a", rep.a_verdicts), ("b", rep.b_verdicts)):
            for i, v in enumerate(verdicts, start=1):
                if v.kind == "not_rigid":
                    pos = (kind, i)
                    want = _outcome(lambda: _reference_scan(x, pos, every_dimension)[1])
                    out.append(((x, pos), want))
    return tuple(out)


_WITNESS_SPACES = [
    (2, 7, True, {"witness": 4}),
    (2, 8, True, {"witness": 4, "none": 2}),
    (2, 9, True, {"witness": 12, "none": 1}),
    (3, 8, True, {"none": 2}),
    # in four-part spaces an expansion may leave the admissible family and
    # raise; the reference passes over such a candidate, and the scan never
    # expands one here, since none can reach its class.  The reference
    # expands only candidates of the class's dimension, to keep the test
    # short; OG(4,10) also reads primed brackets
    (4, 10, False, {"none": 8}),
    (4, 11, False, {"witness": 26, "none": 5}),
]


@pytest.mark.parametrize(
    "k,n,every_dimension,tally",
    _WITNESS_SPACES,
    ids=[f"{k}-{n}" for k, n, *_ in _WITNESS_SPACES],
)
def test_memoized_witness_scan_matches_reference(k, n, every_dimension, tally):
    seen = Counter()
    for (x, pos), want in _reference_answers(k, n, every_dimension):
        got = _outcome(find_nonrigid_witness, x, pos)
        assert got == want, (x, pos)
        status, value = got
        seen["raised" if status == "raised" else "none" if value is None else "witness"] += 1
    assert seen == tally


def test_budget_counts_the_same_on_a_warm_memo():
    x, pos = validate_og(2, 9, [2], [3]), ("b", 1)
    count, witness = _reference_scan(x, pos)
    assert count > 1
    find_nonrigid_witness(x, pos)  # (2, 9) is warm from here on
    assert find_nonrigid_witness(x, pos, budget=count) == witness
    with pytest.raises(SearchBudgetExceeded):
        find_nonrigid_witness(x, pos, budget=count - 1)


@pytest.fixture
def fresh_caches():
    """Empty the scan's candidate cache and ``expand``'s class cache, before
    the test and after it."""
    rigidity._candidates.cache_clear()
    _expand_cached.cache_clear()
    yield
    rigidity._candidates.cache_clear()
    _expand_cached.cache_clear()


def _assert_cached_chunks_complete(k, n, dim):
    """Every chunk of (k, n, dim), cached or not, is the whole bracket set's
    enumeration, and the chunks in ``bracket_sets`` order are the whole
    dimension's."""
    chunks = [rigidity._candidates(k, n, dim, b) for b in bracket_sets(k, n)]
    for b, chunk in zip(bracket_sets(k, n), chunks):
        assert chunk == tuple(diagrams_with(k, n, b, dim)), (k, n, dim, b)
    assert [D for chunk in chunks for D in chunk] == list(enumerate_diagrams(k, n, dim))


def test_stopped_scan_does_not_truncate_later_scans(fresh_caches):
    x, pos = validate_og(2, 9, [2], [3]), ("b", 1)
    count, witness = _reference_scan(x, pos)
    assert count > 1
    for budget in range(count):
        with pytest.raises(SearchBudgetExceeded):
            find_nonrigid_witness(x, pos, budget=budget)
    assert find_nonrigid_witness(x, pos) == witness
    _assert_cached_chunks_complete(2, 9, og_dimension(x))


def test_interrupted_chunk_is_not_cached(fresh_caches, monkeypatch):
    # the first nonempty chunk is interrupted after one diagram: the empty
    # chunks before it are cached, it is not, and the next scan reads it whole
    x, pos = validate_og(2, 9, [2], [3]), ("b", 1)
    count, witness = _reference_scan(x, pos)
    real = rigidity.diagrams_with
    built = []

    def interrupted(*args):
        chunk = list(real(*args))
        built.append(chunk)
        if chunk:
            yield chunk[0]
            raise KeyboardInterrupt

    monkeypatch.setattr(rigidity, "diagrams_with", interrupted)
    with pytest.raises(KeyboardInterrupt):
        find_nonrigid_witness(x, pos)
    assert len(built[-1]) > 1 and not any(built[:-1])
    assert rigidity._candidates.cache_info().currsize == len(built) - 1
    monkeypatch.setattr(rigidity, "diagrams_with", real)
    assert find_nonrigid_witness(x, pos, budget=count) == witness
    with pytest.raises(SearchBudgetExceeded):
        find_nonrigid_witness(x, pos, budget=count - 1)
    _assert_cached_chunks_complete(2, 9, og_dimension(x))


@pytest.mark.parametrize("k", range(1, 5))
def test_candidate_chunks_join_to_the_enumeration(fresh_caches, k):
    for n in range(2 * k, 12):
        dims = {diagram_dimension(D) for D in enumerate_diagrams(k, n)}
        for dim in range(-1, max(dims) + 2):
            _assert_cached_chunks_complete(k, n, dim)


def _sweep_in_threads(answers, workers):
    """Every worker sweeps every query at once; their outcomes."""
    start = threading.Barrier(workers, timeout=30)

    def sweep():
        start.wait()
        return [_outcome(find_nonrigid_witness, x, pos) for (x, pos), _ in answers]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(sweep) for _ in range(workers)]
            return [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)


def test_witness_scan_shared_by_two_threads(fresh_caches):
    answers = _reference_answers(2, 9)
    want = [outcome for _, outcome in answers]
    assert _sweep_in_threads(answers, 2) == [want, want]
    for dim in {og_dimension(x) for (x, _), _ in answers}:
        _assert_cached_chunks_complete(2, 9, dim)


def test_witness_caches_shared_by_four_threads(fresh_caches):
    # four threads sweep cold caches: two of them may both build a chunk or
    # derive a class, but every stored chunk is whole and every stored class
    # is the diagram's own
    answers = _reference_answers(2, 9)
    want = [outcome for _, outcome in answers]
    assert _sweep_in_threads(answers, 4) == [want] * 4
    classes = 0
    for dim in {og_dimension(x) for (x, _), _ in answers}:
        _assert_cached_chunks_complete(2, 9, dim)
        for b in bracket_sets(2, 9):
            for D in rigidity._candidates(2, 9, dim, b):
                if _traced(D) is not None:
                    assert expand(D) == _traced(D)
                    classes += 1
    assert classes


# --- each diagram's class is derived once per process -------------------------


def _recording(monkeypatch):
    """Record every diagram the scan expands, and every diagram whose class
    is derived rather than read from ``expand``'s cache."""
    expanded, derived = [], []
    real_expand, real_node = rigidity._expand_admissible, degeneration._expand_node

    def counting_expand(D, push, trace, what):
        expanded.append(D)
        return real_expand(D, push, trace, what)

    def counting_node(node, push):
        if isinstance(node, degeneration._Sink):
            derived.append(node.diagram)
        return real_node(node, push)

    monkeypatch.setattr(rigidity, "_expand_admissible", counting_expand)
    monkeypatch.setattr(degeneration, "_expand_node", counting_node)
    return expanded, derived


def test_cold_witness_query_builds_no_admissibility_report(fresh_caches, monkeypatch):
    # the scan's candidates are admissible by construction and the repair
    # loops read ``_fold``'s state; only a public entry's check builds a report
    reports = []
    real = diagrams.AdmissibilityReport

    def counting(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(diagrams, "AdmissibilityReport", counting)
    assert find_nonrigid_witness(validate_og(2, 9, [2], [3]), ("b", 1)) is not None
    assert _expand_cached.cache_info().misses > 1
    assert reports == []
    root = diagrams.parse_diagram("000}0}000")
    for run in (expand, degeneration.pushforward_diagram):
        misses = _expand_cached.cache_info().misses
        run(root)
        assert _expand_cached.cache_info().misses > misses + 1
        assert len(reports) == 1 and reports.pop().ok


def test_repeated_witness_query_expands_nothing(fresh_caches):
    x, pos = validate_og(2, 9, [2], [3]), ("b", 1)
    witness = find_nonrigid_witness(x, pos)
    misses = _expand_cached.cache_info().misses
    assert witness is not None and misses
    assert find_nonrigid_witness(x, pos) == witness
    assert _expand_cached.cache_info().misses == misses


def test_second_query_expands_only_diagrams_the_first_did_not(fresh_caches, monkeypatch):
    # in OG(2, 9) and OG(3, 8..10), this is one of the two ordered pairs of
    # witness queries where the first derives some, not all, of the second's
    # expanded candidates (each on cold caches)
    expanded, derived = _recording(monkeypatch)
    first = (validate_og(3, 9, [3, 4], [1]), ("b", 1))
    second = (validate_og(3, 9, [1], [1, 3]), ("b", 2))
    assert find_nonrigid_witness(*first) is not None
    reached = set(derived)
    expanded.clear()
    derived.clear()
    witness = find_nonrigid_witness(*second)
    count, want = _reference_scan(*second)
    assert witness == want
    x, (kind, idx) = second
    cx = canonical_index(x)
    needed = [
        D for D in list(enumerate_diagrams(3, 9, og_dimension(cx)))[:count]
        if rigidity._omits_assertion(D, cx, kind, idx) and can_reach(D, cx)
    ]
    assert expanded == needed
    assert not reached & set(derived)
    fresh = [D for D in needed if D not in reached]
    assert {D for D in derived if D in set(needed)} == set(fresh)
    assert fresh and len(fresh) < len(needed)


def test_witness_query_expands_only_diagrams_of_its_dimension(fresh_caches, monkeypatch):
    # every term of an expansion has the diagram's dimension, so a candidate
    # of another dimension is never expanded
    seen, _ = _recording(monkeypatch)
    queries = expanded = 0
    for x in enumerate_og(3, 9):
        rep = classify_og(x)
        for kind, verdicts in (("a", rep.a_verdicts), ("b", rep.b_verdicts)):
            for i, v in enumerate(verdicts, start=1):
                if v.kind == "not_rigid":
                    find_nonrigid_witness(x, (kind, i))
                    assert {diagram_dimension(D) for D in seen} <= {og_dimension(x)}
                    queries += 1
                    expanded += len(seen)
                    seen.clear()
    assert queries > 10 and expanded > queries


def test_failing_witness_query_expands_its_diagram_each_time(fresh_caches, monkeypatch):
    # failures are not stored: the candidate whose derivation left the
    # admissible family is derived again and raises afresh, while the
    # candidates before it take their classes from the cache
    expanded, derived = _recording(monkeypatch)
    x, pos = validate_og(4, 12, [2, 6], [3, 4]), ("a", 1)
    errors, candidates, roots = [], [], []
    for _ in range(2):
        with pytest.raises(SrkError) as err:
            find_nonrigid_witness(x, pos)
        errors.append((type(err.value), str(err.value)))
        candidates.append(list(expanded))
        roots.append([D for D in derived if D in set(expanded)])
        expanded.clear()
        derived.clear()
    assert errors[0] == errors[1]
    assert errors[0][0] is EngineInvariantError
    assert errors[0][1].startswith("244000}0}0}0}000 fails")
    assert errors[0][1].endswith("(while expanding scan candidate 344000}0}0}0}000)")
    first, again = candidates
    assert print_diagram(first[-1]) == "344000}0}0}0}000"
    assert len(first) > 1 and len(set(first)) == len(first)
    assert again == first
    assert roots[0] == first and roots[1] == first[-1:]
