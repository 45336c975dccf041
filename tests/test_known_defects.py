"""The known-defect ledger: each test pins, exactly and per space, one
defect srk has today (ROADMAP item 22).

Every entry passes on the code as it is and fails when its set grows or
shrinks.  A change that fixes a defect edits only that defect's entry,
toward empty, and says so in CHANGES.md; growth is a regression.  An entry
never loosens a check: it replaces "this test is red because of item N"
with an exact, passing statement of item N's extent.
"""

from collections import Counter, defaultdict

from srk import classify_og, enumerate_diagrams, enumerate_og


def _breaks_realizability(D) -> bool:
    """Whether D breaks r_{j+1} - r_j <= d_j - d_{j+1} between some pair of
    nested quadrics (ROADMAP item 2): restricting a quadratic form to a
    subspace of codimension c raises its corank by at most c."""
    ds, rs = D.ds, D.rs
    return any(rs[j + 1] - rs[j] > ds[j] - ds[j + 1] for j in range(len(ds) - 1))


def test_admissible_diagrams_that_break_realizability():
    # item 2: check_conditions admits these, though no quadric chain
    # realizes them; (k, m) -> count, for k <= 4, 2k <= m <= 11
    found = Counter()
    for k in range(1, 5):
        for m in range(2 * k, 12):
            for D in enumerate_diagrams(k, m):
                found[k, m] += _breaks_realizability(D)
    assert +found == {
        (2, 7): 1, (2, 8): 2, (2, 9): 6, (2, 10): 10, (2, 11): 20,
        (3, 7): 2, (3, 8): 6, (3, 9): 25, (3, 10): 53, (3, 11): 132,
        (4, 8): 3, (4, 9): 25, (4, 10): 78, (4, 11): 261,
    }
    assert sum(found.values()) == 624


# the start of each disputed verdict's note -> the family it belongs to
_FAMILIES = {
    "arithmetic test says not rigid": "half bracket",  # item 20
    "the consecutive-gap pattern": "consecutive gap",  # item 11
    "arithmetic test says rigid": "B on threshold",  # item 19
    "rests on a b-side verdict": "A on B threshold",  # item 19
    "at n = 2k+1": "n = 2k+1",
}


def _family(note: str) -> str:
    return next((f for start, f in _FAMILIES.items() if note.startswith(start)), note)


def test_disputed_verdicts_by_family():
    # family -> (k, n) -> disputed verdicts, over every index of k <= 6,
    # 2k <= n <= 14
    found = defaultdict(Counter)
    for k in range(1, 7):
        for n in range(2 * k, 15):
            for x in enumerate_og(k, n):
                rep = classify_og(x)
                for v in rep.a_verdicts + rep.b_verdicts:
                    if v.kind == "disputed":
                        found[_family(v.note)][k, n] += 1
    assert found == {
        "half bracket": {
            (2, 6): 2, (2, 8): 4, (2, 10): 6, (2, 12): 8, (2, 14): 10,
            (3, 8): 8, (3, 10): 24, (3, 12): 48, (3, 14): 80,
            (4, 10): 22, (4, 12): 90, (4, 14): 228,
            (5, 12): 52, (5, 14): 272, (6, 14): 114,
        },
        "consecutive gap": {
            (3, 8): 2, (3, 9): 1, (3, 10): 3, (3, 11): 2, (3, 12): 4, (3, 13): 3,
            (3, 14): 5, (4, 10): 8, (4, 11): 5, (4, 12): 19, (4, 13): 14,
            (4, 14): 34, (5, 12): 24, (5, 13): 17, (5, 14): 79, (6, 14): 64,
        },
        "B on threshold": {
            (2, 7): 1, (2, 9): 1, (2, 11): 1, (2, 13): 1, (3, 9): 7, (3, 11): 10,
            (3, 13): 13, (4, 11): 30, (4, 13): 56, (5, 13): 103,
        },
        "A on B threshold": {
            (2, 7): 1, (2, 9): 1, (2, 11): 1, (2, 13): 1, (3, 9): 6, (3, 11): 8,
            (3, 13): 10, (4, 11): 24, (4, 13): 40, (5, 13): 80,
        },
        "n = 2k+1": {(2, 5): 1, (3, 7): 2, (4, 9): 3, (5, 11): 4, (6, 13): 5},
    }
    totals = {family: sum(c.values()) for family, c in found.items()}
    assert totals == {
        "half bracket": 968,
        "consecutive gap": 284,
        "B on threshold": 223,
        "A on B threshold": 172,
        "n = 2k+1": 15,
    }
    assert sum(totals.values()) == 1662
