"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance (all checks
are exact integer identities; two carry wall-clock budgets) and prints one
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import time

from srk import (
    Bracket,
    ClassSum,
    Quadric,
    QuadricDiagram,
    canonical_index,
    classify_og,
    enumerate_gr,
    enumerate_og,
    expand,
    find_nonrigid_witness,
    gr_dimension,
    gr_dual,
    gr_envelope,
    gr_essential,
    gr_rigid_index,
    merge_primes,
    og_dimension,
    og_essential,
    og_rigid_a,
    og_rigid_b,
    og_to_diagram,
    parse_diagram,
    print_diagram,
    pushforward,
    pushforward_diagram,
    validate_gr,
    validate_og,
)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _og(k, n, a, b, prime=False):
    return validate_og(k, n, a, b, prime)


def test_acceptance_01_cone_point_expansion():
    t0 = time.perf_counter()
    got = merge_primes(expand(parse_diagram("00]000}0")))
    elapsed = time.perf_counter() - t0
    want = ClassSum({_og(2, 6, [1], [1]): 1, _og(2, 6, [2, 3], []): 2})
    ok = got == want and elapsed < 1.0
    assert _report(1, "cone-point class expansion", ok), (str(got), elapsed)


def test_acceptance_02_point_line_flag_expansion():
    got = expand(QuadricDiagram(7, (Bracket(2), Bracket(3)), (Quadric(6, 0),)))
    ok = got == ClassSum.single(_og(3, 7, [1, 3], [1]))
    assert _report(2, "point-line flag expansion", ok), str(got)


def test_acceptance_03_small_ambient_family_expansion():
    ok = True
    for k in range(2, 7):
        brackets = tuple(Bracket(i) for i in list(range(1, k - 1)) + [k])
        D = QuadricDiagram(2 * k + 1, brackets, (Quadric(k + 2, k - 2),))
        want = ClassSum.single(_og(k, 2 * k + 1, range(1, k), [k - 1]))
        ok = ok and expand(D) == want
    assert _report(3, "small-ambient family expansion (k=2..6)", ok)


def test_acceptance_04_pushforward_of_near_full_isotropic_chains():
    checked, ok = 0, True
    for k in range(1, 5):
        for n in range(2 * k, 12):
            for b in range(k - 1, (n - 2) // 2 + 1):
                if 2 * b > n - 3:
                    # boundary where the chain rewrites to a primed bracket:
                    # the image is a single ordinary Schubert class
                    x = _og(k, n, range(1, k), [b])
                    want1 = ClassSum.single(
                        validate_gr(k, n, list(range(1, k)) + [n // 2])
                    )
                    ok = ok and pushforward(x) == want1
                    continue
                x = _og(k, n, range(1, k), [b])
                want = ClassSum.single(
                    validate_gr(k, n, list(range(1, k)) + [n - b - 1]), 2
                )
                ok = ok and pushforward(x) == want
                checked += 1
    ok = ok and checked >= 50
    assert _report(4, "pushforward of isotropic chains (2-sigma law)", ok)


def test_acceptance_05_pushforward_of_gapped_chains():
    checked, ok = 0, True
    for k in range(2, 5):
        for t in range(0, k - 1):
            for n in range(2 * k + 1, 12):
                a = list(range(1, t + 1)) + list(range(t + 2, k + 1))
                x = _og(k, n, a, [t])
                terms = {}
                for i in range(1, k - t + 1):
                    idx = validate_gr(
                        k,
                        n,
                        list(range(1, k - i + 1))
                        + list(range(k - i + 2, k + 1))
                        + [n - t - i],
                    )
                    terms[idx] = 2
                ok = ok and pushforward(x) == ClassSum(terms)
                checked += 1
    ok = ok and checked >= 20
    assert _report(5, "pushforward of gapped chains (2-sum law)", ok)


def test_acceptance_06_fundamental_class_pushforward():
    ok = True
    for k in range(1, 4):
        for n in range(2 * k + 2, 10):
            fund = _og(k, n, [], range(k))
            want = ClassSum.single(
                validate_gr(k, n, range(n - 2 * k + 1, n, 2)), 2 ** k
            )
            ok = ok and pushforward(fund) == want
    ok = ok and pushforward(_og(2, 6, [], [0, 1])) == ClassSum.single(
        validate_gr(2, 6, [3, 5]), 4
    )
    assert _report(6, "fundamental class pushforward (2^k law)", ok)


def test_acceptance_07_ordinary_rigidity_regression():
    x = validate_gr(3, 6, [1, 3, 5])
    rigid = {i for i in gr_essential(x) if gr_rigid_index(x, i).is_rigid}
    ok = rigid == {1, 3} and gr_envelope(x).a == (1, 4, 5)
    assert _report(7, "ordinary rigidity regression", ok)


def _all_admissible(k_max=3, n_max=8):
    from srk import enumerate_diagrams

    for k in range(1, k_max + 1):
        for n in range(2 * k, n_max + 1):
            yield from enumerate_diagrams(k, n)


def test_acceptance_08_dimension_homogeneity():
    t0 = time.perf_counter()
    count, ok = 0, True
    for D in _all_admissible():
        count += 1
        pf = pushforward_diagram(D)
        ok = ok and len({gr_dimension(t) for t, _ in pf}) <= 1
        ex = expand(D)
        ok = ok and len({og_dimension(t) for t, _ in ex}) <= 1
    elapsed = time.perf_counter() - t0
    ok = ok and count > 300 and elapsed < 300.0
    assert _report(8, f"dimension homogeneity over {count} diagrams", ok)


def test_acceptance_09_confluence_with_pushforward():
    count, ok = 0, True
    for D in _all_admissible():
        count += 1
        direct = pushforward_diagram(D)
        through = ClassSum()
        for term, coeff in expand(D):
            through = through + coeff * pushforward(term)
        ok = ok and direct == through
    assert _report(9, f"expansion/pushforward confluence over {count} diagrams", ok)


def test_acceptance_10_duality_properties():
    ok = True
    for n in range(2, 10):
        for k in range(1, min(4, n - 1) + 1):
            for x in enumerate_gr(k, n):
                d = gr_dual(x)
                ok = ok and gr_dual(d) == x
                lam = [x.n - x.k + i - x.a[i - 1] for i in range(1, x.k + 1)]
                for i in gr_essential(x):
                    ok = ok and (
                        gr_rigid_index(x, i).kind == gr_rigid_index(d, lam[i - 1]).kind
                    )
    assert _report(10, "duality involution and verdict invariance", ok)


def test_acceptance_11_rigid_class_method_agreement():
    ok = True
    for k in range(1, 4):
        for n in range(2 * k, 13):
            for x in enumerate_og(k, n):
                rep = classify_og(x)
                if not rep.method_agreement:
                    ok = ok and bool(rep.warnings)
    assert _report(11, "rigid-class method agreement", ok)


def test_acceptance_12_witness_soundness():
    missing, unsound = [], []
    for k in (1, 2):
        for n in range(2 * k + 2, 10):
            for x in enumerate_og(k, n):
                ess_a, ess_b = og_essential(x)
                for kind, positions, fn in (
                    ("a", ess_a, og_rigid_a),
                    ("b", ess_b, og_rigid_b),
                ):
                    for pos in sorted(positions):
                        if fn(x, pos).kind != "not_rigid":
                            continue
                        w = find_nonrigid_witness(x, (kind, pos))
                        if w is None:
                            missing.append(f"{x}@OG({k},{n}) {kind}_{pos}")
                        elif expand(w) != ClassSum.single(canonical_index(x)):
                            unsound.append(f"{x}@OG({k},{n}) {kind}_{pos}")
    none_case = find_nonrigid_witness(_og(2, 6, [1], [1]), ("a", 1)) is None
    ok = not missing and not unsound and none_case
    _report(12, "witness search completeness and soundness", ok)
    assert none_case and not unsound
    # Known defect: the consecutive-gap family sigma_{a,a+2} (clause MT-1 with
    # an empty between-count) is genuinely not rigid, but its deformations are
    # hyperplane sections rather than restriction varieties, so no diagram
    # witness exists; any expansion containing that class also contains its
    # prime twin or carries an even coefficient.
    assert not missing, f"no-witness not_rigid positions: {missing}"


def test_acceptance_13_enumeration_counts_and_roundtrip():
    og27 = list(enumerate_og(2, 7))
    og26 = list(enumerate_og(2, 6))
    ok = len(og27) == 48 // 4 and len(og26) == 24 // 2
    for x in og27 + og26:
        D = og_to_diagram(x)
        ok = ok and parse_diagram(print_diagram(D)) == D
    assert _report(13, "enumeration counts and parser round-trip", ok)
