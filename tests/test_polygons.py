"""Polygon canonical form, order structure, enumeration, duals, extremals."""

from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from frobstrat.polygons import (
    REFERENCE_POLYGONS,
    LatticePolygon,
    canonical_polygon,
    dominates,
    dual_polygon,
    enumerate_frobenius_polygons,
    integer_heights,
    is_canonical,
    make_polygon,
    reference_label,
    satisfies_gap_bound,
    satisfies_spread_bound,
    slope_gaps,
    slopes,
)
from frobstrat.errors import (
    BadStart,
    EndpointMismatch,
    FrobstratError,
    InvalidParameters,
    NotConvex,
)
from conftest import _run_capped
from oracles import (
    brute_enumerate_polygons,
    count_frobenius_polygons,
    fraction_dominates,
    fraction_gap_bound,
    fraction_is_canonical,
    fraction_spread_bound,
    fraction_walk_polygons,
    height,
    two_pass_lattice_polygon,
    two_pass_make_polygon,
    vertexwise_above,
)

P1 = REFERENCE_POLYGONS["P1"]
P2 = REFERENCE_POLYGONS["P2"]
P3 = REFERENCE_POLYGONS["P3"]
P4 = REFERENCE_POLYGONS["P4"]


def test_collinear_vertices_removed():
    assert make_polygon([(0, 0), (1, 0), (3, 0)]).vertices == ((0, 0), (3, 0))


def test_already_canonical_chain_kept():
    assert make_polygon([(0, 0), (1, 1), (3, 0)]) == P1


def test_nonconvex_chain_rejected():
    with pytest.raises(NotConvex):
        make_polygon([(0, 0), (1, 0), (2, 1)])
    # The constructor keeps no collinear vertex and no concave turn.
    for chain in ([(0, 0), (1, 1), (2, 2), (3, 0)], [(0, 0), (1, 0), (2, 1), (3, 0)]):
        with pytest.raises(NotConvex):
            LatticePolygon(chain)


def test_bad_start_rejected():
    with pytest.raises(BadStart):
        make_polygon([(1, 0), (2, 0)])
    with pytest.raises(BadStart):
        make_polygon([])


def test_single_vertex_rejected():
    with pytest.raises(InvalidParameters, match="at least two vertices"):
        LatticePolygon(((0, 0),))


def test_exact_int_pairs_are_kept_and_others_converted():
    """A tuple of two exact ints is kept, not copied; a bool, an int
    subclass or a list pair becomes an exact-int tuple; a float is refused."""

    class Int(int):
        pass

    kept = (1, 1)
    assert make_polygon([(0, 0), kept, (3, 0)]).vertices[1] is kept
    pg = make_polygon([(0, 0), [1, True], (Int(3), 0)])
    assert pg.vertices == ((0, 0), (1, 1), (3, 0))
    assert all(type(v) is tuple and type(v[0]) is type(v[1]) is int for v in pg.vertices)
    with pytest.raises(InvalidParameters):
        make_polygon([(0, 0), (1.0, 1), (3, 0)])


def test_nonincreasing_ranks_rejected():
    with pytest.raises(InvalidParameters):
        make_polygon([(0, 0), (2, 1), (2, 0)])


@pytest.mark.parametrize(
    "chain",
    [
        [(0, 0), (2, 0), (1, 0)],
        [(0, 0), (3, 3), (1, 1), (2, 0)],
        [(0, 0), (1, 1), (3, 3), (2, 2), (4, 0)],
    ],
)
def test_ranks_going_back_along_a_line_are_rejected(chain):
    """The raw chain's ranks must rise, not only those of the chain left
    once collinear points are dropped: each chain here goes back along a
    line, and dropping its collinear points would leave a valid polygon."""
    with pytest.raises(InvalidParameters, match="vertex ranks must strictly increase"):
        make_polygon(chain)


def _outcome(build, chain):
    """The vertices ``build`` returns for ``chain``, or its error's type and message."""
    try:
        got = build(chain)
    except (FrobstratError, ValueError) as exc:
        return type(exc), str(exc)
    return getattr(got, "vertices", got)


def _convex_chain(rng, collinear=False):
    """A chain from (0, 0) with strictly decreasing slopes; with
    ``collinear``, at least one segment is cut into equal-slope pieces."""
    segs = {}
    for _ in range(rng.randint(1, 5)):
        run, rise = rng.randint(1, 3), rng.randint(-6, 6)
        segs.setdefault(Fraction(rise, run), (run, rise))
    order = sorted(segs, reverse=True)
    cut = rng.randrange(len(order)) if collinear else None
    chain = [(0, 0)]
    for i, slope in enumerate(order):
        run, rise = segs[slope]
        pieces = rng.randint(2, 3) if i == cut or (collinear and rng.random() < 0.3) else 1
        for _ in range(pieces):
            x, y = chain[-1]
            chain.append((x + run, y + rise))
    return chain


def _backtracking_chain(rng):
    """A chain with one rank that does not rise: a repeated vertex, a
    vertex moved back along its segment, or two vertices swapped."""
    chain = _convex_chain(rng, collinear=rng.random() < 0.5)
    k = rng.randrange(1, len(chain))
    how = rng.randrange(3)
    if how == 0:
        chain.insert(k, chain[k])
    elif how == 1:
        (x0, y0), (x1, y1) = chain[k - 1], chain[k]
        chain.insert(k + 1, ((x0 + x1) // 2, y0 + (y1 - y0) * ((x1 - x0) // 2) // (x1 - x0)))
    elif len(chain) > 2:
        j = rng.choice([i for i in range(1, len(chain)) if i != k])
        chain[k], chain[j] = chain[j], chain[k]
    else:
        chain.append(chain[0])
    return chain


def _non_integral_chain(rng):
    """A chain with one entry a float or a Fraction, sometimes also with a
    bad start, or a valid chain given as lists, bools and int subclasses."""

    class Int(int):
        pass

    chain = [list(pt) for pt in _convex_chain(rng)]
    k, j = rng.randrange(len(chain)), rng.randrange(2)
    kind = rng.randrange(4)
    if kind == 0:
        chain[k][j] = float(chain[k][j])
    elif kind == 1:
        chain[k][j] = Fraction(chain[k][j]) + rng.choice((0, Fraction(1, 2)))
    elif kind == 2:
        chain[k][j] = Int(chain[k][j])
        chain[0][1] = True
    if rng.random() < 0.3:
        chain[0][0] += 1
    return [tuple(pt) if rng.random() < 0.5 else pt for pt in chain]


def _malformed_chain(rng):
    """A chain with one vertex of no, one or three entries and, sometimes,
    a float entry in another vertex, before or after it."""
    chain = _convex_chain(rng, collinear=rng.random() < 0.5)
    k, j = rng.randrange(len(chain)), rng.randrange(len(chain))
    chain[k] = rng.choice([(), chain[k][:1], chain[k] + (rng.randint(-2, 2),)])
    if j != k and rng.random() < 0.3:
        chain[j] = (float(chain[j][0]), chain[j][1])
    return chain


def _random_chain(rng):
    """Any short chain: unsorted ranks, any heights, often starting at (0, 0)."""
    chain = [(rng.randint(0, 4), rng.randint(-3, 3)) for _ in range(rng.randint(0, 5))]
    if chain and rng.random() < 0.7:
        chain[0] = (0, 0)
    return chain


def _shifted(chain, rng):
    dx, dy = rng.choice([(1, 0), (0, 1), (-1, 2)])
    return [(x + dx, y + dy) for x, y in chain]


def _shuffled(chain, rng):
    """The segments of ``chain`` in a random order, from (0, 0)."""
    segs = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(chain, chain[1:])]
    rng.shuffle(segs)
    out = [(0, 0)]
    for run, rise in segs:
        out.append((out[-1][0] + run, out[-1][1] + rise))
    return out


#: Each chain class of the construction diff, as a seeded chain generator.
CHAIN_CLASSES = {
    "valid": _convex_chain,
    "collinear runs": lambda rng: _convex_chain(rng, collinear=True),
    "non-convex": lambda rng: _shuffled(_convex_chain(rng, rng.random() < 0.5), rng),
    "bad start": lambda rng: _shifted(_convex_chain(rng, rng.random() < 0.5), rng),
    "one point": lambda rng: [rng.choice([(0, 0), (1, 0), (0, -2)])],
    "empty": lambda rng: rng.choice([[], ()]),
    "equal or backtracking ranks": _backtracking_chain,
    "float or Fraction pairs": _non_integral_chain,
    "pairs of the wrong length": _malformed_chain,
    "random": _random_chain,
}


@pytest.mark.parametrize("kind", CHAIN_CLASSES)
def test_construction_matches_the_two_pass_oracle(kind):
    """:func:`make_polygon` and :class:`LatticePolygon` give the vertices of
    the two-pass oracle, or its error type and message (so the precedence
    non-integral or malformed pair, empty, fewer than two, start, ranks,
    convexity holds), on a seeded sample of each chain class."""
    rng = random.Random(f"construction {kind}")
    for _ in range(300):
        chain = CHAIN_CLASSES[kind](rng)
        assert _outcome(make_polygon, chain) == _outcome(two_pass_make_polygon, chain), chain
        assert _outcome(LatticePolygon, chain) == _outcome(two_pass_lattice_polygon, chain), chain


#: The benchmark's five ladder rungs (p, g, r, d).
LADDER = ((3, 2, 3, 0), (5, 3, 5, 0), (7, 3, 6, 1), (5, 4, 6, 1), (11, 3, 7, 0))


@pytest.mark.parametrize("rung", LADDER, ids=lambda rung: ",".join(map(str, rung)))
def test_ladder_polygons_rebuild_as_the_two_pass_oracle_builds_them(rung):
    """Every enumerated polygon, rebuilt from its vertices (with a midpoint
    added on each segment that has one), is the oracle's polygon."""
    for pg in enumerate_frobenius_polygons(*rung):
        verts = list(pg.vertices)
        assert make_polygon(verts).vertices == two_pass_make_polygon(verts) == pg.vertices
        assert LatticePolygon(verts).vertices == two_pass_lattice_polygon(verts)
        padded = [verts[0]]
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if (x1 - x0) % 2 == 0 and (y1 - y0) % 2 == 0:
                padded.append(((x0 + x1) // 2, (y0 + y1) // 2))
            padded.append((x1, y1))
        assert make_polygon(padded).vertices == two_pass_make_polygon(padded) == pg.vertices
        assert _outcome(LatticePolygon, padded) == _outcome(two_pass_lattice_polygon, padded)


def test_slopes_examples():
    assert slopes(P1) == (Fraction(1), Fraction(-1, 2))
    assert slopes(P4) == (Fraction(2), Fraction(0), Fraction(-2))
    assert slopes(make_polygon([(0, 0), (3, 0)])) == (Fraction(0),)


def test_height_interpolates_exactly():
    assert height(P1, 2) == Fraction(1, 2)
    assert height(P2, 1) == Fraction(1, 2)
    assert height(P2, Fraction(3, 2)) == Fraction(3, 4)
    with pytest.raises(InvalidParameters):
        height(P1, 4)
    # A float or a string is refused, not converted: 0.1 is no exact abscissa.
    for x in (0.1, 1.5, 1.0, "1/2", "1"):
        with pytest.raises(InvalidParameters, match="an int or a Fraction"):
            height(P3, x)


def test_a_wide_polygon_walk_is_refused_at_its_budget(child_env):
    """A wide walk, whose pruned windows are empty at most of the 4,999
    ranks it tries, is refused at the work budget: each rank tried costs a
    step.  At (3, 1000, 5000, 0) the root costs 5,000 steps, and the chain
    to (1, 1) its 4,999 ranks and the 5,001 heights of the polygon it
    closes, so a budget of 10,000 is passed at exactly 15,000.  The walk
    and the message read the one name ``algebra.WORK_BUDGET``.  The walk
    runs in a child capped at 1 GiB, so one whose memory outgrows its
    steps fails here instead of taking the machine's memory."""
    code = """
import frobstrat.algebra as algebra
from frobstrat.errors import InvalidParameters
from frobstrat.polygons import enumerate_frobenius_polygons

algebra.WORK_BUDGET = 10_000
try:
    enumerate_frobenius_polygons(3, 1000, 5000, 0)
except InvalidParameters as err:
    print(err)
"""
    proc = _run_capped(child_env, "-c", code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "takes at least 15000 steps" in proc.stdout
    assert "work budget of 10000 steps" in proc.stdout


def test_a_deep_polygon_walk_is_refused_at_its_budget(child_env):
    """At (13, 2, 1000, 3) the walk builds polygons of 43 segments before a
    budget of 120,000 refuses it at exactly 120,468 steps.  It does so with
    only 25 interpreter frames to spare, where a walk recursing once per
    segment would raise ``RecursionError``.  Like the wide walk, it runs
    in a child capped at 1 GiB."""
    code = """
import sys
import frobstrat.algebra as algebra
import frobstrat.polygons as polygons
from frobstrat.errors import InvalidParameters

longest, make_polygon = 0, polygons.make_polygon

def make_and_measure(vertices):
    global longest
    longest = max(longest, len(vertices))
    return make_polygon(vertices)

def frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth

algebra.WORK_BUDGET = 120_000
polygons.make_polygon = make_and_measure
sys.setrecursionlimit(frame_depth() + 25)
try:
    polygons.enumerate_frobenius_polygons(13, 2, 1000, 3)
except InvalidParameters as err:
    print(err)
print(longest)
"""
    proc = _run_capped(child_env, "-c", code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    message, longest = proc.stdout.splitlines()
    assert "takes at least 120468 steps" in message
    assert longest == "44"


#: Exact steps and polygons of each ladder rung: (11, 3, 7, 0) visits
#: 6,963 chains, 35 of which lead to no polygon.
LADDER_STEPS = {
    (3, 2, 3, 0): (26, 4),
    (5, 3, 5, 0): (1871, 236),
    (7, 3, 6, 1): (10_316, 1153),
    (5, 4, 6, 1): (43_931, 5081),
    (11, 3, 7, 0): (57_408, 5766),
}


def test_the_walk_visits_the_chains_its_docstring_states(monkeypatch):
    """(11, 3, 7, 0) takes exactly 57,408 steps: r - x for each chain the
    walk visits at (x, y), and r + 1 for each of the 5,766 polygons kept.
    Every other ladder rung is pinned to its exact steps as well."""
    import frobstrat.algebra as algebra

    assert set(LADDER_STEPS) == set(LADDER)
    for rung, (steps, count) in LADDER_STEPS.items():
        monkeypatch.setattr(algebra, "WORK_BUDGET", steps - 1)
        with pytest.raises(InvalidParameters, match=f"at least {steps} steps"):
            enumerate_frobenius_polygons(*rung)
        monkeypatch.setattr(algebra, "WORK_BUDGET", steps)
        assert len(enumerate_frobenius_polygons(*rung)) == count


@pytest.mark.parametrize("rung", LADDER, ids=lambda rung: ",".join(map(str, rung)))
def test_the_walk_lists_as_many_polygons_as_the_memoised_count(rung):
    """The count memoises over (x, y, first slope, last slope) with none of
    the walk's windows, so it checks the larger rungs independently."""
    assert len(enumerate_frobenius_polygons(*rung)) == count_frobenius_polygons(*rung)


def test_the_memoised_count_is_refused_past_its_state_budget():
    with pytest.raises(ValueError, match=r"\(11, 3, 7, 0\) would memoise more than 1000 states"):
        count_frobenius_polygons(11, 3, 7, 0, max_states=1000)


@pytest.mark.parametrize(
    "rung", [*LADDER, (7, 2, 10, 1)], ids=lambda rung: ",".join(map(str, rung))
)
def test_the_walk_at_minus_d_is_the_dual_of_the_walk_at_d(rung):
    """Duals keep every slope drop and the spread and end at (r, -p*d), so
    the walk at -d lists exactly the duals of the walk at d.  Its windows
    prune other branches, so this checks the pruning without an oracle."""
    p, g, r, d = rung
    walk = enumerate_frobenius_polygons(p, g, r, d)
    dual_walk = enumerate_frobenius_polygons(p, g, r, -d)
    assert len(walk) == len(dual_walk)
    assert {dual_polygon(pg) for pg in walk} == set(dual_walk)


def test_the_walk_at_p13_rank8_is_self_dual(child_env):
    """The duality above at (13, 3, 8, 0), whose 29,426 polygons take the
    walk 322,410 steps; it runs in a child capped at 1 GiB."""
    code = """
from frobstrat.polygons import dual_polygon, enumerate_frobenius_polygons

walk = enumerate_frobenius_polygons(13, 3, 8, 0)
print(len(walk), {dual_polygon(pg) for pg in walk} == set(walk))
"""
    proc = _run_capped(child_env, "-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "29426 True\n"


def test_the_sort_keys_add_little_to_the_walks_memory(child_env):
    """At (5, 4, 6, 1) the call's ``tracemalloc`` peak exceeds the memory
    left allocated when it returns by at most 100 bytes per polygon (48.4):
    the sort key is one int per polygon.  A tuple of r + 1 scaled ints per
    polygon takes 257 bytes, and the tuple of ``integer_heights`` itself
    407.  It is measured in a fresh child, so no earlier test's caches or
    garbage move it."""
    code = """
import tracemalloc
from frobstrat.polygons import enumerate_frobenius_polygons

enumerate_frobenius_polygons(2, 2, 3, 0)  # import and first-call costs
tracemalloc.start()
result = enumerate_frobenius_polygons(5, 4, 6, 1)
current, peak = tracemalloc.get_traced_memory()
print(len(result), (peak - current) / len(result))
"""
    proc = _run_capped(child_env, "-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, per_polygon = proc.stdout.split()
    assert count == "5081" and float(per_polygon) <= 100, per_polygon


def test_a_walk_leaves_no_garbage_for_the_cycle_collector(monkeypatch):
    """A returned or refused walk leaves no reference cycle behind, so the
    list it builds and its polygons are freed as soon as the caller drops
    them, not at some later collection."""
    import frobstrat.algebra as algebra

    gc.collect()
    gc.disable()
    try:
        enumerate_frobenius_polygons(5, 4, 6, 1)
        assert gc.collect() == 0
        monkeypatch.setattr(algebra, "WORK_BUDGET", 10_000)
        with pytest.raises(InvalidParameters):
            enumerate_frobenius_polygons(5, 4, 6, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dominates_reference_relations():
    assert dominates(P4, P3)
    assert dominates(P3, P2)
    assert dominates(P3, P1)
    assert not dominates(P1, P2)
    assert not dominates(P2, P1)
    for pg in (P1, P2, P3, P4):
        assert dominates(pg, pg)


def test_dominates_requires_shared_endpoint():
    other = make_polygon([(0, 0), (2, 0)])
    with pytest.raises(EndpointMismatch):
        dominates(P1, other)


def test_vertexwise_relation_is_not_antisymmetric():
    # Both hold although the polygons differ, which is exactly why the
    # pointwise relation is the one used for ordering.
    assert vertexwise_above(P1, P2)
    assert vertexwise_above(P2, P1)
    assert P1 != P2


def test_dominates_is_partial_order_on_reference_set():
    polys = list(REFERENCE_POLYGONS.values())
    for a, b in itertools.product(polys, repeat=2):
        if dominates(a, b) and dominates(b, a):
            assert a == b
    for a, b, c in itertools.product(polys, repeat=3):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_enumerate_reference_configuration():
    ps = enumerate_frobenius_polygons(3, 2, 3, 0)
    assert set(ps) == set(REFERENCE_POLYGONS.values())
    assert len(ps) == 4
    assert P3 in ps
    assert make_polygon([(0, 0), (3, 0)]) not in ps  # one segment: semistable
    assert reference_label(make_polygon([(0, 0), (3, 0)])) is None
    # sorted ascending by height vectors at integer abscissae
    assert [reference_label(pg) for pg in ps] == ["P2", "P1", "P3", "P4"]
    ordered = [integer_heights(pg) for pg in ps]
    assert ordered == sorted(ordered)


def test_enumerate_rank_two():
    ps = enumerate_frobenius_polygons(2, 2, 2, 0)
    assert [pg.vertices for pg in ps] == [((0, 0), (1, 1), (2, 0))]


def test_enumerate_sheared_degree():
    base = enumerate_frobenius_polygons(3, 2, 3, 0)
    sheared = enumerate_frobenius_polygons(3, 2, 3, 3)
    assert len(sheared) == len(base)
    # tensoring by a degree-1 line bundle shears heights by 3 per unit rank
    expected = {
        tuple((x, y + 3 * x) for x, y in pg.vertices) for pg in base
    }
    assert {pg.vertices for pg in sheared} == expected
    assert all(pg.endpoint == (3, 9) for pg in sheared)


#: (p, g, r, d) the enumeration is diffed against the box-search oracle at.
#: (2, 2, 3, -2) has a first slope of 0, which a falsy test of it mishandles.
ORACLE_PARAMS = [
    (3, 2, 3, 0),
    (2, 2, 2, 0),
    (3, 2, 3, 3),
    (5, 2, 2, 0),
    (3, 3, 3, 0),
    (2, 3, 4, -1),
    (2, 2, 3, -2),
]
#: The first three ladder rungs of the benchmark and the oracle parameter sets.
ENUMERATED = [(5, 3, 5, 0), (7, 3, 6, 1)] + ORACLE_PARAMS


@pytest.mark.parametrize("params", ORACLE_PARAMS)
def test_enumerate_matches_box_search_oracle(params):
    p, g, r, d = params
    got = {pg.vertices for pg in enumerate_frobenius_polygons(p, g, r, d)}
    assert got == brute_enumerate_polygons(p, g, r, d)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("g", (2, 3, 4))
def test_enumerate_matches_the_fraction_walk(p, g):
    """Vertex tuples equal and in the same order at r = 2..5, d = -3..3:
    d < 0 and d prime to r make negative numerators, whose floor and
    ceiling differ, in the integer windows."""
    for r, d in itertools.product(range(2, 6), range(-3, 4)):
        got = [pg.vertices for pg in enumerate_frobenius_polygons(p, g, r, d)]
        assert got == fraction_walk_polygons(p, g, r, d), (p, g, r, d)


def test_enumerated_polygons_share_the_walks_vertex_pairs():
    """The polygons hold the walk's pairs, not copies: one endpoint object
    for the whole call, and one object per vertex a chain prefix shares."""
    polys = enumerate_frobenius_polygons(7, 3, 6, 1)
    assert len({id(pg.endpoint) for pg in polys}) == 1
    by_prefix = {}
    for pg in polys:
        for k in range(1, len(pg.vertices)):
            by_prefix.setdefault(pg.vertices[: k + 1], set()).add(id(pg.vertices[k]))
    assert all(len(ids) == 1 for ids in by_prefix.values())


#: The largest rank the walk admitted at each (p, g, d) before its windows
#: were pruned to chains that can still close, with the count it gave then.
TOP_RUNGS = {
    (2, 2, 11, 0): 621,
    (3, 2, 11, 1): 5523,
    (2, 3, 8, 0): 705,
    (3, 3, 8, 0): 6127,
    (5, 2, 10, 0): 11434,
    (7, 2, 10, 1): 14912,
}


@pytest.mark.parametrize("rung", TOP_RUNGS, ids=lambda rung: ",".join(map(str, rung)))
def test_the_pruned_walk_keeps_every_rung_and_its_order(rung):
    """Each rung still runs with its count, and the one-int sort keys order
    the polygons strictly by their Fraction height tuples."""
    polys = enumerate_frobenius_polygons(*rung)
    assert len(polys) == TOP_RUNGS[rung]
    heights = [integer_heights(pg) for pg in polys]
    assert all(a < b for a, b in zip(heights, heights[1:]))


#: Rungs with p*d < 0, the only ones where the lowest height bound
#: min(0, p*d) is not 0: the sort key's digits are the scaled heights
#: themselves, not shifted by it, so some of them are negative here.
NEGATIVE_RUNGS = ((3, 3, 6, -1), (5, 2, 5, -2), (7, 2, 6, -1))


@pytest.mark.parametrize("rung", NEGATIVE_RUNGS, ids=lambda rung: ",".join(map(str, rung)))
def test_the_walk_orders_rungs_of_negative_degree_strictly(rung):
    """Below the degree-0 chord the one-int sort keys still order the
    polygons strictly by their Fraction height tuples."""
    polys = enumerate_frobenius_polygons(*rung)
    heights = [integer_heights(pg) for pg in polys]
    assert min(min(h) for h in heights) < 0
    assert all(a < b for a, b in zip(heights, heights[1:]))


@pytest.mark.parametrize("params", ENUMERATED)
def test_enumerate_members_are_distinct_and_share_one_endpoint(params):
    """The oracle diff compares sets, so it would pass a polygon emitted
    twice; checked on the first three ladder rungs and the oracle sets."""
    p, g, r, d = params
    polys = enumerate_frobenius_polygons(*params)
    assert type(polys) is tuple
    assert len(set(polys)) == len(polys)
    assert {pg.endpoint for pg in polys} == {(r, p * d)}


@pytest.mark.parametrize("params", ENUMERATED)
def test_integer_heights_match_height(params):
    """The one-pass heights equal :func:`height` at every integer abscissa
    on every enumerated polygon (the benchmark's first three ladder rungs
    and the oracle parameter sets)."""
    for pg in enumerate_frobenius_polygons(*params):
        want = tuple(height(pg, x) for x in range(pg.rank + 1))
        got = integer_heights(pg)
        assert got == want
        assert all(type(h) is Fraction for h in got)


#: Extremal polygons of rank r*p with r >= 2 and d < 0: every segment
#: has run r, so every abscissa between two vertices takes the running
#: numerator of ``integer_heights``, in them and in their duals.
LONG_RUN_POLYGONS = [
    canonical_polygon(p, g, r, d)
    for p, g, r, d in itertools.product((2, 3, 5, 7), (2, 3), (2, 3, 5), (-1, -4))
]


def test_integer_heights_match_height_along_long_runs():
    """On polygons whose every segment is longer than one rank, the
    one-pass heights equal :func:`height` at every integer abscissa and
    are Fractions, some of them not integers."""
    proper = 0
    for pg in LONG_RUN_POLYGONS + [dual_polygon(pg) for pg in LONG_RUN_POLYGONS]:
        verts = pg.vertices
        assert all(x1 - x0 >= 2 for (x0, _), (x1, _) in zip(verts, verts[1:]))
        got = integer_heights(pg)
        assert got == tuple(height(pg, x) for x in range(pg.rank + 1))
        assert all(type(h) is Fraction for h in got)
        proper += sum(h.denominator > 1 for h in got)
    assert proper > 0


#: Ladder rungs whose polygons the integer predicates are diffed on.
DIFF_RUNGS = ((3, 2, 3, 0), (5, 3, 5, 0), (7, 3, 6, 1))
#: Extremal polygons at p = 3, 5, 7 for the same diffs.
CANONICAL_POLYGONS = [
    canonical_polygon(p, g, r, d)
    for p in (3, 5, 7)
    for g in (2, 3)
    for r in (1, 2, 3)
    for d in (0, 1)
]


@pytest.mark.parametrize("rung", DIFF_RUNGS, ids=lambda rung: ",".join(map(str, rung)))
def test_dominates_matches_fraction_heights(rung):
    """Every pair of the rung's polygons; at (7,3,6,1), whose 1153 polygons
    make 1.3 million pairs (about 11 s of library calls), every polygon
    against every 16th."""
    polys = list(enumerate_frobenius_polygons(*rung))
    heights = {pg: tuple(height(pg, x) for x in range(pg.rank + 1)) for pg in polys}
    seen = set()
    for a in polys:
        for b in polys if len(polys) < 1000 else polys[::16]:
            want = all(x >= y for x, y in zip(heights[a], heights[b]))
            assert dominates(a, b) == want
            seen.add(want)
    assert seen == {True, False}


def test_dominates_matches_fraction_dominates_on_extremal_polygons():
    polys = [*REFERENCE_POLYGONS.values(), *CANONICAL_POLYGONS]
    pairs = [(a, b) for a in polys for b in polys if a.endpoint == b.endpoint]
    assert {fraction_dominates(a, b) for a, b in pairs} == {True, False}
    for a, b in pairs:
        assert dominates(a, b) == fraction_dominates(a, b)


def test_slope_bounds_match_fraction_slopes():
    """The gap, spread and canonical tests against Fraction slopes on every
    polygon of the diff rungs and every reference and extremal polygon, at
    p = 3, 5, 7 and g = 2, 3, 4."""
    polys = [pg for rung in DIFF_RUNGS for pg in enumerate_frobenius_polygons(*rung)]
    polys += [*REFERENCE_POLYGONS.values(), *CANONICAL_POLYGONS]
    seen = {"gap": set(), "spread": set(), "canonical": set()}
    for pg in polys:
        for g in (2, 3, 4):
            want = fraction_gap_bound(pg, g)
            assert satisfies_gap_bound(pg, g) == want
            seen["gap"].add(want)
            for p in (3, 5, 7):
                want = fraction_spread_bound(pg, p, g)
                assert satisfies_spread_bound(pg, p, g) == want
                seen["spread"].add(want)
                want = fraction_is_canonical(pg, p, g)
                assert is_canonical(pg, p, g) == want
                seen["canonical"].add(want)
    assert all(outcomes == {True, False} for outcomes in seen.values())


@pytest.mark.parametrize("predicate", [satisfies_spread_bound, is_canonical])
def test_spread_predicates_refuse_a_composite_p(predicate):
    with pytest.raises(InvalidParameters, match="prime integer, got 4"):
        predicate(P4, 4, 2)


def test_enumerate_members_satisfy_admissibility():
    for p, g, r, d in [(3, 2, 3, 0), (5, 2, 3, 1), (3, 3, 4, 0)]:
        chord = Fraction(p * d, r)
        for pg in enumerate_frobenius_polygons(p, g, r, d):
            assert satisfies_gap_bound(pg, g)
            assert satisfies_spread_bound(pg, p, g)
            assert len(pg.vertices) >= 3
            assert any(
                height(pg, x) > chord * x for x in range(1, pg.rank)
            )
            assert make_polygon(pg.vertices) == pg


def test_enumerate_parameter_validation():
    with pytest.raises(InvalidParameters):
        enumerate_frobenius_polygons(4, 2, 3, 0)
    with pytest.raises(InvalidParameters):
        enumerate_frobenius_polygons(3, 1, 3, 0)
    with pytest.raises(InvalidParameters):
        enumerate_frobenius_polygons(3, 2, 1, 0)


def test_dual_reference_relations():
    assert dual_polygon(P1) == P2
    assert dual_polygon(P2) == P1
    assert dual_polygon(P3) == P3
    flat = make_polygon([(0, 0), (3, 0)])
    assert dual_polygon(flat) == flat


@st.composite
def lattice_polygons(draw):
    nseg = draw(st.integers(min_value=1, max_value=3))
    ranks = [draw(st.integers(min_value=1, max_value=3)) for _ in range(nseg)]
    prev = None
    x = y = 0
    verts = [(0, 0)]
    for rk in ranks:
        dy = draw(st.integers(min_value=-8, max_value=8))
        s = Fraction(dy, rk)
        assume(prev is None or s < prev)
        prev = s
        x += rk
        y += dy
        verts.append((x, y))
    return make_polygon(verts)


@given(pg=lattice_polygons())
def test_dual_is_involution(pg):
    r, deg = pg.endpoint
    dual = dual_polygon(pg)
    assert dual.endpoint == (r, -deg)
    assert dual_polygon(dual) == pg


def test_canonical_polygon_reference_case():
    assert canonical_polygon(3, 2, 1, 0) == P4


def test_canonical_polygon_derived_cases():
    assert canonical_polygon(2, 2, 1, 0).vertices == ((0, 0), (1, 1), (2, 0))
    assert canonical_polygon(3, 2, 2, 0).vertices == (
        (0, 0),
        (2, 4),
        (4, 4),
        (6, 0),
    )


def test_canonical_polygon_validation():
    with pytest.raises(InvalidParameters):
        canonical_polygon(6, 2, 1, 0)
    with pytest.raises(InvalidParameters):
        canonical_polygon(3, 1, 1, 0)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
@pytest.mark.parametrize("g", (2, 3, 4))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_canonical_polygon_slope_gaps(p, g, r):
    for d in (-2, -1, 0, 2, 3):
        pg = canonical_polygon(p, g, r, d)
        assert pg.endpoint == (r * p, p * d)
        assert all(gap == 2 * g - 2 for gap in slope_gaps(pg))
        assert is_canonical(pg, p, g)
        assert pg.vertices == tuple(
            (i * r, d * i + r * i * (p - i) * (g - 1)) for i in range(p + 1)
        )


def test_is_canonical_examples():
    assert is_canonical(P4, 3, 2)
    assert not is_canonical(P3, 3, 2)
    assert not is_canonical(make_polygon([(0, 0), (3, 0)]), 3, 2)
