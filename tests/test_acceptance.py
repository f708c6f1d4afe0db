"""End-to-end gates, one per headline guarantee of the package.

Each test runs a scenario big enough to be meaningful, prints a single
verdict line (collected into the terminal summary by conftest), and
enforces a wall-clock budget.  The numeric thresholds are fixed here
and must not be loosened to make a red gate pass: a failure means a
user-visible contract broke.

Slowest-last would be nice but the gates read better in dependency
order (evaluator, moments, regimes, cycles, extraction, construction,
routing, scale), so that is the order used.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import conftest
from conftest import open_graph, oracle_bfs, oracle_cycles_through

import cubeperc
from cubeperc.cycles import (
    cycle_count_bound,
    extract_simple_cycle,
    find_cycles_near,
    image_walk,
)
from cubeperc.embedding import (
    FailureReport,
    analytic_moments,
    build_good_map,
    mc_open_path_count,
)
from cubeperc.errors import DimensionTooSmall
from cubeperc.harness import SweepConfig, run_sweep
from cubeperc.hypercube import (
    CubeShape,
    NeighborRetraceSpec,
    geodesic_cycle,
    make_partition,
)
from cubeperc.metrics import (
    DistortionReport,
    VertexMap,
    _distances,
    bfs,
    brute_force_min_distortion,
    components,
    evaluate_distortion,
)
from cubeperc.percolation import CounterStream, PercModel, mix64, sample
from cubeperc.routing import FOUND, audit_locality, local_route


def _gate(idx: int, name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[gate {idx}/8] {name}: {verdict} ({detail}; {elapsed:.1f}s / {budget:.0f}s budget)"
    conftest.GATE_LINES.append(line)
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def test_exact_evaluator_matches_brute_force():
    """The exact evaluator, fed the scanner's optimal map, reproduces the
    scanner's numbers bit for bit."""
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for n in (2, 3):
        shape = CubeShape(n)
        for p in (0.3, 0.6):
            model = PercModel.bond(p)
            for seed in range(20):
                sm = sample(shape, model, seed)
                vmap, brep = brute_force_min_distortion(sm)
                erep = evaluate_distortion(sm, vmap, "exact")
                same = (
                    erep.d_plus == brep.d_plus
                    and erep.d_minus == brep.d_minus
                    and erep.distortion == brep.distortion
                )
                if not same:
                    mismatches.append((n, p, seed))
                checked += 1
    _gate(
        1,
        "exact evaluator vs brute-force scan",
        not mismatches,
        time.perf_counter() - t0,
        60.0,
        f"{checked} optima re-evaluated, {len(mismatches)} mismatches",
    )


def test_mc_path_counts_match_analytic_moments():
    """Monte Carlo open-path counts sit within 4 sigma of the exact mean,
    with sigma taken from the exact pairwise census, and the second-moment
    correction term stays O(1) after rescaling."""
    t0 = time.perf_counter()
    n, alpha, trials, base_seed = 16, 0.25, 10_000, 2
    p = float(n) ** -alpha
    shape = CubeShape(n)
    model = PercModel.bond(p)
    ok = True
    details = []
    correction = None
    for l in (1, 2):
        spec = NeighborRetraceSpec(shape, 0, 1, l)
        est = analytic_moments(spec, p)
        assert est.second_moment_exact is not None
        counts = mc_open_path_count(spec, model, trials, base_seed)
        assert len(counts) == trials
        mc_mean = float(counts.mean())
        variance = est.second_moment_exact - est.mean**2
        ok &= est.second_moment_exact >= est.mean**2
        sigma = math.sqrt(variance / trials)
        z = (mc_mean - est.mean) / sigma
        ok &= abs(mc_mean - est.mean) <= 4.0 * sigma
        details.append(f"l={l} z={z:+.2f}")
        if l == 1:
            ratio = est.second_moment_exact / est.mean**2
            correction = (ratio - 1.0) * n ** (1.0 - 2.0 * alpha)
            ok &= 0.2 <= correction <= 5.0
    _gate(
        2,
        "path-count moments, analytic vs Monte Carlo",
        ok,
        time.perf_counter() - t0,
        120.0,
        f"{'; '.join(details)}; l=1 correction {correction:.3f} in [0.2, 5]",
    )


def test_neighbor_distance_separates_regimes():
    """Adjacent-pair graph distance at n=20: dense regime wins the median,
    sparse regime wins the overflow fraction, per-seed in at least 9/10."""
    t0 = time.perf_counter()
    cfg = SweepConfig(
        kind="neighbor_dist",
        n_list=(20,),
        alpha_list=(0.25, 0.75),
        seed_count=10,
        pairs=1000,
        cutoff=9,
    )
    rows = [
        line.split(",")
        for line in run_sweep(cfg).splitlines()
        if line and not line.startswith("#")
    ]
    header = rows[0]
    col = {name: header.index(name) for name in ("alpha", "seed", "median_adj_dist", "overflow_frac")}
    stats = {
        (r[col["alpha"]], r[col["seed"]]): (
            float(r[col["median_adj_dist"]]),
            float(r[col["overflow_frac"]]),
        )
        for r in rows[1:]
    }
    assert len(stats) == 20
    seeds = [str(mix64(cfg.base_seed, j)) for j in range(10)]
    median_wins = sum(
        stats[("0.25", s)][0] < stats[("0.75", s)][0] for s in seeds
    )
    overflow_wins = sum(
        stats[("0.75", s)][1] > stats[("0.25", s)][1] for s in seeds
    )
    _gate(
        3,
        "neighbor-distance regime separation at n=20",
        median_wins >= 9 and overflow_wins >= 9,
        time.perf_counter() - t0,
        300.0,
        f"median wins {median_wins}/10, overflow wins {overflow_wins}/10",
    )


def test_cycle_census_exact_counts_and_bounds():
    """Square counts on the full cube are exactly C(n, 2); exhaustive
    censuses match an independent enumerator; every produced count stays
    under the orderings bound."""
    t0 = time.perf_counter()
    ok = True
    bound_checked = 0
    # squares through a fixed vertex when every edge is open
    for n in (3, 4, 5, 6):
        sm = sample(CubeShape(n), PercModel.bond(1.0), 0)
        res = find_cycles_near(sm, 0, 4, 0)
        ok &= res.count == math.comb(n, 2) and not res.partial
        ok &= res.count <= cycle_count_bound(n, 2)
        bound_checked += 1
    # full census against the networkx enumerator on small samples
    census_pairs = 0
    for n, p, seed in ((3, 1.0, 0), (3, 0.6, 1), (4, 1.0, 0), (4, 0.7, 1), (4, 0.5, 2)):
        sm = sample(CubeShape(n), PercModel.bond(p), seed)
        g = open_graph(sm)
        for v in range(sm.shape.vertex_count):
            if not sm.vertex_present(v):
                continue
            res = find_cycles_near(sm, v, 8, 0)
            got = {c.canonical() for c in res.cycles}
            ok &= not res.partial and got == oracle_cycles_through(g, v, 8)
            ok &= res.count == len(got)
            census_pairs += 1
            by_len: dict[int, int] = {}
            for c in res.cycles:
                by_len[len(c)] = by_len.get(len(c), 0) + 1
            for length, cnt in by_len.items():
                ok &= cnt <= cycle_count_bound(n, length // 2)
                bound_checked += 1
    _gate(
        4,
        "cycle census vs independent enumerator",
        ok,
        time.perf_counter() - t0,
        120.0,
        f"4 square counts, {census_pairs} censuses, {bound_checked} bound checks",
    )


def _random_isometry_with_swaps(rng: random.Random, n: int) -> np.ndarray:
    """Coordinate permutation composed with an XOR mask, then up to two
    swaps of adjacent vertices' images.  Swaps keep the map a bijection
    while pushing the distortion above 1."""
    perm = list(range(n))
    rng.shuffle(perm)
    mask = rng.randrange(1 << n)
    img = np.empty(1 << n, dtype=np.int64)
    for v in range(1 << n):
        w = 0
        for src, dst in enumerate(perm):
            if v >> src & 1:
                w |= 1 << dst
        img[v] = w ^ mask
    for _ in range(rng.randint(0, 2)):
        a = rng.randrange(1 << n)
        b = a ^ (1 << rng.randrange(n))
        img[[a, b]] = img[[b, a]]
    return img


def _true_distortion(img: np.ndarray, n: int) -> tuple[float, float, float]:
    verts = np.arange(1 << n, dtype=np.uint32)
    d_true = np.bitwise_count(verts[:, None] ^ verts[None, :])
    im = img.astype(np.uint32)
    d_img = np.bitwise_count(im[:, None] ^ im[None, :])
    off = d_true > 0
    d_plus = max(1.0, float((d_img[off] / d_true[off]).max()))
    d_minus = float((np.maximum(d_img[off], 1) / d_true[off]).min())
    return d_plus, d_minus, d_plus / d_minus


def test_extraction_respects_distortion_bounds():
    """500 randomized bijections of full cubes: loop removal on the image
    of a geodesic cycle always lands in the guaranteed window."""
    t0 = time.perf_counter()
    rng = random.Random(5)
    full = {
        n: sample(CubeShape(n), PercModel.bond(1.0), 0)
        for n in range(4, 9)
    }
    violations = 0
    removals_total = 0
    max_distortion = 0.0
    for _ in range(500):
        n = rng.randint(4, 8)
        k = rng.randint(4, n)
        length = 2 * k
        coords = rng.sample(range(n), k)
        v0 = rng.randrange(1 << n)
        cycle = geodesic_cycle(CubeShape(n), v0, coords)
        img = _random_isometry_with_swaps(rng, n)
        d_plus, _, distortion = _true_distortion(img, n)
        max_distortion = max(max_distortion, distortion)
        walk = image_walk(VertexMap(img), cycle, full[n])
        res = extract_simple_cycle(walk, distortion)
        removals_total += len(res.removals)
        good = (
            not res.degenerate
            and res.within_anchor_bound
            and length / (2.0 * distortion) <= len(res.cycle) <= d_plus * length
            and res.anchor_distance <= 2.0 * distortion * d_plus
            and all(r.anchors_removed <= 2.0 * distortion for r in res.removals)
        )
        if not good:
            violations += 1
    _gate(
        5,
        "cycle extraction inside distortion window",
        violations == 0,
        time.perf_counter() - t0,
        120.0,
        f"500 maps, {violations} violations, {removals_total} removals, "
        f"max distortion {max_distortion:.1f}",
    )


def test_good_map_failures_reported_and_large_n_builds():
    """At small n the good-vertex construction cannot work and must say so
    with a sorted failure report, never a broken map; in an easy regime at
    n=16 and n=20 it builds and the sampled distortion sits inside the
    guarantees.

    The 180 small-n failures follow from counting alone: a good vertex
    needs 2m witnesses among C(m, 2) pairs of A coordinates, and every
    partition at these n has C(m, 2) < 2m (see
    test_no_map_builds_within_the_exact_cap), so no sample can build.
    That part checks the failure report's shape."""
    t0 = time.perf_counter()
    ok = True
    failures = 0
    for n in (8, 9, 10):
        shape = CubeShape(n)
        for alpha in (0.05, 0.25):
            part = make_partition(shape, alpha)
            for seed in range(30):
                sm = sample(shape, PercModel.bond(n**-alpha), seed)
                built = build_good_map(sm, part)
                ok &= isinstance(built, FailureReport)
                if isinstance(built, FailureReport):
                    ok &= len(built) > 0
                    ok &= bool(np.all(np.diff(built.bad_vertices) > 0))
                    failures += 1
    # steeper decay: the coordinate partition itself is impossible here
    with pytest.raises(DimensionTooSmall):
        make_partition(CubeShape(10), 0.45)
    detail = f"{failures} small-n failures all reported"
    # near-full retention regime where the construction does land, at the
    # smallest cube where it can and at n = 20
    for n in (16, 20):
        shape = CubeShape(n)
        part = make_partition(shape, 0.01)
        sm = sample(shape, PercModel.bond(n**-0.01), 3)
        built = build_good_map(sm, part)
        built_ok = isinstance(built, VertexMap)
        ok &= built_ok
        if not built_ok:
            detail += f"; n={n} build FAILED"
            continue
        rep = evaluate_distortion(sm, built, "sampled", pair_count=4096, seed=11)
        ok &= rep.exactness == "sampled" and not rep.infinite
        ok &= rep.d_minus > 1.0 / 3.0
        ok &= rep.d_plus <= 2 * part.l + 13
        if n == 20:
            # the report of the evaluator that searched all 4096 contraction
            # pairs, in 64-pair multi-source BFS batches
            ok &= rep == DistortionReport(
                3.0, 1.0, 3.0, (725828, 725572), (89254, 534706), "sampled", 8192
            )
        detail += f"; n={n} build d-={rep.d_minus:.3f} d+={rep.d_plus:.1f}"
    _gate(6, "good-map construction honesty", ok, time.perf_counter() - t0, 180.0, detail)


def test_local_routing_optimal_and_regime_separated():
    """Every found route is a true shortest path and passes the locality
    audit; the dense regime needs fewer queries, per-seed."""
    t0 = time.perf_counter()
    n = 12
    shape = CubeShape(n)
    nv = shape.vertex_count
    ok = True
    medians = {0.25: [], 0.75: []}
    routes_total = 0
    for seed in range(10):
        for alpha in (0.25, 0.75):
            sm = sample(shape, PercModel.bond(float(n) ** -alpha), seed)
            gmask = components(sm).giant_mask()
            giant = np.nonzero(gmask)[0]
            stream = CounterStream(mix64(seed, 999))
            pairs = []
            while len(pairs) < 50:
                x = int(giant[stream.below(len(giant))])
                y = x ^ (1 << stream.below(n))
                if gmask[y]:
                    pairs.append((x, y))
            # one multi-source search from the cell's distinct starts
            starts = sorted({x for x, _ in pairs})
            dist_from = dict(zip(starts, _distances(sm, starts)))
            queries = []
            for x, y in pairs:
                tr = local_route(sm, x, y, nv, 10**9)
                ok &= tr.outcome == FOUND
                ok &= len(tr.path) - 1 == dist_from[x][y]
                if not queries:  # independent oracle and public bfs once per cell
                    ok &= oracle_bfs(sm, x)[y] == dist_from[x][y] == bfs(sm, x).distance(y)
                ok &= audit_locality(tr)
                ok &= tr.queries <= n * tr.explored
                queries.append(tr.queries)
                routes_total += 1
            medians[alpha].append(statistics.median(queries))
    paired_wins = sum(a < b for a, b in zip(medians[0.25], medians[0.75]))
    med25 = statistics.median(medians[0.25])
    med75 = statistics.median(medians[0.75])
    ok &= med25 < med75
    ok &= paired_wins >= 9
    _gate(
        7,
        "local routing optimal, audited, regime-separated",
        ok,
        time.perf_counter() - t0,
        120.0,
        f"{routes_total} routes, paired wins {paired_wins}/10, "
        f"median queries {med25:.0f} vs {med75:.0f}",
    )


def test_giant_component_scale_and_reproducibility():
    """A 16.7M-vertex sample labels its components inside tight time and
    memory ceilings, and sweeps are byte-identical run to run."""
    t0 = time.perf_counter()
    code = textwrap.dedent(
        """
        import resource, time
        from cubeperc.hypercube import CubeShape
        from cubeperc.metrics import components
        from cubeperc.percolation import PercModel, sample

        start = time.perf_counter()
        sm = sample(CubeShape(24), PercModel.bond(24 ** -0.75), 0)
        lab = components(sm)
        elapsed = time.perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(elapsed, peak_kib, lab.giant_size, len(lab.comp_ids))
        """
    )
    # the child labels the package this test imported, whatever the
    # inherited PYTHONPATH says
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(cubeperc.__file__)))
    path = os.pathsep.join(filter(None, (package_dir, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    elapsed_str, peak_str, giant_str, ncomp_str = proc.stdout.split()
    build_elapsed = float(elapsed_str)
    peak_bytes = int(peak_str) * 1024
    ok = build_elapsed < 60.0
    ok &= peak_bytes < 1 << 30
    # counter-based draws pin the labeling exactly
    ok &= int(giant_str) == 14_383_465
    ok &= int(ncomp_str) == 1_948_507

    cfg = SweepConfig(
        kind="route",
        n_list=(10,),
        alpha_list=(0.25, 0.75),
        seed_count=3,
        routes=20,
    )
    first = run_sweep(cfg)
    ok &= run_sweep(cfg) == first
    ok &= run_sweep(cfg, threads=2) == first
    _gate(
        8,
        "giant labeling at n=24 and sweep determinism",
        ok,
        time.perf_counter() - t0,
        150.0,
        f"build {build_elapsed:.1f}s, peak {peak_bytes / 2**30:.2f} GiB, "
        f"giant {giant_str}, reruns identical",
    )
