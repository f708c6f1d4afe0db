"""Experiment driver: parameter sweeps over (n, alpha, seed) cells, CSV
emission, and golden-file verification.

Every cell is deterministic: cell seed j is mix64(base_seed, j), and
auxiliary randomness (pair draws, route endpoints) uses streams derived
from the cell seed with distinct tags so they never replay the
percolation draws.  Rows are emitted in (n, alpha, seed index) order
regardless of worker scheduling, so a config always produces the same
bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import _RemoteTraceback
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .cycles import cycle_count_bound, find_cycles_near
from .embedding import analytic_moments, build_good_map, mc_open_path_count, neighbor_distance_stats
from .errors import ConfigError, CubePercError, MissingGolden
from .hypercube import HARD_DIMENSION_CAP, CubeShape, NeighborRetraceSpec, make_partition
from .metrics import EXACT_CAP_DEFAULT, VertexMap, bounded_distance, components, evaluate_distortion
from .percolation import CounterStream, PercModel, mix64, sample
from .routing import FOUND, audit_locality, local_route

KINDS = ("neighbor_dist", "distortion", "cycle_census", "route", "moments")

# stream tags so auxiliary draws never collide with percolation draws
_TAG_PAIRS = 1
_TAG_EVAL = 2
_TAG_ROUTE = 3

SCHEMA_VERSION = "v1"

KIND_COLUMNS = {
    "neighbor_dist": ["median_adj_dist", "frac_le_cutoff", "overflow_frac", "giant_frac"],
    "distortion": ["built", "bad_frac", "d_plus", "d_minus", "distortion", "exactness", "infinite"],
    "cycle_census": ["cycle_count", "partial", "expansions", "count_bound"],
    "route": ["routes", "found_frac", "median_queries", "max_queries", "audit_ok", "opt_match_frac"],
    "moments": ["analytic_mean", "mc_mean", "mc_trials", "z_score"],
}

# the SweepConfig fields each kind's cells read; the cell commands take
# exactly their kind's fields as flags and `sweep` takes all of them
KIND_FIELDS = {
    "neighbor_dist": ("pairs", "cutoff"),
    "distortion": ("eval_pairs",),
    "cycle_census": ("max_length", "radius", "budget"),
    "route": ("routes", "radius_budget", "query_budget"),
    "moments": ("l", "trials"),
}
_PER_KIND_FIELDS = {name for names in KIND_FIELDS.values() for name in names}

# absolute tolerances used by verify_goldens for columns that aggregate
# floating-point sums (guards against cross-platform summation drift);
# everything else must match byte for byte
TOLERANCES = {
    "neighbor_dist": {},
    "distortion": {"d_plus": 1e-9, "d_minus": 1e-9, "distortion": 1e-9},
    "cycle_census": {},
    "route": {},
    "moments": {"analytic_mean": 1e-9, "mc_mean": 1e-9, "z_score": 1e-6},
}


@dataclass
class SweepConfig:
    kind: str
    n_list: tuple[int, ...]
    alpha_list: tuple[float, ...] = (0.25,)
    base_seed: int = 0
    seed_count: int = 1
    model: str = "bond"
    pairs: int = 1000
    cutoff: int = 9
    eval_pairs: int = 2048
    max_length: int = 8
    radius: int = 0
    budget: Optional[int] = None
    routes: int = 100
    radius_budget: int = 0  # 0 means 2n per cell
    query_budget: int = 1_000_000
    l: int = 2
    trials: int = 10_000

    def __post_init__(self) -> None:
        self.n_list = tuple(int(n) for n in self.n_list)
        self.alpha_list = tuple(float(a) for a in self.alpha_list)
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        # a field another kind reads must keep its default, so that the
        # config line never records a setting the cells ignored
        unread = _PER_KIND_FIELDS - set(KIND_FIELDS[self.kind])
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ConfigError(f"{self.kind} sweeps do not read {f.name}")
        check_cell_ranges(self.n_list, self.alpha_list)
        if self.model not in ("bond", "site"):
            raise ConfigError(f"model must be bond or site, got {self.model!r}")
        if self.kind == "moments" and self.model == "site":
            # analytic_moments is the bond formula |family| * p^L; a site
            # path also needs its vertices present, so the MC mean differs
            raise ConfigError("moments sweeps support the bond model only")
        if self.seed_count < 0:
            raise ConfigError("seed_count must be nonnegative")
        for name in ("pairs", "eval_pairs", "max_length", "routes", "query_budget", "trials"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("cutoff", "radius", "radius_budget", "l"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.budget is not None and self.budget <= 0:
            raise ConfigError("budget must be positive when given")

    def cells(self) -> list[tuple[int, float, int]]:
        """(n, alpha, seed index) in lexicographic order."""
        return [
            (n, a, j)
            for n in sorted(self.n_list)
            for a in sorted(self.alpha_list)
            for j in range(self.seed_count)
        ]


def check_cell_ranges(n_list, alpha_list) -> None:
    """Raise ConfigError unless every n lies in [1, 30] and every alpha
    is nonnegative (nan is not)."""
    for n in n_list:
        if not 1 <= n <= HARD_DIMENSION_CAP:
            raise ConfigError(f"n must lie in [1, {HARD_DIMENSION_CAP}], got {n}")
    for a in alpha_list:
        if not a >= 0:
            raise ConfigError(f"alpha must be nonnegative, got {a}")


def cell_model(model: str, n: int, alpha: float) -> PercModel:
    """The bond or site model of a cell, p = n^-alpha."""
    p = float(n) ** -alpha
    if model == "bond":
        return PercModel.bond(p)
    return PercModel.site(p)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _row_neighbor_dist(config, shape, model, seed, alpha):
    sm = sample(shape, model, seed)
    labeling = components(sm)
    stats = neighbor_distance_stats(
        sm, config.pairs, config.cutoff, mix64(seed, _TAG_PAIRS),
        giant=labeling.giant_mask(),
    )
    return {
        "median_adj_dist": stats.median,
        "frac_le_cutoff": stats.frac_le_cutoff,
        "overflow_frac": stats.overflow / stats.pairs,
        "giant_frac": labeling.giant_size / shape.vertex_count,
    }


def _row_distortion(config, shape, model, seed, alpha):
    sm = sample(shape, model, seed)
    built = build_good_map(sm, make_partition(shape, alpha))
    if isinstance(built, VertexMap):
        mode = "exact" if shape.n <= EXACT_CAP_DEFAULT else "sampled"
        report = evaluate_distortion(
            sm, built, mode, pair_count=config.eval_pairs, seed=mix64(seed, _TAG_EVAL)
        )
        return {
            "built": 1,
            "bad_frac": 0.0,
            "d_plus": report.d_plus,
            "d_minus": report.d_minus,
            "distortion": report.distortion,
            "exactness": report.exactness,
            "infinite": report.infinite,
        }
    return {
        "built": 0,
        "bad_frac": len(built) / shape.vertex_count,
        "d_plus": None,
        "d_minus": None,
        "distortion": None,
        "exactness": None,
        "infinite": None,
    }


def _row_cycle_census(config, shape, model, seed, alpha):
    sm = sample(shape, model, seed)
    res = find_cycles_near(
        sm, 0, config.max_length, config.radius,
        budget=config.budget, count_only=True,
    )
    return {
        "cycle_count": res.count,
        "partial": res.partial,
        "expansions": res.expansions,
        "count_bound": cycle_count_bound(shape.n, max(1, config.max_length // 2)),
    }


def _row_route(config, shape, model, seed, alpha):
    sm = sample(shape, model, seed)
    stream = CounterStream(mix64(seed, _TAG_ROUTE))
    nv = shape.vertex_count
    radius_budget = config.radius_budget or 2 * shape.n
    queries = []
    found = 0
    audits_ok = True
    opt_matches = 0
    done = 0
    attempts = 0
    while done < config.routes:
        attempts += 1
        if attempts > 100 * config.routes:
            raise CubePercError("could not draw enough present route endpoints")
        x = stream.below(nv)
        y = stream.below(nv)
        if not (sm.vertex_present(x) and sm.vertex_present(y)):
            continue
        trace = local_route(sm, x, y, radius_budget, config.query_budget)
        queries.append(trace.queries)
        audits_ok = audits_ok and audit_locality(trace)
        want = bounded_distance(sm, x, y)
        if trace.outcome == FOUND:
            found += 1
            if want is not None and len(trace.path) - 1 == want:
                opt_matches += 1
        else:
            if want is None:
                opt_matches += 1
        done += 1
    queries.sort()
    return {
        "routes": config.routes,
        "found_frac": found / config.routes,
        "median_queries": queries[(len(queries) - 1) // 2],
        "max_queries": queries[-1],
        "audit_ok": audits_ok,
        "opt_match_frac": opt_matches / config.routes,
    }


def _row_moments(config, shape, model, seed, alpha):
    spec = NeighborRetraceSpec(shape, 0, 1, config.l)
    est = analytic_moments(spec, model.p_bond)
    counts = mc_open_path_count(spec, model, config.trials, base_seed=seed)
    mc_mean = float(counts.mean())
    if est.second_moment_exact is not None:
        var = est.second_moment_exact - est.mean**2
        stderr = math.sqrt(max(var, 0.0) / config.trials)
        z = (mc_mean - est.mean) / stderr if stderr > 0 else 0.0
    else:
        z = None
    return {
        "analytic_mean": est.mean,
        "mc_mean": mc_mean,
        "mc_trials": config.trials,
        "z_score": z,
    }


_ROW_FNS = {
    "neighbor_dist": _row_neighbor_dist,
    "distortion": _row_distortion,
    "cycle_census": _row_cycle_census,
    "route": _row_route,
    "moments": _row_moments,
}


def run_cell(config: SweepConfig, n: int, alpha: float, seed: int) -> dict:
    """The sweep row of cell (n, alpha) drawn with cell seed `seed`, keyed
    by CSV column in header order (values unformatted).

    A CubePercError raised by the experiment is an outcome of the cell
    and goes to the `error` column; any other exception is a bug and
    propagates, so it can never be written into a golden file.
    """
    shape = CubeShape(n)
    model = cell_model(config.model, n, alpha)
    p = model.p_bond if config.model == "bond" else model.p_site
    columns = KIND_COLUMNS[config.kind]
    try:
        values = _ROW_FNS[config.kind](config, shape, model, seed, alpha)
        error = ""
    except CubePercError as exc:
        values = dict.fromkeys(columns)
        error = f"{type(exc).__name__}: {exc}"
    return {"n": n, "alpha": alpha, "p": p, "seed": seed,
            **{col: values[col] for col in columns}, "error": error}


def _compute_cell(config: SweepConfig, cell: tuple[int, float, int]) -> dict:
    n, alpha, j = cell
    return run_cell(config, n, alpha, mix64(config.base_seed, j))


def _csv_header(config: SweepConfig) -> list[str]:
    return ["n", "alpha", "p", "seed", *KIND_COLUMNS[config.kind], "error"]


def run_sweep(config: SweepConfig, threads: int = 1) -> str:
    """Run every cell and return the CSV text (comment lines with the
    schema, the config, and the verification tolerances, then a header
    row, then one row per (n, alpha, seed))."""
    cells = config.cells()
    if threads > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_compute_cell, [config] * len(cells), cells))
    else:
        rows = [_compute_cell(config, cell) for cell in cells]

    buf = io.StringIO()
    buf.write(f"# schema: cubeperc/{config.kind}/{SCHEMA_VERSION}\n")
    buf.write(f"# config: {json.dumps(asdict(config), sort_keys=True)}\n")
    buf.write(f"# tolerance: {json.dumps(TOLERANCES[config.kind], sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    header = _csv_header(config)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in header])
    return buf.getvalue()


def config_from_csv(text: str) -> SweepConfig:
    for line in text.splitlines():
        if line.startswith("# config: "):
            payload = json.loads(line[len("# config: "):])
            payload["n_list"] = tuple(payload["n_list"])
            payload["alpha_list"] = tuple(payload["alpha_list"])
            return SweepConfig(**payload)
    raise ConfigError("no '# config:' comment line found")


@dataclass
class GoldenCheck:
    file: str
    ok: bool
    detail: str = ""


@dataclass
class GoldenReport:
    checks: list[GoldenCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = [
            f"{'PASS' if c.ok else 'FAIL'} {c.file}" + (f": {c.detail}" if c.detail else "")
            for c in self.checks
        ]
        lines.append(f"{sum(c.ok for c in self.checks)}/{len(self.checks)} golden files match")
        return "\n".join(lines)


def _compare_csv(golden: str, fresh: str, tolerances: dict[str, float]) -> str:
    """Empty string when they match; otherwise the first mismatch.

    Comment lines and the header must match exactly.  A data cell must
    match exactly or, in a column with a tolerance, lie within it.
    """
    glines, flines = golden.splitlines(), fresh.splitlines()
    header = None
    for k, (a, b) in enumerate(zip(glines, flines), start=1):
        if a.startswith("#") or header is None:
            if a != b:
                return f"line {k}: {a!r} != {b!r}"
            if not a.startswith("#"):
                header = next(csv.reader([a]))
            continue
        grow, frow = next(csv.reader([a])), next(csv.reader([b]))
        if len(grow) != len(frow):
            return f"line {k}: {a!r} != {b!r}"
        for col, g, f in zip(header, grow, frow):
            if g != f and not (col in tolerances and _within(g, f, tolerances[col])):
                return f"line {k} col {col}: {g!r} != {f!r}"
    if len(glines) != len(flines):
        return f"line count {len(glines)} != {len(flines)}"
    return ""


def _within(g: str, f: str, tol: float) -> bool:
    """Whether two cells are finite numbers at most tol apart; a nan, an
    inf or an empty cell on either side never is."""
    try:
        a, b = float(g), float(f)
    except ValueError:
        return False
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


def _raise_site(exc: Exception) -> str:
    """file:line of the innermost frame that raised exc.  An exception
    re-raised from a worker process keeps the worker's traceback only as
    text in its __cause__, so the site is read from that text."""
    if isinstance(exc.__cause__, _RemoteTraceback):
        filename, lineno = re.findall(r'File "(.+)", line (\d+)', exc.__cause__.tb)[-1]
    else:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        filename, lineno = frame.filename, frame.lineno
    return f"{os.path.basename(filename)}:{lineno}"


def verify_goldens(directory: str, threads: int = 1) -> GoldenReport:
    """Re-run the config embedded in every golden CSV under directory
    and compare, with the column tolerances of TOLERANCES."""
    if not os.path.isdir(directory):
        raise MissingGolden(f"golden directory {directory!r} does not exist")
    files = sorted(f for f in os.listdir(directory) if f.endswith(".csv"))
    if not files:
        raise MissingGolden(f"no golden CSVs in {directory!r}")
    report = GoldenReport()
    for name in files:
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as fh:
            golden = fh.read()
        try:
            config = config_from_csv(golden)
            fresh = run_sweep(config, threads=threads)
            detail = _compare_csv(golden, fresh, TOLERANCES[config.kind])
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc} ({_raise_site(exc)})"
        report.checks.append(GoldenCheck(name, detail == "", detail))
    return report
