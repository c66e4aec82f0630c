"""The three benchmark workloads: their inputs, their ops and the checks on each op.

A workload is built from a freshly imported ``schauderlab`` package and a
seed.  It is a list of rounds; each round holds one op of every kind, in an
order drawn from the seed, and each round has its own inputs.  The runner
always executes whole cycles of rounds, so the op mix never depends on how
long a run lasts.

Every op calls the library through module attributes at call time
(``sl.geometry.unconditional_constant``), never through names bound at
import, so the tracer's wrappers see every call.

An op's check returns a list of problems (empty means passed).  The checks
test invariants that a faster or more accurate implementation keeps: method
tags, witness replays through ``vector_norm`` and ``nearest_in_span`` to 1e-8
relative, orderings between constants, and bounds that hold in every norm.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

REPLAY_RTOL = 1e-8
ROUNDS = 4

# Fixed before any run was made; the sampled-estimates catalogue is drawn
# from it (see _opening_catalogue).  1309 is the paper's arXiv number.
CATALOGUE_SEED = 1309

PWL_KNOTS = ((0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (2.0, 4.0))


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Bench:
    kinds: list[str]
    rounds: list[list[Op]]
    sizes: dict[str, dict]
    extra: dict = field(default_factory=dict)


def _rel_close(a: float, b: float, rtol: float = REPLAY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _round_order(rng: np.random.Generator, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# enumeration


def _norms(sl) -> dict[str, Any]:
    orl = sl.orlicz
    return {
        "exp:1": orl.NormSpec.orlicz(orl.OrliczFunction.scaled_exp(1.0)),
        "pwl": orl.NormSpec.orlicz(orl.OrliczFunction.piecewise_linear(PWL_KNOTS)),
        "power:3": orl.NormSpec.power(3.0),
    }


def _family(sl, norm, n: int, k: int, oblique: bool, transport_seed: int, epsilon: float = 0.05):
    space = sl.decomposition.ModelSpace(dim=n, norm=norm)
    coord = sl.decomposition.make_coordinate_family(space, [n // k] * k)
    if not oblique:
        return coord
    return sl.documents.perturbation_transport(coord, epsilon, transport_seed)


def _check_unconditional(sl, family, est, samples: int, coordinate: bool) -> list[str]:
    kernel = sl.kernel
    problems = []
    if coordinate:
        # Every ambient here is a lattice norm, so the constant of a
        # coordinate family is exactly 1; an exact shortcut may say so.
        allowed = {kernel.SAMPLED_LOWER_BOUND, kernel.EXACT_ENUMERATION, kernel.SPECTRAL_EXACT, "lattice-exact"}
        if est.method not in allowed:
            problems.append(f"coordinate family tagged {est.method!r}")
        if abs(est.value - 1.0) > 1e-9:
            problems.append(f"coordinate family constant {est.value!r} is not 1")
    else:
        if est.method != kernel.SAMPLED_LOWER_BOUND:
            problems.append(f"oblique family tagged {est.method!r}")
        if est.trials != samples:
            problems.append(f"trials {est.trials} != samples {samples}")
    if not est.value >= 1.0 - 1e-9:
        problems.append(f"constant {est.value!r} below 1 although all-ones is a pattern")
    w = est.witness
    if not (isinstance(w, dict) and "coefficients" in w and "x" in w):
        return problems + ["witness lacks coefficients and x"]
    norm = family.space.norm
    rows = np.stack([b @ w["x"] for b in family.blocks])
    replay = sl.vector_norm(np.asarray(w["coefficients"]) @ rows, norm) / sl.vector_norm(rows.sum(axis=0), norm)
    if not _rel_close(replay, est.value):
        problems.append(f"witness replays to {replay!r}, reported {est.value!r}")
    return problems


def _unconditional_op(sl, kind, family, modes, samples, seed, coordinate) -> Op:
    def run():
        return [sl.geometry.unconditional_constant(family, mode, samples, seed) for mode in modes]

    def check(results) -> list[str]:
        problems = []
        for mode, est in zip(modes, results):
            problems += [f"{mode}: {p}" for p in _check_unconditional(sl, family, est, samples, coordinate)]
        by_mode = dict(zip(modes, results))
        if "zero-one" in by_mode and "unit-disc-grid" in by_mode:
            # The grid patterns contain the zero-one patterns and the same
            # sampled vectors are used, so the grid value cannot be smaller.
            if by_mode["zero-one"].value > by_mode["unit-disc-grid"].value * (1.0 + 1e-12):
                problems.append("zero-one constant exceeds the grid constant")
        return problems

    return Op(kind, run, check)


def _check_sign_extreme(sl, vectors, norm, est, mode) -> list[str]:
    problems = []
    if est.method != sl.kernel.EXACT_ENUMERATION:
        problems.append(f"{mode} sign norm tagged {est.method!r}")
    signs = np.asarray(est.witness["signs"])
    if signs.shape != (len(vectors),) or not np.all(np.abs(signs) == 1.0):
        return problems + [f"{mode} witness is not a sign pattern"]
    replay = sl.vector_norm(signs @ np.stack(vectors), norm)
    if not _rel_close(replay, est.value):
        problems.append(f"{mode} witness replays to {replay!r}, reported {est.value!r}")
    return problems


def _check_average(sl, vectors, norm, value, label) -> list[str]:
    # x_j is the sign average of eps_j * sum(eps x), so by convexity the
    # average norm is at least max ||x_j||; the triangle inequality caps it.
    sizes = [sl.vector_norm(v, norm) for v in vectors]
    if not max(sizes) * (1.0 - 1e-9) <= value <= sum(sizes) * (1.0 + 1e-9):
        return [f"{label} {value!r} outside [max ||x_j||, sum ||x_j||]"]
    return []


def _sign_extremes_op(sl, kind, vectors, norm) -> Op:
    def run():
        return [sl.geometry.min_max_sign_norm(vectors, norm, mode) for mode in ("min", "max")]

    def check(results) -> list[str]:
        lo, hi = results
        problems = _check_sign_extreme(sl, vectors, norm, lo, "min") + _check_sign_extreme(sl, vectors, norm, hi, "max")
        if lo.value > hi.value * (1.0 + 1e-12):
            problems.append("min sign norm exceeds max sign norm")
        return problems + _check_average(sl, vectors, norm, hi.value, "max sign norm")

    return Op(kind, run, check)


def _quadratic_mean_op(sl, kind, vectors, norm) -> Op:
    def run():
        return sl.geometry.rademacher_average(vectors, norm, power=2)

    def check(value) -> list[str]:
        return _check_average(sl, vectors, norm, value, "quadratic sign mean")

    return Op(kind, run, check)


def _sign_battery_op(sl, kind, vector_sets, norm) -> Op:
    def run():
        return [
            (
                sl.geometry.rademacher_average(vectors, norm, power=1),
                sl.geometry.min_max_sign_norm(vectors, norm, "min"),
                sl.geometry.min_max_sign_norm(vectors, norm, "max"),
            )
            for vectors in vector_sets
        ]

    def check(results) -> list[str]:
        problems = []
        for i, (vectors, (mean, lo, hi)) in enumerate(zip(vector_sets, results)):
            problems += [f"set {i}: {p}" for p in _check_sign_extreme(sl, vectors, norm, lo, "min")]
            problems += [f"set {i}: {p}" for p in _check_sign_extreme(sl, vectors, norm, hi, "max")]
            problems += [f"set {i}: {p}" for p in _check_average(sl, vectors, norm, mean, "sign mean")]
            if not lo.value * (1.0 - 1e-12) <= mean <= hi.value * (1.0 + 1e-12):
                problems.append(f"set {i}: sign mean outside [min, max]")
        return problems

    return Op(kind, run, check)


def build_enumeration(sl, seed: int, workdir: Path) -> Bench:
    """Batch row solves and sign/coefficient enumeration.

    Families have K=12 blocks of size 2 (N=24).  In the three
    single-family kinds round 0 uses the coordinate family and rounds 1-3
    an oblique one; the power:3 kind evaluates one coordinate and three
    oblique families.  So 6 of every 24 families in a cycle (one quarter)
    are coordinate families.
    """
    rng = np.random.default_rng([seed, 1])
    norms = _norms(sl)
    n, k = 24, 12
    sign_len = 12

    def vectors(length: int, count: int = 14) -> list[np.ndarray]:
        return [rng.standard_normal(length) for _ in range(count)]

    single_family = (
        ("zero-one/exp", "exp:1", ("zero-one",), 4),
        ("signs/exp", "exp:1", ("signs",), 4),
        ("zero-one+grid/pwl", "pwl", ("zero-one", "unit-disc-grid"), 1),
    )
    p3_modes, p3_samples, p3_families, battery_sets = ("zero-one", "signs", "unit-disc-grid"), 8, 4, 5
    rounds = []
    for r in range(ROUNDS):
        coordinate = r == 0
        ops = []
        for kind, norm_name, modes, samples in single_family:
            fam = _family(sl, norms[norm_name], n, k, not coordinate, int(rng.integers(2**31)))
            ops.append(_unconditional_op(sl, kind, fam, modes, samples, int(rng.integers(2**31)), coordinate))
        p3_ops = []
        for j in range(p3_families):
            fam = _family(sl, norms["power:3"], n, k, j != 0, int(rng.integers(2**31)))
            p3_ops.append(_unconditional_op(sl, "", fam, p3_modes, p3_samples, int(rng.integers(2**31)), j == 0))
        ops.append(_bundle("all-modes/power:3", p3_ops))
        ops.append(_sign_extremes_op(sl, "min+max-signs/exp", vectors(sign_len), norms["exp:1"]))
        ops.append(_quadratic_mean_op(sl, "quadratic-mean/pwl", vectors(sign_len), norms["pwl"]))
        ops.append(_sign_battery_op(sl, "sign-battery/power:3", [vectors(n) for _ in range(battery_sets)], norms["power:3"]))
        rounds.append(_round_order(rng, ops))

    def patterns(modes) -> int:
        # 2^K per mode; for K > 5 the grid mode falls back to signs plus zero-one
        return sum(2 * 2**k if mode == "unit-disc-grid" else 2**k for mode in modes)

    sizes = {
        kind: {"N": n, "K": k, "modes": list(modes), "samples": samples, "families": 1,
               "patterns_per_op": samples * patterns(modes)}
        for kind, _, modes, samples in single_family
    }
    sizes["all-modes/power:3"] = {
        "N": n, "K": k, "modes": list(p3_modes), "samples": p3_samples, "families": p3_families,
        "patterns_per_op": p3_families * p3_samples * patterns(p3_modes),
    }
    sizes["min+max-signs/exp"] = {"n": 14, "N": sign_len, "modes": ["min", "max"], "sets": 1, "patterns_per_op": 2 * 2**14}
    sizes["quadratic-mean/pwl"] = {"n": 14, "N": sign_len, "modes": ["quadratic-mean"], "sets": 1, "patterns_per_op": 2**14}
    sizes["sign-battery/power:3"] = {
        "n": 14, "N": n, "modes": ["mean", "min", "max"], "sets": battery_sets, "patterns_per_op": battery_sets * 3 * 2**14,
    }
    return Bench(kinds=list(sizes), rounds=rounds, sizes=sizes, extra={"coordinate_family_share": 0.25})


def _bundle(kind: str, ops: list[Op]) -> Op:
    def run():
        return [op.run() for op in ops]

    def check(results) -> list[str]:
        problems = []
        for i, (op, res) in enumerate(zip(ops, results)):
            problems += [f"part {i}: {p}" for p in op.check(res)]
        return problems

    return Op(kind, run, check)


# ---------------------------------------------------------------------------
# sampled-estimates


def _opening_catalogue(ambient: int, per_n: int):
    """Line/3-span pairs, ``per_n`` for each of N = 8, 12, 16, drawn once from CATALOGUE_SEED.

    The cost of a line opening in l1 or l-inf is set mostly by the pair
    itself: every start on the line side is the same vector up to sign, and
    a signed permutation of the coordinates, an isometry of every norm used
    here, leaves the coordinate descent path unchanged.  Drawing fresh pairs
    per seed would make the work per seed vary several-fold.  So the seed
    picks a signed permutation and a sampling seed per opening, and the
    pairs stay fixed.
    """
    rng = np.random.default_rng([CATALOGUE_SEED, ambient])
    return [(n, rng.standard_normal((n, 1)), rng.standard_normal((n, 3))) for n in (8, 12, 16) for _ in range(per_n)]


def _signed_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    q = np.zeros((n, n))
    q[np.arange(n), rng.permutation(n)] = rng.choice((-1.0, 1.0), n)
    return q


def _check_opening(sl, rep, a, b, norm) -> list[str]:
    problems = []
    if rep.method != sl.kernel.SAMPLED_LOWER_BOUND:
        problems.append(f"opening tagged {rep.method!r}")
    if not (0.0 <= rep.theta <= 1.0 + 1e-9):
        problems.append(f"theta {rep.theta!r} outside [0, 1]")
    if rep.theta != max(rep.direction_ab, rep.direction_ba):
        problems.append("theta is not the larger directional gap")
    for label, gap, w, target in (("ab", rep.direction_ab, rep.witness_ab, b), ("ba", rep.direction_ba, rep.witness_ba, a)):
        x, nearest = np.asarray(w["x"]), np.asarray(w["nearest"])
        if not _rel_close(sl.vector_norm(x, norm), 1.0):
            problems.append(f"{label} witness is not a unit vector")
        replay = sl.vector_norm(x - nearest, norm)
        if not _rel_close(replay, gap):
            problems.append(f"{label} witness replays to {replay!r}, reported {gap!r}")
        q = target.orthonormal_basis
        if np.linalg.norm(nearest - q @ (q.T @ nearest)) > 1e-8 * (1.0 + np.linalg.norm(nearest)):
            problems.append(f"{label} nearest point is not in the target span")
    return problems


def _opening_op(sl, kind, norm, catalogue, samples, rng) -> Op:
    cases = []
    for n, a0, b0 in catalogue:
        q = _signed_permutation(rng, n)
        space = sl.decomposition.ModelSpace(dim=n, norm=norm)
        cases.append((sl.decomposition.Subspace(q @ a0, space), sl.decomposition.Subspace(q @ b0, space), int(rng.integers(2**31))))

    def run():
        return [sl.stability.opening(a, b, norm, samples=samples, seed=s) for a, b, s in cases]

    def check(reports) -> list[str]:
        problems = []
        for (a, b, _), rep in zip(cases, reports):
            problems += [f"N={a.space.dim}: {p}" for p in _check_opening(sl, rep, a, b, norm)]
        return problems

    return Op(kind, run, check)


def _reduced_modulus_op(sl, kind, cases) -> Op:
    """cases: (norm, n, kernel index set, samples, seed) for T = I - P_0."""
    prepared = []
    for norm, n, idx, samples, seed in cases:
        t = np.eye(n)
        t[idx, idx] = 0.0
        prepared.append((norm, t, np.eye(n)[:, idx], samples, seed))

    def run():
        return [sl.stability.reduced_minimum_modulus(t, norm, samples=s, seed=seed) for norm, t, _, s, seed in prepared]

    def check(results) -> list[str]:
        problems = []
        for (norm, t, ker, samples, _), est in zip(prepared, results):
            label = f"N={t.shape[0]}"
            if est.method != sl.kernel.SAMPLED_UPPER_BOUND:
                problems.append(f"{label}: tagged {est.method!r}")
            if abs(est.value - 1.0) > 1e-6:
                problems.append(f"{label}: gamma(I - P0) = {est.value!r}, expected 1")
            if est.trials != samples:
                problems.append(f"{label}: kept {est.trials} samples, asked for {samples}")
            x = np.asarray(est.witness)
            dist, _ = sl.stability.nearest_in_span(x, ker, norm)
            replay = sl.vector_norm(t @ x, norm) / dist
            if not _rel_close(replay, est.value):
                problems.append(f"{label}: witness replays to {replay!r}, reported {est.value!r}")
        return problems

    return Op(kind, run, check)


def _orlicz_stability_op(sl, kind, p_family, j_family, psi, samples, seed) -> Op:
    """P is a coordinate family and psi matches the ambient, so its aggregate bound C is 1."""

    def run():
        return sl.stability.orlicz_stability_check(p_family, j_family, psi, samples=samples, seed=seed)

    def check(rep) -> list[str]:
        kernel = sl.kernel
        problems = []
        if rep.hypothesis_met and not (rep.verdict == "similar" and rep.similarity_residual <= rep.residual_tolerance):
            problems.append(f"hypothesis met but verdict {rep.verdict!r}, residual {rep.similarity_residual!r}")
        if rep.rank_first_block[0] != rep.rank_first_block[1]:
            problems.append(f"first-block ranks differ: {rep.rank_first_block}")
        if not rep.sigma >= 0.0:
            problems.append(f"negative perturbation size {rep.sigma!r}")
        if abs(rep.c_hilbertian - 1.0) > 1e-9:
            problems.append(f"C = {rep.c_hilbertian!r} for a coordinate family with a matching aggregate")
        if not _rel_close(rep.threshold, 1.0 / rep.c_hilbertian, 1e-12):
            problems.append("threshold is not 1/C")
        for name, tag, want in (
            ("sigma", rep.sigma_method, kernel.SAMPLED_LOWER_BOUND),
            ("C", rep.c_method, kernel.SAMPLED_LOWER_BOUND),
            ("||R||", rep.r_norm_method, kernel.CERTIFIED_UPPER_BOUND),
        ):
            if tag != want:
                problems.append(f"{name} tagged {tag!r}, expected {want!r}")
        return problems

    return Op(kind, run, check)


def build_sampled_estimates(sl, seed: int, workdir: Path) -> Bench:
    """Scalar Luxemburg solves and coordinate-descent distances."""
    rng = np.random.default_rng([seed, 2])
    norms = _norms(sl)
    linf = sl.orlicz.NormSpec.max_norm()
    l1 = sl.orlicz.NormSpec.power(1.0)
    linf_pairs, l1_pairs = _opening_catalogue(0, 2), _opening_catalogue(1, 1)
    n_stab, k_stab = 12, 4
    rounds = []
    for _ in range(ROUNDS):
        ops = [
            _opening_op(sl, "opening/linf", linf, linf_pairs, 8, rng),
            _opening_op(sl, "opening/l1", l1, l1_pairs, 4, rng),
        ]
        cases = []
        for norm_name, n, samples in (("exp:1", 8, 3), ("power:3", 8, 3)):
            block = rng.choice(n, size=2, replace=False)
            cases.append((norms[norm_name], n, np.sort(block), samples, int(rng.integers(2**31))))
        ops.append(_reduced_modulus_op(sl, "reduced-modulus/exp+power:3", cases))
        p_family = _family(sl, norms["power:3"], n_stab, k_stab, False, 0)
        j_family = sl.documents.perturbation_transport(p_family, 0.05, int(rng.integers(2**31)))
        ops.append(
            _orlicz_stability_op(sl, "stability/power:3", p_family, j_family, norms["power:3"], 16, int(rng.integers(2**31)))
        )
        rounds.append(_round_order(rng, ops))
    sizes = {
        "opening/linf": {"N": [8, 12, 16], "r": [1, 3], "samples": 8, "openings": len(linf_pairs)},
        "opening/l1": {"N": [8, 12, 16], "r": [1, 3], "samples": 4, "openings": len(l1_pairs)},
        "reduced-modulus/exp+power:3": {"N": 8, "kernel_dim": 2, "samples": 3, "ambients": ["exp:1", "power:3"]},
        "stability/power:3": {"N": n_stab, "K": k_stab, "psi": "power:3", "samples": 16, "epsilon": 0.05},
    }
    return Bench(kinds=list(sizes), rounds=rounds, sizes=sizes, extra={"opening_catalogue_seed": CATALOGUE_SEED})


# ---------------------------------------------------------------------------
# cli-pipeline


def _read_json_output(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("generated_at", None)
    return doc


def _check_kato_like(sl, doc: dict, command: str) -> list[str]:
    problems = []
    if doc.get("command") != command:
        problems.append(f"envelope command {doc.get('command')!r}")
    rep = doc["result"]
    exact = sl.kernel.SPECTRAL_EXACT
    for key in ("sigma_method", "c_method", "r_norm_method"):
        if rep[key] != exact:
            problems.append(f"{key} is {rep[key]!r} in the euclidean ambient")
    if rep["hypothesis_met"] and not (rep["verdict"] == "similar" and rep["similarity_residual"] <= rep["residual_tolerance"]):
        problems.append(f"hypothesis met but verdict {rep['verdict']!r}")
    return problems


def _check_lambda(doc: dict) -> list[str]:
    rep = doc["result"]
    problems = []
    if rep["method"] != "exact":
        problems.append(f"euclidean threshold tagged {rep['method']!r}")
    want = 1.0 / (4.0 * rep["sup_partial_sum_norm"] * (1.0 + rep["sup_block_norm"]) ** 2)
    if not _rel_close(rep["value"], want, 1e-12):
        problems.append("threshold does not match its formula")
    return problems


def _check_validate(doc: dict, k: int, block_rank: int) -> list[str]:
    rep = doc["result"]
    problems = []
    if not rep["ok"]:
        problems.append("valid transported family reported invalid")
    for key in ("idempotency_defect", "cross_defect", "completeness_defect"):
        if not rep[key] <= rep["tolerance"]:
            problems.append(f"{key} {rep[key]!r} above tolerance")
    if rep["ranks"] != [block_rank] * k:
        problems.append(f"ranks {rep['ranks']}")
    return problems


def _check_sweep(path: Path, grid_points: int) -> list[str]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != grid_points:
        problems.append(f"{len(rows)} sweep rows for {grid_points} grid points")
    for row in rows:
        if row["error"]:
            problems.append(f"epsilon {row['epsilon']}: {row['error']}")
        elif row["hypothesis_met"] == "True" and row["verdict"] != "similar":
            problems.append(f"epsilon {row['epsilon']}: hypothesis met but verdict {row['verdict']!r}")
    return problems


def _cli_op(sl, kind: str, calls: list[tuple[list[str], Path, Callable[[Path], list[str]]]]) -> Op:
    """An op that runs CLI commands in sequence; each writes one output file."""

    def run():
        return [sl.cli.main(argv) for argv, _, _ in calls]

    def check(codes) -> list[str]:
        problems = []
        for (argv, out, check_out), code in zip(calls, codes):
            if code != 0:
                problems.append(f"{argv[0]} exited with {code}")
                continue
            problems += [f"{argv[0]}: {p}" for p in check_out(out)]
        return problems

    return Op(kind, run, check)


def build_cli_pipeline(sl, seed: int, workdir: Path) -> Bench:
    """In-process CLI calls on documents written here, with JSON output."""
    rng = np.random.default_rng([seed, 3])
    docs = sl.documents
    n, k, epsilon = 64, 16, 0.02
    transport_seed = int(rng.integers(2**31))
    euclid = sl.orlicz.NormSpec.power(2.0)
    p_doc = {"N": n, "norm": docs.norm_to_doc(euclid), "coordinate_blocks": [n // k] * k}
    p_family = docs.family_from_doc(p_doc)
    j_family = docs.perturbation_transport(p_family, epsilon, transport_seed)
    j_doc = docs.family_to_doc(j_family)
    psi = docs.norm_to_doc(euclid)
    files = {
        "scenario-small.json": {"P": p_doc, "J": {"transport_of_P": {"epsilon": epsilon, "seed": transport_seed}}, "psi": psi},
        "scenario-blocks.json": {"P": p_doc, "J": j_doc, "psi": psi},
        "family-blocks.json": j_doc,
    }
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in files.items():
        paths[name] = workdir / name
        paths[name].write_text(json.dumps(doc))
    small, blocks, family = (f"@{paths[name]}" for name in files)
    grid_points = 10

    def out(name: str) -> Path:
        return workdir / name

    def json_out(name: str) -> list[str]:
        return ["--format", "json", "--output", str(out(name))]

    def read(check_doc):
        return lambda path: check_doc(_read_json_output(path))

    kato = read(lambda d: _check_kato_like(sl, d, "kato"))
    similarity = read(lambda d: _check_kato_like(sl, d, "similarity"))
    ops = [
        _cli_op(sl, "kato+lambda/blocks", [
            (["kato", "--scenario", blocks] + json_out("kato-blocks.json"), out("kato-blocks.json"), kato),
            (["lambda", "--family", family] + json_out("lambda.json"), out("lambda.json"), read(_check_lambda)),
        ]),
        _cli_op(sl, "kato+similarity/small+blocks", [
            (["kato", "--scenario", small] + json_out("kato-small.json"), out("kato-small.json"), kato),
            (["similarity", "--scenario", small] + json_out("similarity-small.json"), out("similarity-small.json"), similarity),
            (["similarity", "--scenario", blocks] + json_out("similarity-blocks.json"), out("similarity-blocks.json"), similarity),
        ]),
        _cli_op(sl, "validate/blocks", [
            (["validate", "--family", family] + json_out("validate.json"), out("validate.json"),
             read(lambda d: _check_validate(d, k, n // k))),
        ]),
        _cli_op(sl, "sweep-epsilon/small", [
            (["sweep", "--parameter", "epsilon", "--grid", f"0.005:0.04:{grid_points}", "--scenario", small,
              "--output", str(out("sweep.csv"))], out("sweep.csv"), lambda path: _check_sweep(path, grid_points)),
        ]),
    ]
    rounds = [_round_order(rng, ops) for _ in range(ROUNDS)]
    doc_bytes = {name: p.stat().st_size for name, p in paths.items()}
    sizes = {
        "kato+lambda/blocks": {"N": n, "K": k, "commands": ["kato", "lambda"], "input_bytes": doc_bytes["scenario-blocks.json"] + doc_bytes["family-blocks.json"]},
        "kato+similarity/small+blocks": {"N": n, "K": k, "commands": ["kato", "similarity", "similarity"],
                                         "input_bytes": 2 * doc_bytes["scenario-small.json"] + doc_bytes["scenario-blocks.json"]},
        "validate/blocks": {"N": n, "K": k, "commands": ["validate"], "input_bytes": doc_bytes["family-blocks.json"]},
        "sweep-epsilon/small": {"N": n, "K": k, "commands": ["sweep"], "grid_points": grid_points, "input_bytes": doc_bytes["scenario-small.json"]},
    }
    return Bench(kinds=list(sizes), rounds=rounds, sizes=sizes, extra={"document_bytes": doc_bytes, "epsilon": epsilon})


WORKLOADS: dict[str, Callable[[Any, int, Path], Bench]] = {
    "enumeration": build_enumeration,
    "sampled-estimates": build_sampled_estimates,
    "cli-pipeline": build_cli_pipeline,
}
