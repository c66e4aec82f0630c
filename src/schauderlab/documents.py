"""JSON document schemas and serialisation helpers.

Gauges, norms, families and stability scenarios travel as small JSON
documents.  This module is the single place that parses and emits them,
and it reads every other CLI input too, all under one input-error rule.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decomposition import ModelSpace, ProjectionFamily, Subspace, _check_pair, make_coordinate_family, transport_family
from .errors import DocumentError
from .orlicz import NormSpec, OrliczFunction


@contextmanager
def _reading(what: str):
    """The input-error rule: a DocumentError passes through, and a KeyError,
    TypeError or ValueError becomes a DocumentError naming ``what``."""
    try:
        yield
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError(f"{what} is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad {what}: {exc}") from exc


def _integer(value, what: str) -> int:
    """An integer field: an int, or a float with no fractional part (so
    4.0 reads as 4); a bool, a string or a fraction is a bad value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# Gauge documents: {"kind": "power"|"exp"|"pwl", "p"?, "alpha"?, "knots"?}


def phi_from_doc(doc: dict) -> OrliczFunction:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError("gauge document needs a 'kind' field")
    kind = doc["kind"]
    with _reading("gauge document"):
        if kind == "power":
            return OrliczFunction.power(float(doc["p"]))
        if kind == "exp":
            return OrliczFunction.scaled_exp(float(doc["alpha"]))
        if kind == "pwl":
            return OrliczFunction.piecewise_linear(doc["knots"])
    raise DocumentError(f"unknown gauge kind {kind!r}")


def phi_to_doc(phi: OrliczFunction) -> dict:
    if phi.kind == "power":
        return {"kind": "power", "p": phi.p}
    if phi.kind == "exp":
        return {"kind": "exp", "alpha": phi.alpha}
    return {"kind": "pwl", "knots": [list(k) for k in phi.knots]}


# ---------------------------------------------------------------------------
# Norm documents: {"variant": "power"|"orlicz"|"max", "p"?, "phi"?}


def norm_from_doc(doc: dict) -> NormSpec:
    if not isinstance(doc, dict) or "variant" not in doc:
        raise DocumentError("norm document needs a 'variant' field")
    variant = doc["variant"]
    with _reading("norm document"):
        if variant == "power":
            return NormSpec.power(float(doc["p"]))
        if variant == "orlicz":
            return NormSpec.orlicz(phi_from_doc(doc["phi"]))
        if variant == "max":
            return NormSpec.max_norm()
    raise DocumentError(f"unknown norm variant {variant!r}")


def norm_to_doc(spec: NormSpec) -> dict:
    if spec.variant == "power":
        return {"variant": "power", "p": spec.p}
    if spec.variant == "orlicz":
        return {"variant": "orlicz", "phi": phi_to_doc(spec.phi)}
    return {"variant": "max"}


# ---------------------------------------------------------------------------
# Compact CLI spellings ("power:2", "max", "orlicz:exp:1", "@file.json",
# "3,4,12", "0:1:5"); the messages quote the text as typed


def load_doc(spec: str) -> dict:
    """A JSON document given inline or, after a leading "@", as a file path."""
    try:
        return json.loads(Path(spec[1:]).read_text() if spec.startswith("@") else spec)
    except (OSError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot parse document {spec!r}: {exc}") from exc


def parse_phi_spec(text: str) -> OrliczFunction:
    """power:P | exp:ALPHA | pwl:t,v;t,v;... | @file.json"""
    if text.startswith("@"):
        return phi_from_doc(load_doc(text))
    kind, _, rest = text.partition(":")
    with _reading(f"gauge spec {text!r}"):
        if kind == "power":
            return OrliczFunction.power(float(rest))
        if kind == "exp":
            return OrliczFunction.scaled_exp(float(rest))
        if kind == "pwl":
            knots = [tuple(float(c) for c in pair.split(",")) for pair in rest.split(";")]
            return OrliczFunction.piecewise_linear(knots)
    raise DocumentError(f"unknown gauge spec {text!r}")


def parse_norm_spec(text: str) -> NormSpec:
    """power:P | max | orlicz:<gauge spec> | @file.json"""
    if text.startswith("@"):
        return norm_from_doc(load_doc(text))
    if text == "max":
        return NormSpec.max_norm()
    head, _, rest = text.partition(":")
    with _reading(f"norm spec {text!r}"):
        if head == "power":
            return NormSpec.power(float(rest))
        if head == "orlicz":
            return NormSpec.orlicz(parse_phi_spec(rest))
    raise DocumentError(f"unknown norm spec {text!r}")


def parse_vector(text: str) -> np.ndarray:
    """Comma-separated entries; empty entries are skipped."""
    with _reading(f"vector {text!r}"):
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])


def parse_grid(text: str) -> list[float]:
    """start:stop:count (evenly spaced, ends included) or a comma list."""
    if ":" not in text:
        return parse_vector(text).tolist()
    parts = text.split(":")
    if len(parts) != 3:
        raise DocumentError(f"grid {text!r} must be start:stop:count or a comma list")
    with _reading(f"grid {text!r}"):
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise DocumentError("grid count must be >= 1")
    return np.linspace(start, stop, count).tolist()


# ---------------------------------------------------------------------------
# Family documents


def family_from_doc(doc: dict) -> ProjectionFamily:
    """{"N": n, "norm": {...}, "scalars"?: "real"|"complex",
        "blocks": [flat row-major lists]} or {"coordinate_blocks": [sizes]}.

    A complex block is {"real": [...], "imag": [...]}, each part a flat
    row-major list, the form family_to_doc writes for complex families.
    """
    if not isinstance(doc, dict):
        raise DocumentError("family document must be an object")
    with _reading("family document"):
        n = _integer(doc["N"], "N")
        space = ModelSpace(dim=n, norm=norm_from_doc(doc["norm"]), scalars=doc.get("scalars", "real"))
    if "coordinate_blocks" in doc:
        with _reading("coordinate blocks"):
            return make_coordinate_family(space, [_integer(s, "a block size") for s in doc["coordinate_blocks"]])
    if "blocks" not in doc:
        raise DocumentError("family document needs 'blocks' or 'coordinate_blocks'")
    if not isinstance(doc["blocks"], list):
        raise DocumentError(f"'blocks' must be a list of blocks, got {type(doc['blocks']).__name__}")
    blocks = []
    for i, flat in enumerate(doc["blocks"]):
        with _reading(f"block {i}"):
            if isinstance(flat, dict):
                arr = np.asarray(flat["real"], dtype=float).astype(complex)
                arr.imag = np.asarray(flat["imag"], dtype=float)
            else:
                arr = np.asarray(flat, dtype=float)
        if arr.shape not in ((n, n), (n * n,)):
            raise DocumentError(f"block {i} has {arr.size} entries, expected {n * n}")
        blocks.append(arr.reshape(n, n))
    with _reading("family blocks"):
        return ProjectionFamily(blocks, space)


def family_to_doc(family: ProjectionFamily) -> dict:
    flat = family.blocks.reshape(family.block_count, -1)
    if family.space.scalars == "complex":
        blocks = [{"real": re, "imag": im} for re, im in zip(flat.real.tolist(), flat.imag.tolist())]
    else:
        blocks = flat.tolist()
    return {
        "N": family.dim,
        "norm": norm_to_doc(family.space.norm),
        "scalars": family.space.scalars,
        "blocks": blocks,
    }


# ---------------------------------------------------------------------------
# Stability scenarios


@dataclass(frozen=True)
class StabilityScenario:
    p_family: ProjectionFamily
    j_family: ProjectionFamily
    psi: NormSpec
    sup_bound: float | None


def _epsilon(value) -> float:
    epsilon = float(value)
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    return epsilon


def perturbation_transport(family: ProjectionFamily, epsilon: float, seed: int) -> ProjectionFamily:
    """Transport by I + epsilon * T, T a seeded standard normal draw, for a finite epsilon."""
    epsilon = _epsilon(epsilon)
    n = family.dim
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n))
    s = np.eye(n) + epsilon * t
    return transport_family(s, family)


def scenario_from_doc(doc: dict, *, epsilon_override: float | None = None) -> StabilityScenario:
    """{"P": family, "J": family | {"transport_of_P": {"epsilon": e, "seed": s}},
        "psi": norm, "C"?: number}.  A non-finite ``epsilon_override`` raises
    perturbation_transport's ValueError, which a sweep records in its row."""
    if not isinstance(doc, dict):
        raise DocumentError("scenario document must be an object")
    with _reading("scenario document"):
        p_family = family_from_doc(doc["P"])
        j_doc = doc["J"]
        psi = norm_from_doc(doc["psi"])
    if isinstance(j_doc, dict) and "transport_of_P" in j_doc:
        spec = j_doc["transport_of_P"]
        if not isinstance(spec, dict):
            raise DocumentError("transport specification must be an object")
        with _reading("transport specification"):
            epsilon = _epsilon(spec["epsilon"]) if epsilon_override is None else epsilon_override
            transport_seed = _integer(spec.get("seed", 0), "seed")
            if transport_seed < 0:
                raise ValueError(f"seed must be >= 0, got {transport_seed}")
        j_family = perturbation_transport(p_family, epsilon, transport_seed)
    else:
        j_family = family_from_doc(j_doc)
    with _reading("scenario document"):
        _check_pair(p_family, j_family)
    with _reading("C value"):
        sup_bound = float(doc["C"]) if "C" in doc else None
    return StabilityScenario(p_family=p_family, j_family=j_family, psi=psi, sup_bound=sup_bound)


def subspace_pair_from_doc(doc: dict) -> tuple[Subspace, Subspace, NormSpec]:
    """{"ambient": {"N": n, "norm": {...}}, "A": [rows], "B": [rows]}.

    The "A" and "B" entries list spanning vectors one per row; they are
    transposed into basis columns here.
    """
    with _reading("subspace document"):
        amb = doc["ambient"]
        n = _integer(amb["N"], "N")
        norm = norm_from_doc(amb["norm"])
        a_rows = np.atleast_2d(np.asarray(doc["A"], dtype=float))
        b_rows = np.atleast_2d(np.asarray(doc["B"], dtype=float))
        space = ModelSpace(dim=n, norm=norm)
    with _reading("subspace basis"):
        return Subspace(a_rows.T, space), Subspace(b_rows.T, space), norm


def angle_pair(angle_degrees: float) -> tuple[Subspace, Subspace, NormSpec]:
    """The first axis of the euclidean plane and the line at the given angle to it."""
    with _reading(f"angle {angle_degrees!r}"):
        if not math.isfinite(angle_degrees):
            raise ValueError("the angle must be finite")
    norm = NormSpec.power(2.0)
    space = ModelSpace(dim=2, norm=norm)
    a = Subspace(np.array([[1.0], [0.0]]), space)
    rad = float(np.deg2rad(angle_degrees))
    b = Subspace(np.array([[np.cos(rad)], [np.sin(rad)]]), space)
    return a, b, norm


def vectors_from_doc(doc: dict, norm: NormSpec | None = None) -> tuple[list[np.ndarray], NormSpec]:
    """{"vectors": [[...], ...], "norm"?: norm}; a given ``norm`` overrides the document's."""
    with _reading("vectors document"):
        if norm is None:
            if "norm" not in doc:
                raise DocumentError("vectors document needs a 'norm' field or pass --norm")
            norm = norm_from_doc(doc["norm"])
        return [np.asarray(v, dtype=float) for v in doc["vectors"]], norm


# ---------------------------------------------------------------------------
# Report serialisation


def to_jsonable(obj):
    """Recursively convert reports (dataclasses, arrays) to JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        # real arrays of finite entries need no per-entry conversion
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        if np.iscomplexobj(obj):
            return {"real": to_jsonable(obj.real), "imag": to_jsonable(obj.imag)}
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, complex):
        return {"real": to_jsonable(obj.real), "imag": to_jsonable(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def render_json(payload: dict) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"
