"""JSON document schemas and serialisation helpers.

Gauges, norms, families and stability scenarios all travel as small
JSON documents; this module is the single place that parses and emits
them, so the CLI itself never touches numbers.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decomposition import ModelSpace, ProjectionFamily, Subspace, make_coordinate_family, transport_family
from .errors import DocumentError
from .orlicz import NormSpec, OrliczFunction


# ---------------------------------------------------------------------------
# Gauge documents: {"kind": "power"|"exp"|"pwl", "p"?, "alpha"?, "knots"?}


def phi_from_doc(doc: dict) -> OrliczFunction:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError("gauge document needs a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "power":
            return OrliczFunction.power(float(doc["p"]))
        if kind == "exp":
            return OrliczFunction.scaled_exp(float(doc["alpha"]))
        if kind == "pwl":
            return OrliczFunction.piecewise_linear(doc["knots"])
    except KeyError as exc:
        raise DocumentError(f"gauge document is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad gauge document: {exc}") from exc
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
    try:
        if variant == "power":
            return NormSpec.power(float(doc["p"]))
        if variant == "orlicz":
            return NormSpec.orlicz(phi_from_doc(doc["phi"]))
        if variant == "max":
            return NormSpec.max_norm()
    except KeyError as exc:
        raise DocumentError(f"norm document is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad norm document: {exc}") from exc
    raise DocumentError(f"unknown norm variant {variant!r}")


def norm_to_doc(spec: NormSpec) -> dict:
    if spec.variant == "power":
        return {"variant": "power", "p": spec.p}
    if spec.variant == "orlicz":
        return {"variant": "orlicz", "phi": phi_to_doc(spec.phi)}
    return {"variant": "max"}


# ---------------------------------------------------------------------------
# Compact CLI spellings ("power:2", "max", "orlicz:exp:1", "@file.json")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def parse_phi_spec(text: str) -> OrliczFunction:
    """power:P | exp:ALPHA | pwl:t,v;t,v;... | @file.json"""
    if text.startswith("@"):
        return phi_from_doc(_load_json(text[1:]))
    kind, _, rest = text.partition(":")
    try:
        if kind == "power":
            return OrliczFunction.power(float(rest))
        if kind == "exp":
            return OrliczFunction.scaled_exp(float(rest))
        if kind == "pwl":
            knots = [tuple(float(c) for c in pair.split(",")) for pair in rest.split(";")]
            return OrliczFunction.piecewise_linear(knots)
    except ValueError as exc:
        raise DocumentError(f"bad gauge spec {text!r}: {exc}") from exc
    raise DocumentError(f"unknown gauge spec {text!r}")


def parse_norm_spec(text: str) -> NormSpec:
    """power:P | max | orlicz:<gauge spec> | @file.json"""
    if text.startswith("@"):
        return norm_from_doc(_load_json(text[1:]))
    if text == "max":
        return NormSpec.max_norm()
    head, _, rest = text.partition(":")
    try:
        if head == "power":
            return NormSpec.power(float(rest))
        if head == "orlicz":
            return NormSpec.orlicz(parse_phi_spec(rest))
    except ValueError as exc:
        raise DocumentError(f"bad norm spec {text!r}: {exc}") from exc
    raise DocumentError(f"unknown norm spec {text!r}")


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
    try:
        n = int(doc["N"])
        norm = norm_from_doc(doc["norm"])
    except KeyError as exc:
        raise DocumentError(f"family document is missing {exc}") from exc
    space = ModelSpace(dim=n, norm=norm, scalars=doc.get("scalars", "real"))
    if "coordinate_blocks" in doc:
        try:
            return make_coordinate_family(space, doc["coordinate_blocks"])
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"bad coordinate blocks: {exc}") from exc
    if "blocks" not in doc:
        raise DocumentError("family document needs 'blocks' or 'coordinate_blocks'")
    blocks = []
    for i, flat in enumerate(doc["blocks"]):
        if isinstance(flat, dict):
            try:
                arr = np.asarray(flat["real"], dtype=float).astype(complex)
                arr.imag = np.asarray(flat["imag"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise DocumentError(f"bad complex block {i}: {exc!r}") from exc
        else:
            arr = np.asarray(flat, dtype=float)
        if arr.ndim == 2 and arr.shape == (n, n):
            blocks.append(arr)
            continue
        if arr.ndim != 1 or arr.size != n * n:
            raise DocumentError(f"block {i} has {arr.size} entries, expected {n * n}")
        blocks.append(arr.reshape(n, n))
    try:
        return ProjectionFamily(blocks, space)
    except ValueError as exc:
        raise DocumentError(f"bad family blocks: {exc}") from exc


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
    epsilon: float | None = None
    transport_seed: int | None = None


def perturbation_transport(family: ProjectionFamily, epsilon: float, seed: int) -> ProjectionFamily:
    """Transport by I + epsilon * T with T a seeded standard normal draw."""
    n = family.dim
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n))
    s = np.eye(n) + float(epsilon) * t
    return transport_family(s, family)


def scenario_from_doc(doc: dict, *, epsilon_override: float | None = None) -> StabilityScenario:
    """{"P": family, "J": family | {"transport_of_P": {"epsilon": e, "seed": s}},
        "psi": norm, "C"?: number}."""
    if not isinstance(doc, dict):
        raise DocumentError("scenario document must be an object")
    try:
        p_family = family_from_doc(doc["P"])
        j_doc = doc["J"]
        psi = norm_from_doc(doc["psi"])
    except KeyError as exc:
        raise DocumentError(f"scenario document is missing {exc}") from exc
    epsilon = None
    transport_seed = None
    if isinstance(j_doc, dict) and "transport_of_P" in j_doc:
        spec = j_doc["transport_of_P"]
        try:
            epsilon = float(spec["epsilon"]) if epsilon_override is None else float(epsilon_override)
            transport_seed = int(spec.get("seed", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"bad transport specification: {exc}") from exc
        j_family = perturbation_transport(p_family, epsilon, transport_seed)
    else:
        j_family = family_from_doc(j_doc)
    sup_bound = None
    if "C" in doc:
        try:
            sup_bound = float(doc["C"])
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"bad C value: {exc}") from exc
    return StabilityScenario(
        p_family=p_family,
        j_family=j_family,
        psi=psi,
        sup_bound=sup_bound,
        epsilon=epsilon,
        transport_seed=transport_seed,
    )


def subspace_pair_from_doc(doc: dict) -> tuple[Subspace, Subspace, NormSpec]:
    """{"ambient": {"N": n, "norm": {...}}, "A": [rows], "B": [rows]}.

    The "A" and "B" entries list spanning vectors one per row; they are
    transposed into basis columns here.
    """
    try:
        amb = doc["ambient"]
        n = int(amb["N"])
        norm = norm_from_doc(amb["norm"])
        a_rows = np.atleast_2d(np.asarray(doc["A"], dtype=float))
        b_rows = np.atleast_2d(np.asarray(doc["B"], dtype=float))
    except KeyError as exc:
        raise DocumentError(f"subspace document is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad subspace document: {exc}") from exc
    space = ModelSpace(dim=n, norm=norm)
    try:
        return Subspace(a_rows.T, space), Subspace(b_rows.T, space), norm
    except ValueError as exc:
        raise DocumentError(f"bad subspace basis: {exc}") from exc


# ---------------------------------------------------------------------------
# Report serialisation


def to_jsonable(obj):
    """Recursively convert reports (dataclasses, arrays) to JSON values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
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
