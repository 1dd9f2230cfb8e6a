"""Nested model families: parameterizations, log-densities and simulators.

Three families over a common interface:

- LM: location mixtures of Gaussians on R, K components, known scale sigma.
  theta = (weights, means); observations z = hidden mean + sigma * noise.
- AC: piecewise-constant regression on the unit square.  theta is a marked
  guillotine tree (recursive axis-aligned cuts, leaf marks); observations
  (x, y) with x uniform on [0,1]^2 and y = f_theta(x) + sigma * noise.
- VR: regression on [0,1] over the cosine basis t_k(x) = sqrt(2) cos(k pi x),
  theta = coefficient vector; x uniform on [0,1].  A VR Sample keeps its basis
  matrix (Sample.vr_basis): built once at the widest K asked so far and read
  by simulate, the fits and log_likelihood, so one trial builds it at most
  twice instead of once per call.  Slicing the wide basis gives the same bits
  as building a narrow one.

Means, marks and coefficients live in the compact interval M = [m_lo, m_hi]
from ModelConfig.  The families are nested: a K-parameter model embeds in the
(K+1)-parameter one with identical density (see embed()).

Randomness is derived from numpy SeedSequence keyed on (seed, path) so that
any consumer drawing "trial t of experiment seed s" gets a stream that
depends only on (s, t), never on execution order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import guillotine
from .guillotine import Leaf, Node, Split

LOG_2PI = math.log(2.0 * math.pi)
_SEED_MASK = (1 << 64) - 1

__all__ = [
    "Family", "ModelConfig", "ThetaLM", "ThetaVR", "ThetaAC", "Theta", "Sample",
    "ParameterError", "UsageError", "rng_for", "derive_seed", "simulate",
    "log_density", "logsumexp_rows", "mixture_log_components", "point_log_densities",
    "regression_log_densities",
    "log_likelihood", "eval_regression_fn",
    "vr_basis_matrix", "validate_theta", "theta_dim", "true_order", "embed",
    "random_theta", "Leaf", "Split",
    "CONFIG_KEYS", "config_to_kv", "config_from_kv", "theta_to_kv", "theta_from_kv",
    "csv_text", "sample_to_csv", "sample_from_csv", "fmt",
]


class ParameterError(ValueError):
    """A parameter lies outside its family's domain."""


class UsageError(ValueError):
    """An operation was applied outside its contract (wrong family, bad K, ...)."""


class Family(str, enum.Enum):
    LM = "LM"
    AC = "AC"
    VR = "VR"


def fmt(x: float) -> str:
    """Decimal text with enough digits to round-trip a float exactly."""
    return format(float(x), ".17g")


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Generator determined solely by (seed, path); order-independent."""
    key = tuple(int(p) & _SEED_MASK for p in path)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) & _SEED_MASK, spawn_key=key))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit seed that is a pure function of (seed, path)."""
    ss = np.random.SeedSequence(entropy=int(seed) & _SEED_MASK,
                                spawn_key=tuple(int(p) & _SEED_MASK for p in path))
    state = ss.generate_state(2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


@dataclass(frozen=True)
class ModelConfig:
    """Family id plus everything that pins down the model classes Pi_K."""

    family: Family
    sigma: float = 1.0
    m_lo: float = -2.0
    m_hi: float = 2.0
    ac_depth_max: int = 4

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        for name in ("sigma", "m_lo", "m_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.sigma > 0.0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not self.m_lo < self.m_hi:
            raise ParameterError(f"need m_lo < m_hi, got [{self.m_lo}, {self.m_hi}]")
        if self.family is Family.VR and not self.m_lo <= 0.0 <= self.m_hi:
            raise ParameterError("VR coefficient interval must contain 0")
        if self.ac_depth_max < 1:
            raise ParameterError("ac_depth_max must be >= 1")


# The [model] keys of config and spec text, each with its parser, in the line
# order config_to_kv writes; a missing key takes ModelConfig's default.
CONFIG_KEYS = {"family": Family, "sigma": float, "m_lo": float, "m_hi": float,
               "ac_depth_max": int}


@dataclass(frozen=True)
class ThetaLM:
    """Mixture weights (all K of them, summing to 1) and component means."""

    weights: tuple[float, ...]
    means: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if len(self.weights) != len(self.means) or len(self.weights) < 1:
            raise ParameterError("weights and means must have equal length >= 1")
        if not all(math.isfinite(v) for v in self.weights + self.means):
            raise ParameterError(f"weights and means must be finite, got {self.weights!r}, "
                                 f"{self.means!r}")
        if any(w < 0.0 for w in self.weights):
            raise ParameterError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ParameterError(f"weights must sum to 1, got {sum(self.weights)!r}")

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ThetaVR:
    """Coefficients on the cosine basis; length is the model index K."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ParameterError("need at least one coefficient")

    @property
    def k(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class ThetaAC:
    """Marked guillotine tree over the unit square."""

    tree: Node

    def __post_init__(self):
        guillotine.validate_tree(self.tree)

    @property
    def k(self) -> int:
        return guillotine.leaf_count(self.tree)


Theta = Union[ThetaLM, ThetaVR, ThetaAC]


@dataclass(frozen=True, eq=False)
class Sample:
    """Observations from one family.

    points has shape (n,) for LM (the z values), (n, 2) for VR (columns x, y)
    and (n, 3) for AC (columns x1, x2, y); n is read from the points.  A VR
    sample also keeps the cosine basis at its x (vr_basis), read-only like the
    points.
    """

    family: Family
    points: np.ndarray
    seed: int
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        pts = np.asarray(self.points, dtype=float)
        expected = {Family.LM: 1, Family.VR: 2, Family.AC: 3}[self.family]
        if expected == 1:
            if pts.ndim != 1:
                raise ParameterError("LM points must be a 1-d array of z values")
        elif pts.ndim != 2 or pts.shape[1] != expected:
            raise ParameterError(f"{self.family.value} points must have shape (n, {expected})")
        if not np.isfinite(pts).all():
            i = int(np.argwhere(~np.isfinite(pts))[0][0])
            raise ParameterError(f"point {i} is not finite: {pts[i]}")
        if self.family is not Family.LM and pts.size:
            x = pts[:, :-1]
            if x.min(initial=0.0) < 0.0 or x.max(initial=0.0) > 1.0:
                raise ParameterError("x coordinates must lie in [0, 1]")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n", pts.shape[0])
        object.__setattr__(self, "_basis", None)

    @property
    def z(self) -> np.ndarray:
        return self.points

    @property
    def x(self) -> np.ndarray:
        if self.family is Family.VR:
            return self.points[:, 0]
        if self.family is Family.AC:
            return self.points[:, :2]
        raise UsageError("LM samples have no covariates")

    @property
    def y(self) -> np.ndarray:
        if self.family is Family.LM:
            raise UsageError("LM samples have no responses; use .z")
        return self.points[:, -1]

    def head(self, n: int) -> "Sample":
        """The first n observations, sharing storage (for growing-path traces)."""
        if not 0 <= n <= self.n:
            raise UsageError(f"cannot take the first {n} of {self.n} observations")
        sub = Sample(self.family, self.points[:n], self.seed)
        if self._basis is not None:
            sub._keep_basis(self._basis[:n])
        return sub

    def vr_basis(self, k: int) -> np.ndarray:
        """The first k columns of vr_basis_matrix(self.x, ...), shape (n, k),
        read-only.  The basis is built once at the widest k asked so far; a
        narrower k is a view of it."""
        if self.family is not Family.VR:
            raise UsageError(f"{self.family.value} samples have no cosine basis")
        basis = self._basis
        if basis is None or basis.shape[1] < k:
            basis = self._keep_basis(vr_basis_matrix(self.x, k))
        return basis[:, :k]

    def _keep_basis(self, basis: np.ndarray) -> np.ndarray:
        basis.setflags(write=False)
        object.__setattr__(self, "_basis", basis)
        return basis


def _family_of(theta: Theta) -> Family:
    if isinstance(theta, ThetaLM):
        return Family.LM
    if isinstance(theta, ThetaVR):
        return Family.VR
    if isinstance(theta, ThetaAC):
        return Family.AC
    raise UsageError(f"not a parameter object: {theta!r}")


def validate_theta(config: ModelConfig, theta: Theta) -> None:
    """Family match plus the configuration-dependent range checks."""
    fam = _family_of(theta)
    if fam is not config.family:
        raise UsageError(f"theta is {fam.value} but config is {config.family.value}")
    lo, hi = config.m_lo, config.m_hi
    if fam is Family.LM:
        vals = theta.means
    elif fam is Family.VR:
        vals = theta.coeffs
    else:
        vals = tuple(m for *_, m in guillotine.iter_cells(theta.tree))
        if guillotine.tree_depth(theta.tree) > config.ac_depth_max:
            raise ParameterError(
                f"tree depth {guillotine.tree_depth(theta.tree)} exceeds cap {config.ac_depth_max}")
    for v in vals:
        if not lo <= v <= hi:
            raise ParameterError(f"value {v} outside [{lo}, {hi}]")


def theta_dim(family: Family, k: int) -> int:
    """Free-parameter count of the K-th class: 2K-1 for LM and AC, K for VR."""
    family = Family(family)
    if k < 1:
        raise UsageError("K must be >= 1")
    return k if family is Family.VR else 2 * k - 1


def true_order(config: ModelConfig, theta: Theta) -> int:
    """Lowest K whose class contains the distribution of theta.

    LM: distinct means among positive-weight components.  VR: index of the
    last nonzero coefficient.  AC: minimal leaf budget at which the population
    tree fit reproduces f_theta exactly.
    """
    validate_theta(config, theta)
    if isinstance(theta, ThetaLM):
        means = {m for w, m in zip(theta.weights, theta.means) if w > 0.0}
        return max(len(means), 1)
    if isinstance(theta, ThetaVR):
        k = len(theta.coeffs)
        while k > 1 and theta.coeffs[k - 1] == 0.0:
            k -= 1
        return k
    return guillotine.minimal_leaf_count(theta.tree, config.ac_depth_max,
                                         config.m_lo, config.m_hi)


def embed(config: ModelConfig, theta: Theta, k: int) -> Theta:
    """theta re-expressed in the K-th class with the same density.

    LM appends zero-weight components, VR appends zero coefficients, AC splits
    leaves into equal-mark halves.
    """
    validate_theta(config, theta)
    if isinstance(theta, ThetaLM):
        if k < theta.k:
            raise UsageError(f"cannot embed K={theta.k} into K={k}")
        filler = 0.5 * (config.m_lo + config.m_hi)
        return ThetaLM(theta.weights + (0.0,) * (k - theta.k),
                       theta.means + (filler,) * (k - theta.k))
    if isinstance(theta, ThetaVR):
        if k < theta.k:
            raise UsageError(f"cannot embed K={theta.k} into K={k}")
        return ThetaVR(theta.coeffs + (0.0,) * (k - theta.k))
    tree = theta.tree
    while guillotine.leaf_count(tree) < k:
        tree = guillotine.split_first_shallow_leaf(tree, config.ac_depth_max)
    if guillotine.leaf_count(tree) > k:
        raise UsageError(f"cannot embed a {theta.k}-leaf tree into K={k}")
    return ThetaAC(tree)


def random_theta(config: ModelConfig, k: int, rng: np.random.Generator) -> Theta:
    """A random parameter of the K-th class (probe clouds, property tests)."""
    lo, hi = config.m_lo, config.m_hi
    if config.family is Family.LM:
        w = rng.dirichlet(np.ones(k))
        w = w / w.sum()
        return ThetaLM(tuple(w), tuple(rng.uniform(lo, hi, k)))
    if config.family is Family.VR:
        return ThetaVR(tuple(rng.uniform(lo, hi, k)))
    leaves = int(rng.integers(1, min(k, 2 ** config.ac_depth_max) + 1))
    return ThetaAC(guillotine.random_tree(rng, leaves, config.ac_depth_max, lo, hi))


# ---------------------------------------------------------------------------
# Densities and simulation
# ---------------------------------------------------------------------------

def vr_basis_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """Basis values t_j(x_i) = sqrt(2) cos(j pi x_i), shape (n, k)."""
    x = np.asarray(x, dtype=float)
    j = np.arange(1, k + 1)
    return math.sqrt(2.0) * np.cos(math.pi * np.multiply.outer(x, j))


def eval_regression_fn(config: ModelConfig, theta: Theta, x):
    """f_theta(x) for the regression families; UsageError for LM."""
    if config.family is Family.LM:
        raise UsageError("LM has no regression function")
    validate_theta(config, theta)
    if config.family is Family.VR:
        xs = np.asarray(x, dtype=float)
        vals = vr_basis_matrix(np.atleast_1d(xs), theta.k) @ np.asarray(theta.coeffs)
        return float(vals[0]) if xs.ndim == 0 else vals
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 1:
        return float(guillotine.eval_tree(theta.tree, xs))
    return guillotine.eval_tree(theta.tree, xs)


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, equal bit for bit to
    scipy.special.logsumexp(a, axis=-1) for real a, by the same formula: the
    row max, the count m of entries tied at it, and
    log1p(sum over the other entries of exp(a - max) / m) + log(m) + max.
    Rows where that is not finite (all -inf, or +inf) take log(sum(exp(a))).

    The max and m are exact whatever the order, so they are taken column by
    column, which is much faster than a reduction over a short last axis; the
    sum keeps numpy's reduction, the one scipy uses."""
    a_max = a[..., 0]
    for j in range(1, a.shape[-1]):
        a_max = np.maximum(a_max, a[..., j])
    top = a == a_max[..., None]
    m = top[..., 0].astype(float)
    for j in range(1, a.shape[-1]):
        m += top[..., j]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(top, -np.inf, a) - a_max[..., None]).sum(axis=-1)
        out = np.log1p(s / m) + np.log(m) + a_max
        if not np.isfinite(out).all():
            bad = ~np.isfinite(out)
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


def mixture_log_components(z: np.ndarray, weights, means, sigma: float) -> np.ndarray:
    """log(w_k * N(z_i; mu_k, sigma^2)) for every point i and component k, shape (n, K).

    Weights and means may be stacked (S, K), one row per parameter, giving
    shape (S, n, K).  logsumexp_rows gives the mixture log-density; zero
    weights give -inf columns, and points too far from a mean for a finite
    square give -inf entries.
    """
    with np.errstate(divide="ignore", over="ignore"):
        log_w = np.log(np.asarray(weights, dtype=float))
        q = ((z[:, None] - np.asarray(means, dtype=float)[..., None, :]) / sigma) ** 2
    return (-0.5 * LOG_2PI - math.log(sigma)) - 0.5 * q + log_w[..., None, :]


def point_log_densities(config: ModelConfig, theta: Theta, points: np.ndarray) -> np.ndarray:
    """log p_theta at every observation; points shaped like Sample.points."""
    validate_theta(config, theta)
    sigma = config.sigma
    pts = np.asarray(points, dtype=float)
    if config.family is Family.LM:
        z = np.atleast_1d(pts)
        if z.size == 0:
            return np.zeros(0)
        return logsumexp_rows(mixture_log_components(z, theta.weights, theta.means, sigma))
    pts = pts.reshape(-1, pts.shape[-1]) if pts.ndim > 1 else pts[None, :]
    if pts.size == 0:
        return np.zeros(0)
    x, y = pts[:, :-1], pts[:, -1]
    if config.family is Family.VR:
        return _vr_log_densities(vr_basis_matrix(x[:, 0], theta.k), theta, y, sigma)
    return regression_log_densities(y, guillotine.eval_tree(theta.tree, x), sigma)


def _vr_log_densities(basis: np.ndarray, theta: ThetaVR, y: np.ndarray,
                      sigma: float) -> np.ndarray:
    """The VR log-densities given the theta.k basis columns at x."""
    return regression_log_densities(y, basis @ np.asarray(theta.coeffs), sigma)


def regression_log_densities(y: np.ndarray, f: np.ndarray, sigma: float) -> np.ndarray:
    """log N(y; f, sigma^2) elementwise: the VR/AC log-density of (x, y) given
    f = f_theta(x); the uniform design density contributes log 1 = 0."""
    return (-0.5 * LOG_2PI - math.log(sigma)) - 0.5 * ((y - f) / sigma) ** 2


def log_density(config: ModelConfig, theta: Theta, z) -> float:
    """log p_theta(z) at one observation (z scalar for LM, (x..., y) otherwise)."""
    if config.family is Family.LM:
        return float(point_log_densities(config, theta, np.asarray([z], dtype=float))[0])
    return float(point_log_densities(config, theta, np.asarray(z, dtype=float))[0])


def log_likelihood(config: ModelConfig, theta: Theta, sample: Sample) -> float:
    """Sum of log p_theta over the sample; the empty sum is 0."""
    if sample.family is not config.family:
        raise UsageError(f"sample is {sample.family.value} but config is {config.family.value}")
    if sample.n == 0:
        return 0.0
    if config.family is Family.VR:
        validate_theta(config, theta)
        return float(np.sum(_vr_log_densities(sample.vr_basis(theta.k), theta, sample.y,
                                              config.sigma)))
    return float(np.sum(point_log_densities(config, theta, sample.points)))


def simulate(config: ModelConfig, theta_star: Theta, n: int, seed: int) -> Sample:
    """n i.i.d. draws from P_theta_star; bit-identical for identical arguments."""
    validate_theta(config, theta_star)
    if n < 1:
        raise UsageError("n must be >= 1")
    rng = rng_for(seed)
    sigma = config.sigma
    if config.family is Family.LM:
        labels = rng.choice(theta_star.k, size=n, p=np.asarray(theta_star.weights))
        z = np.asarray(theta_star.means)[labels] + sigma * rng.standard_normal(n)
        return Sample(Family.LM, z, int(seed))
    if config.family is Family.VR:
        x = rng.uniform(0.0, 1.0, n)
        basis = vr_basis_matrix(x, theta_star.k)
        y = basis @ np.asarray(theta_star.coeffs) + sigma * rng.standard_normal(n)
        sample = Sample(Family.VR, np.column_stack([x, y]), int(seed))
        sample._keep_basis(basis)
        return sample
    x = rng.uniform(0.0, 1.0, (n, 2))
    f = guillotine.eval_tree(theta_star.tree, x)
    y = f + sigma * rng.standard_normal(n)
    return Sample(Family.AC, np.column_stack([x, y]), int(seed))


# ---------------------------------------------------------------------------
# Text serialization (line-oriented key = value; CSV for samples)
# ---------------------------------------------------------------------------

def _kv_lines(text: str) -> dict[str, str]:
    """The one key = value line reader; blank and '#' lines are skipped."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"not a key = value line: {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise UsageError(f"duplicate key {key!r}")
        out[key] = val.strip()
    return out


def _kv_parse(table: dict, kv: dict[str, str], section: str) -> dict:
    """kv's values read by the parsers in table; unknown keys and bad values raise."""
    unknown = set(kv) - set(table)
    if unknown:
        raise UsageError(f"unknown {section} keys: {sorted(unknown)}")
    out = {}
    for key, val in kv.items():
        try:
            out[key] = table[key](val)
        except ValueError as exc:
            raise UsageError(f"bad {section} value for {key}: {exc}") from exc
    return out


def _text(v) -> str:
    """A value as spec or CSV text: floats by fmt, tuples space-separated."""
    if isinstance(v, tuple):
        return " ".join(map(_text, v))
    return v.value if isinstance(v, Family) else fmt(v) if isinstance(v, float) else str(v)


def _kv_text(keys, obj) -> str:
    """One `key = value` line per key, in order, from obj's attributes."""
    return "".join(f"{key} = {_text(getattr(obj, key))}\n" for key in keys)


def config_to_kv(config: ModelConfig) -> str:
    """Line-oriented form, one line per CONFIG_KEYS key: family (LM|AC|VR), sigma,
    m_lo, m_hi (the compact interval M), ac_depth_max.  Floats carry 17
    significant digits so the round trip is exact."""
    return _kv_text(CONFIG_KEYS, config)


def _config_from_map(kv: dict[str, str]) -> ModelConfig:
    if "family" not in kv:
        raise UsageError("missing key 'family'")
    return ModelConfig(**_kv_parse(CONFIG_KEYS, kv, "[model]"))


def config_from_kv(text: str) -> ModelConfig:
    """Inverse of config_to_kv; missing keys take ModelConfig's defaults."""
    return _config_from_map(_kv_lines(text))


def _tree_to_lines(node: Node, path: str, out: list[str]) -> None:
    if isinstance(node, Leaf):
        out.append(f"tree.{path} = leaf {fmt(node.mark)}")
        return
    out.append(f"tree.{path} = split {node.axis} {fmt(node.cut)}")
    _tree_to_lines(node.low, path + "0", out)
    _tree_to_lines(node.high, path + "1", out)


def _tree_from_map(kv: dict[str, str], path: str) -> Node:
    """The subtree at path, popping every key it reads from kv."""
    key = "tree." + path
    if key not in kv:
        raise UsageError(f"missing [model] key theta.{key}")
    parts = kv.pop(key).split()
    try:
        if parts[:1] == ["leaf"] and len(parts) == 2:
            return Leaf(float(parts[1]))
        if parts[:1] == ["split"] and len(parts) == 3:
            return Split(int(parts[1]), float(parts[2]), _tree_from_map(kv, path + "0"),
                         _tree_from_map(kv, path + "1"))
        raise ValueError("expected 'leaf <mark>' or 'split <axis> <cut>'")
    except UsageError:
        raise  # a child's error already names its key
    except ValueError as exc:
        raise _bad_theta(key, exc) from exc


def theta_to_kv(theta: Theta) -> str:
    """Line-oriented form keyed by kind:

    kind = lm    weights = w1 .. wK;  means = m1 .. mK
    kind = vr    coeffs = c1 .. cK
    kind = ac    tree.<path> = split <axis> <cut> | leaf <mark>, with <path>
                 the root "r" extended by 0 (low side) / 1 (high side).
    """
    if isinstance(theta, ThetaLM):
        return "kind = lm\n" + _kv_text(("weights", "means"), theta)
    if isinstance(theta, ThetaVR):
        return "kind = vr\n" + _kv_text(("coeffs",), theta)
    lines = ["kind = ac"]
    _tree_to_lines(theta.tree, "r", lines)
    return "\n".join(lines) + "\n"


def theta_from_kv(text: str) -> Theta:
    return _theta_from_map(_kv_lines(text))


def _bad_theta(key: str, exc: ValueError) -> UsageError:
    return UsageError(f"bad [model] value for theta.{key}: {exc}")


def _theta_floats(kv: dict[str, str], key: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in kv[key].split())
    except ValueError as exc:
        raise _bad_theta(key, exc) from exc


def _theta_from_map(kv: dict[str, str]) -> Theta:
    """Theta from its keys without the spec's "theta." prefix; a bad value
    raises UsageError naming its key."""
    kv = dict(kv)
    kind = kv.pop("kind", None)
    if kind == "lm":
        if set(kv) != {"weights", "means"}:
            raise UsageError(f"lm theta needs exactly keys weights, means; got {sorted(kv)}")
        return ThetaLM(_theta_floats(kv, "weights"), _theta_floats(kv, "means"))
    if kind == "vr":
        if set(kv) != {"coeffs"}:
            raise UsageError(f"vr theta needs exactly key coeffs; got {sorted(kv)}")
        return ThetaVR(_theta_floats(kv, "coeffs"))
    if kind == "ac":
        unknown = sorted(key for key in kv if not key.startswith("tree."))
        if unknown:
            raise UsageError(f"unknown ac theta keys {unknown}")
        tree = _tree_from_map(kv, "r")
        if kv:
            raise UsageError("ac theta keys not reached from theta.tree.r: "
                             + ", ".join(f"theta.{key}" for key in sorted(kv)))
        return ThetaAC(tree)
    raise UsageError(f"unknown or missing theta kind {kind!r}")


def csv_text(header: str, rows) -> str:
    """The one CSV writer: header line, then one line per row, LF endings;
    floats carry fmt's 17 significant digits."""
    return "\n".join([header] + [",".join(map(_text, row)) for row in rows]) + "\n"


# sample CSV header per family: an index column, then the columns of Sample.points
_SAMPLE_HEADERS = {Family.LM: "idx,z", Family.VR: "idx,x1,y", Family.AC: "idx,x1,x2,y"}


def sample_to_csv(sample: Sample) -> str:
    header = _SAMPLE_HEADERS[sample.family]
    pts = sample.points.reshape(sample.n, header.count(","))
    return csv_text(header, ((i, *p) for i, p in enumerate(pts.tolist())))


def sample_from_csv(text: str, seed: int = -1) -> Sample:
    """Rebuild a Sample from its CSV form.

    The CSV carries data only; the family comes from the header and the seed
    is not stored (defaults to -1, "unknown").
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty sample CSV")
    header = lines[0].strip()
    families = {h: f for f, h in _SAMPLE_HEADERS.items()}
    if header not in families:
        raise ValueError(f"unrecognized sample header {header!r}")
    family = families[header]
    rows = [tuple(float(v) for v in ln.split(",")[1:]) for ln in lines[1:]]
    pts = np.asarray(rows, dtype=float).reshape(len(rows), -1 if rows else header.count(","))
    return Sample(family, pts.ravel() if family is Family.LM else pts, seed)
