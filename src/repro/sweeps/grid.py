"""Declarative sweep grids: what to run, validated before anything runs.

A :class:`GridSpec` names the axes of a campaign — topology families ×
sizes × noise rates × backends × seeds — plus per-family generator
parameters and the per-point round budget.  Specs load from TOML
(:meth:`GridSpec.from_toml`), from plain dicts, or are constructed
directly; every form goes through the same **eager validation**: unknown
topology names, unknown grid keys, malformed values, bad family
parameters, and family/size combinations that cannot be realised all
raise a one-line :class:`ConfigurationError` *before* any simulation
starts, listing the known alternatives (matching the
unknown-experiment-id behaviour of the v2 harness).

:meth:`GridSpec.expand` multiplies the axes into concrete
:class:`GridPoint` objects — the unit of execution, caching, and
aggregation for :mod:`repro.sweeps.engine`.
"""

from __future__ import annotations

import hashlib
import re
import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from ..beeping.noise import parse_noise_model
from ..engine import available_backends
from ..errors import ConfigurationError
from ..graphs import build_family_graph, get_family
from .workloads import get_workload

__all__ = ["GridPoint", "GridSpec", "load_grid"]

#: Keys accepted in the ``[grid]`` table (or flat dict) of a spec.
GRID_KEYS: tuple[str, ...] = (
    "topologies",
    "workloads",
    "sizes",
    "noises",
    "noise_models",
    "churns",
    "backends",
    "seeds",
    "rounds",
    "full_rounds",
    "gamma",
)

#: Axes that must be present in every spec.
REQUIRED_KEYS: tuple[str, ...] = ("topologies", "sizes", "noises")


def _one_line(message: str) -> ConfigurationError:
    """A :class:`ConfigurationError` guaranteed to render on one line."""
    return ConfigurationError(" ".join(str(message).split()))


def _check_int(value: object, *, what: str, minimum: int) -> int:
    """Validate one integer grid value (bools are not integers here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _one_line(f"grid {what} must be an int, got {value!r}")
    if value < minimum:
        raise _one_line(f"grid {what} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class GridPoint:
    """One concrete cell of an expanded grid: a single simulation run.

    A point pins every axis — family (plus resolved generator
    parameters), ``n``, noise rate, backend, seed — and the per-point
    budget (Broadcast CONGEST ``rounds``, message-size factor
    ``gamma``).  Points are immutable, picklable (they cross the
    process-pool boundary), and carry their own cache identity via
    :meth:`slug`.
    """

    family: str
    params: tuple[tuple[str, object], ...]
    n: int
    eps: float
    backend: str
    seed: int
    rounds: int
    gamma: int
    workload: str = "broadcast"
    noise_model: str = "bernoulli"
    churn: float = 0.0

    def params_label(self) -> str:
        """The resolved generator parameters as a stable ``k=v,...`` string.

        The single rendering used both in cache identities
        (:meth:`slug`) and in the long-form ``params`` column, so the
        two can never drift apart.  Floats keep full ``repr`` precision
        — two distinct parameter values must never share a label.
        """
        return ",".join(
            f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in self.params
            if value is not None
        )

    def identity(self) -> str:
        """The full, unsanitised simulation identity of the point.

        Everything that determines the *simulated numbers* except seed,
        backend, and profile (those are separate cache-key components),
        rendered losslessly — floats at full ``repr`` precision, params
        through :meth:`params_label`.
        """
        return (
            f"{self.family}|{self.params_label()}|workload={self.workload}|"
            f"n={self.n}|eps={self.eps!r}|model={self.noise_model}|"
            f"churn={self.churn!r}|rounds={self.rounds}|"
            f"gamma={self.gamma}"
        )

    def slug(self) -> str:
        """The point's cache/result identifier (filesystem-safe).

        Encodes :meth:`identity` in readable, sanitised form and appends
        a short digest of the unsanitised identity, so two points whose
        labels differ only in sanitised-away punctuation still get
        distinct cache keys (replay additionally verifies the stored
        record against the full identity; see
        :mod:`repro.sweeps.engine`).
        """
        parts = [f"sweep-{self.family}"]
        if self.params_label():
            parts.append(self.params_label())
        if self.workload != "broadcast":
            parts.append(self.workload)
        parts.append(f"n{self.n}")
        parts.append(f"eps{self.eps!r}")
        if self.noise_model != "bernoulli":
            parts.append(self.noise_model)
        if self.churn:
            parts.append(f"churn{self.churn!r}")
        parts.append(f"r{self.rounds}")
        parts.append(f"g{self.gamma}")
        digest = hashlib.sha256(self.identity().encode("utf-8")).hexdigest()[:8]
        parts.append(f"id{digest}")
        return re.sub(r"[^A-Za-z0-9_.=-]+", "-", "-".join(parts))

    def label(self) -> str:
        """Human-oriented one-line description for progress messages."""
        scenario = ""
        if self.noise_model != "bernoulli":
            scenario += f" model={self.noise_model}"
        if self.churn:
            scenario += f" churn={self.churn:g}"
        return (
            f"{self.family} {self.workload} n={self.n} eps={self.eps:g}"
            f"{scenario} backend={self.backend} seed={self.seed}"
        )


@dataclass(frozen=True)
class GridSpec:
    """A validated sweep campaign: axes, per-family params, round budget.

    Attributes
    ----------
    topologies:
        Zoo family names (see :func:`repro.graphs.family_names`).
    workloads:
        What runs on each point (see :func:`repro.sweeps.workloads.
        workload_names`): ``"broadcast"`` simulates noisy-beeps rounds,
        the algorithm workloads (``"matching"``, ``"mis"``, ``"bfs"``,
        ``"leader"``) run distributed algorithms on the zoo graph
        through the Broadcast CONGEST engine and record workload metrics.
    sizes:
        Node counts ``n`` (each ``>= 2``); sizes a family cannot realise
        exactly (e.g. non-power-of-two hypercubes) are rejected at
        construction, before anything runs.
    noises:
        Channel noise rates ``eps`` in ``[0, 1/2)``.
    noise_models:
        How each ``eps`` budget is spent (see
        :func:`repro.beeping.noise_model_names`): ``"bernoulli"`` iid
        flips, ``"adversarial"`` budgeted full-round bursts, or
        ``"zone:<frac>"`` — an unreliable hot zone covering that
        fraction of the nodes, with the cold rate solved so the mean
        stays on budget.
    churns:
        Per-epoch node-churn probabilities in ``[0, 1)``; a non-zero
        churn wraps each point's graph in a
        :class:`~repro.beeping.noise.DynamicTopology` whose mask
        re-draws once per simulated Broadcast CONGEST round.
    backends:
        Simulation backends; results are bit-identical across them by
        the engine invariant, so this axis measures *speed* only.
    seeds:
        Master seeds; graphs and channels re-randomise per seed, and
        aggregate cells summarise across this axis.
    rounds:
        Broadcast CONGEST rounds simulated per grid point (``quick``
        profile and custom labels).
    full_rounds:
        Rounds under the ``full`` profile (default ``3 * rounds``).
    gamma:
        Message-size factor: ``B = gamma * ceil(log2 n)`` bits per round.
    params:
        Per-family generator parameter overrides, keyed by family name —
        validated against each family's schema at construction.
    """

    topologies: tuple[str, ...]
    sizes: tuple[int, ...]
    noises: tuple[float, ...]
    workloads: tuple[str, ...] = ("broadcast",)
    noise_models: tuple[str, ...] = ("bernoulli",)
    churns: tuple[float, ...] = (0.0,)
    backends: tuple[str, ...] = ("auto",)
    seeds: tuple[int, ...] = (0,)
    rounds: int = 2
    full_rounds: "int | None" = None
    gamma: int = 1
    params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Normalise sequence fields and validate every axis eagerly."""
        coerce = object.__setattr__  # frozen dataclass
        sequence_fields = (
            "topologies",
            "workloads",
            "sizes",
            "noises",
            "noise_models",
            "churns",
            "backends",
            "seeds",
        )
        for name in sequence_fields:
            value = getattr(self, name)
            if isinstance(value, (str, bytes)) or not isinstance(
                value, Sequence
            ):
                raise _one_line(
                    f"grid key {name!r} must be a list, got {value!r}"
                )
            coerce(self, name, tuple(value))
            if not getattr(self, name):
                raise _one_line(f"grid key {name!r} must not be empty")

        for family in self.topologies:
            if not isinstance(family, str):
                raise _one_line(
                    f"grid topologies entries must be strings, got {family!r}"
                )
            get_family(family)  # raises listing the known families
        for workload in self.workloads:
            if not isinstance(workload, str):
                raise _one_line(
                    f"grid workloads entries must be strings, got {workload!r}"
                )
            get_workload(workload)  # raises listing the known workloads
        coerce(
            self,
            "sizes",
            tuple(_check_int(n, what="size", minimum=2) for n in self.sizes),
        )
        noises = []
        for eps in self.noises:
            if isinstance(eps, bool) or not isinstance(eps, (int, float)):
                raise _one_line(f"grid noise must be a number, got {eps!r}")
            if not 0.0 <= eps < 0.5:
                raise _one_line(f"grid noise must be in [0, 0.5), got {eps}")
            noises.append(float(eps))
        coerce(self, "noises", tuple(noises))
        for model in self.noise_models:
            parse_noise_model(model)  # raises listing the known models
        churns = []
        for churn in self.churns:
            if isinstance(churn, bool) or not isinstance(churn, (int, float)):
                raise _one_line(f"grid churn must be a number, got {churn!r}")
            if not 0.0 <= churn < 1.0:
                raise _one_line(f"grid churn must be in [0, 1), got {churn}")
            churns.append(float(churn))
        coerce(self, "churns", tuple(churns))
        known_backends = ("auto", *available_backends())
        for backend in self.backends:
            if backend not in known_backends:
                raise _one_line(
                    f"unknown backend {backend!r}; known: "
                    f"{', '.join(known_backends)}"
                )
        coerce(
            self,
            "seeds",
            tuple(_check_int(s, what="seed", minimum=0) for s in self.seeds),
        )
        _check_int(self.rounds, what="rounds", minimum=1)
        if self.full_rounds is not None:
            _check_int(self.full_rounds, what="full_rounds", minimum=1)
        _check_int(self.gamma, what="gamma", minimum=1)

        if not isinstance(self.params, Mapping):
            raise _one_line(
                f"grid params must be a table of family tables, "
                f"got {self.params!r}"
            )
        normalised_params = {}
        for family, overrides in self.params.items():
            spec_family = get_family(family)  # unknown name -> listed error
            if not isinstance(overrides, Mapping):
                raise _one_line(
                    f"params.{family} must be a table of parameter values, "
                    f"got {overrides!r}"
                )
            spec_family.resolve_params(overrides)  # schema check, eagerly
            normalised_params[family] = dict(overrides)
        coerce(self, "params", normalised_params)

        # Feasibility, eagerly: every (family, size) pair must be
        # realisable, so a campaign cannot fail (and discard completed
        # points) halfway through execution.  Feasibility is a
        # deterministic property of (family, params, n) for every zoo
        # family, so probing with one fixed seed is sound; the probe
        # builds each graph once, which is negligible next to simulating
        # even a single Broadcast CONGEST round on it.
        for family in self.topologies:
            overrides = self.params.get(family)
            for n in self.sizes:
                try:
                    build_family_graph(family, n, seed=0, params=overrides)
                except ConfigurationError as error:
                    raise _one_line(
                        f"grid infeasible at topology {family!r}, "
                        f"size {n}: {error}"
                    ) from None

    def effective_rounds(self, profile: str) -> int:
        """Rounds per point under ``profile`` (``full`` scales up 3x)."""
        if profile == "full":
            return (
                self.full_rounds
                if self.full_rounds is not None
                else 3 * self.rounds
            )
        return self.rounds

    def expand(
        self,
        profile: str = "quick",
        backend: "str | None" = None,
    ) -> tuple[GridPoint, ...]:
        """Multiply the axes into concrete :class:`GridPoint` objects.

        Order is deterministic: family, then workload, then size, then
        noise, then noise model, then churn, then backend, then seed
        (the long-form row order of the results).  ``backend`` overrides
        the grid's backend axis wholesale — the CLI's ``--backend``
        flag.
        """
        backends = (backend,) if backend is not None else self.backends
        rounds = self.effective_rounds(profile)
        points = []
        for family in self.topologies:
            resolved = get_family(family).resolve_params(
                self.params.get(family)
            )
            family_params = tuple(sorted(resolved.items()))
            for workload in self.workloads:
                for n in self.sizes:
                    for eps in self.noises:
                        for noise_model in self.noise_models:
                            for churn in self.churns:
                                for chosen_backend in backends:
                                    for seed in self.seeds:
                                        points.append(
                                            GridPoint(
                                                family=family,
                                                params=family_params,
                                                n=n,
                                                eps=eps,
                                                backend=chosen_backend,
                                                seed=seed,
                                                rounds=rounds,
                                                gamma=self.gamma,
                                                workload=workload,
                                                noise_model=noise_model,
                                                churn=churn,
                                            )
                                        )
        return tuple(points)

    def to_dict(self) -> dict:
        """JSON/TOML-able dict form (the ``[grid]`` + ``[params]`` shape)."""
        grid: dict = {
            "topologies": list(self.topologies),
            "workloads": list(self.workloads),
            "sizes": list(self.sizes),
            "noises": list(self.noises),
            "noise_models": list(self.noise_models),
            "churns": list(self.churns),
            "backends": list(self.backends),
            "seeds": list(self.seeds),
            "rounds": self.rounds,
            "gamma": self.gamma,
        }
        if self.full_rounds is not None:
            grid["full_rounds"] = self.full_rounds
        payload = {"grid": grid}
        if self.params:
            payload["params"] = {
                family: dict(overrides)
                for family, overrides in self.params.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "GridSpec":
        """Build a spec from a dict — TOML-shaped or flat.

        Accepts either ``{"grid": {...}, "params": {...}}`` (the TOML
        document shape) or a flat mapping of grid keys with an optional
        ``"params"`` entry.  Unknown keys raise a one-line
        :class:`ConfigurationError` naming the known ones.
        """
        if not isinstance(payload, Mapping):
            raise _one_line(f"grid spec must be a table, got {payload!r}")
        if "grid" in payload:
            unknown = set(payload) - {"grid", "params"}
            if unknown:
                raise _one_line(
                    f"unknown top-level grid-spec key(s) "
                    f"{', '.join(map(repr, sorted(unknown)))}; "
                    f"known: 'grid', 'params'"
                )
            grid = payload["grid"]
            params = payload.get("params", {})
        else:
            grid = {key: value for key, value in payload.items() if key != "params"}
            params = payload.get("params", {})
        if not isinstance(grid, Mapping):
            raise _one_line(f"grid table must be a mapping, got {grid!r}")
        unknown = set(grid) - set(GRID_KEYS)
        if unknown:
            raise _one_line(
                f"unknown grid key(s) {', '.join(map(repr, sorted(unknown)))}; "
                f"known: {', '.join(GRID_KEYS)}"
            )
        missing = [key for key in REQUIRED_KEYS if key not in grid]
        if missing:
            raise _one_line(
                f"grid spec missing required key(s) "
                f"{', '.join(map(repr, missing))}; required: "
                f"{', '.join(REQUIRED_KEYS)}"
            )
        defaults = {
            f.name: f.default for f in fields(cls) if f.name not in ("params",)
        }
        kwargs = {key: grid.get(key, defaults[key]) for key in GRID_KEYS}
        return cls(params=params, **kwargs)

    @classmethod
    def from_toml(cls, path: "str | Path") -> "GridSpec":
        """Load and validate a ``grid.toml`` file.

        Every way the file can be unusable — missing, unreadable, not
        UTF-8, not TOML — raises the same one-line
        :class:`ConfigurationError` the rest of the CLI surface does.
        """
        try:
            # TOML mandates UTF-8; decode it explicitly so the error
            # branch below means what it says regardless of locale.
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise _one_line(f"cannot read grid file {path!s}: {error}") from None
        except UnicodeDecodeError as error:
            raise _one_line(
                f"grid file {path!s} is not UTF-8 text: {error}"
            ) from None
        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise _one_line(f"invalid TOML in {path!s}: {error}") from None
        return cls.from_dict(payload)


def load_grid(grid: "GridSpec | Mapping | str | Path") -> GridSpec:
    """Coerce any accepted grid form into a validated :class:`GridSpec`.

    Accepts a ready spec (returned as-is), a dict (TOML-shaped or flat),
    or a path to a ``.toml`` file.
    """
    if isinstance(grid, GridSpec):
        return grid
    if isinstance(grid, Mapping):
        return GridSpec.from_dict(grid)
    if isinstance(grid, (str, Path)):
        return GridSpec.from_toml(grid)
    raise _one_line(
        f"grid must be a GridSpec, a dict, or a path to a TOML file; "
        f"got {type(grid).__name__}"
    )
