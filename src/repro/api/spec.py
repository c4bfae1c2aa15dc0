"""Declarative run specifications: the atoms an :class:`ExperimentPlan` expands to.

A sweep is a grid over three axes — workload × carrier × policy (optionally
repeated over seeds) — and every cell of that grid is one :class:`RunSpec`.
A spec is a small, immutable, picklable *description* of a run rather than
the run's live objects: the trace is described by a :class:`TraceSpec`
(application name + duration + seed, user id, capture path, or an inline
:class:`~repro.traces.packet.PacketTrace`) and the policy by a
:class:`PolicySpec` (scheme name + window size, or a top-level factory).
This is what lets :class:`~repro.api.runner.ProcessPoolRunner` ship specs to
worker processes and rebuild the heavyweight objects there, and what gives
:class:`~repro.api.cache.ResultCache` a stable key to deduplicate runs on.

:func:`execute` is the single entry point that materialises a spec into a
:class:`~repro.sim.results.SimulationResult`; both runner backends call it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from ..core.controller import KNOWN_SCHEMES, build_scheme
from ..core.policy import RadioPolicy
from ..dictform import strict_fields
from ..rrc.profiles import get_profile
from ..sim.results import SimulationResult
from ..sim.simulator import TraceSimulator
from ..traces.packet import PacketTrace
from ..traces.synthetic import check_chunk, check_duration

__all__ = [
    "TraceSpec",
    "PolicySpec",
    "RunSpec",
    "app",
    "user",
    "pcap",
    "tcpdump",
    "inline",
    "scheme",
    "execute",
]

#: Trace kinds whose workload is regenerated from a seed (so ``repeat(seeds=...)``
#: produces genuinely different traffic) as opposed to fixed external data.
_SEEDED_KINDS = ("application", "user")

#: The keys :meth:`TraceSpec.to_dict` writes (an inline trace has none),
#: with their JSON types (see :mod:`repro.dictform`).
_TRACE_FIELDS = {
    "kind": "string", "name": "string", "user_id": "integer",
    "path": "string", "duration_s": "number", "seed": "integer",
}


def _trace_digest(trace: PacketTrace) -> str:
    """Exact content digest of a trace (floats via repr, which round-trips)."""
    digest = hashlib.sha256()
    for p in trace:
        digest.update(
            f"{p.timestamp!r}|{p.size}|{p.direction.value}|{p.flow_id}\n".encode()
        )
    return digest.hexdigest()


def _file_digest(path: str) -> str:
    """SHA-256 of a file's bytes, read now."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class TraceSpec:
    """How to (re)build one packet trace.

    ``kind`` selects the source:

    * ``"application"`` — :func:`~repro.traces.synthetic.generate_application_trace`
      with ``name``/``duration_s``/``seed``;
    * ``"user"`` — :func:`~repro.traces.users.user_trace` with ``name`` as the
      population, ``user_id`` and ``duration_s`` interpreted as seconds per day;
    * ``"pcap"`` / ``"tcpdump"`` — a capture file at ``path``;
    * ``"inline"`` — a concrete :class:`PacketTrace` carried in ``trace``
      (not serialisable to JSON, but picklable for the process pool).
    """

    kind: str = "application"
    name: str = "email"
    user_id: int = 1
    path: str = ""
    duration_s: float = 3600.0
    seed: int = 0
    trace: PacketTrace | None = field(default=None, compare=True)

    def __post_init__(self) -> None:
        if self.kind not in ("application", "user", "pcap", "tcpdump", "inline"):
            raise ValueError(
                "trace kind must be 'application', 'user', 'pcap', 'tcpdump' "
                f"or 'inline', got {self.kind!r}"
            )
        if self.kind == "inline" and self.trace is None:
            raise ValueError("an inline trace spec requires a PacketTrace")
        if self.kind in ("pcap", "tcpdump") and not self.path:
            raise ValueError(f"a {self.kind} trace spec requires a file path")
        check_duration(self.duration_s)
        if self.user_id < 1:
            raise ValueError(f"user_id must be >= 1, got {self.user_id}")
        if self.kind == "application":
            from ..traces.synthetic import APPLICATION_PROFILES

            if self.name.lower() not in APPLICATION_PROFILES:
                raise ValueError(
                    f"unknown application {self.name!r}; known: "
                    f"{sorted(APPLICATION_PROFILES)}"
                )
        if self.kind == "user":
            from ..traces.users import USER_POPULATIONS

            if self.name not in USER_POPULATIONS:
                raise ValueError(
                    f"unknown user population {self.name!r}; known: "
                    f"{sorted(USER_POPULATIONS)}"
                )

    @property
    def label(self) -> str:
        """Short human-readable identity used in result tables and grouping."""
        if self.kind == "application":
            return self.name
        if self.kind == "user":
            return f"{self.name}:user{self.user_id}"
        if self.kind == "inline":
            assert self.trace is not None
            return self.trace.name or "inline"
        return self.path

    @property
    def fingerprint(self) -> tuple:
        """Stable cache-key component identifying the trace this spec builds.

        Two specs with equal fingerprints build identical traces, so their
        simulations can share one cached result.  Inline traces are digested
        packet by packet (exact — float repr round-trips); the digest is
        memoised on the spec so repeated key accesses stay O(1).  A capture
        file is keyed on a SHA-256 of its bytes, read on every access and
        never memoised: a file rewritten at the same path is a new key
        even for a spec that was keyed before the rewrite.
        """
        if self.kind in ("pcap", "tcpdump"):
            return (self.kind, self.path, _file_digest(self.path))
        cached = getattr(self, "_fingerprint_memo", None)
        if cached is not None:
            return cached
        if self.kind == "application":
            fingerprint = ("application", self.name, self.duration_s, self.seed)
        elif self.kind == "user":
            fingerprint = ("user", self.name, self.user_id, self.duration_s,
                           self.seed)
        else:
            assert self.trace is not None
            fingerprint = ("inline", self.trace.name, _trace_digest(self.trace))
        object.__setattr__(self, "_fingerprint_memo", fingerprint)
        return fingerprint

    def with_seed(self, seed: int) -> "TraceSpec":
        """Return a copy regenerated under ``seed`` (no-op for fixed sources)."""
        if self.kind in _SEEDED_KINDS:
            return replace(self, seed=seed)
        return self

    def build(self) -> PacketTrace:
        """Materialise the trace this spec describes."""
        if self.kind == "inline":
            assert self.trace is not None
            return self.trace
        if self.kind == "application":
            from ..traces.synthetic import generate_application_trace

            return generate_application_trace(
                self.name, duration=self.duration_s, seed=self.seed
            )
        if self.kind == "user":
            from ..traces.users import user_trace

            return user_trace(
                self.name,
                self.user_id,
                hours_per_day=self.duration_s / 3600.0,
                seed=self.seed,
            )
        if self.kind == "pcap":
            from ..traces.pcap import read_pcap

            return read_pcap(self.path)
        from ..traces.tcpdump import read_tcpdump

        return read_tcpdump(self.path).trace

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (inline traces cannot be serialised)."""
        if self.kind == "inline":
            raise ValueError(
                "an inline TraceSpec holds a concrete PacketTrace and cannot "
                "be serialised; describe the workload by kind instead"
            )
        return {key: getattr(self, key) for key in _TRACE_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceSpec":
        """Re-create a spec from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        return cls(**strict_fields(data, _TRACE_FIELDS, "trace"))


@dataclass(frozen=True)
class PolicySpec:
    """How to build one radio control policy.

    ``scheme`` is either ``"status_quo"`` or one of the scheme names of
    :func:`~repro.core.controller.standard_policies`; ``window_size`` is the
    MakeIdle observation window (``None`` inherits the plan-level default).
    Alternatively ``factory`` may name a zero-argument top-level callable
    returning a fresh :class:`RadioPolicy`; top-level is required so the spec
    stays picklable for the process pool.
    """

    scheme: str = "status_quo"
    window_size: int | None = None
    factory: Callable[[], RadioPolicy] | None = field(default=None, compare=True)

    def __post_init__(self) -> None:
        if self.window_size is not None and self.window_size < 2:
            raise ValueError(
                f"window_size must be >= 2, got {self.window_size}"
            )
        if self.factory is not None:
            # A factory policy must not masquerade as the baseline: give it
            # its own scheme label (derived from the factory if unset) so
            # baseline normalisation never mistakes it for the status quo.
            if self.scheme == "status_quo":
                object.__setattr__(
                    self, "scheme", getattr(self.factory, "__name__", "custom")
                )
        elif self.scheme not in KNOWN_SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; known: {list(KNOWN_SCHEMES)} "
                "(or pass a factory)"
            )

    @property
    def key(self) -> tuple:
        """Stable cache-key component identifying the built policy."""
        if self.factory is not None:
            return ("factory", self.scheme,
                    f"{self.factory.__module__}.{self.factory.__qualname__}")
        if self.scheme == "status_quo":
            return ("status_quo",)
        return (self.scheme, self.window_size)

    def resolved(self, default_window: int) -> "PolicySpec":
        """Fill in the plan-level window size where none was given."""
        if self.factory is not None or self.scheme == "status_quo":
            return self
        if self.window_size is not None:
            return self
        return replace(self, window_size=default_window)

    def build(self) -> RadioPolicy:
        """Construct a fresh policy instance.

        Built through :func:`~repro.core.controller.build_scheme` so only the
        requested scheme is constructed (cell builders call this once per
        device) and every call returns a policy whose learner state is owned
        by exactly one UE.
        """
        if self.factory is not None:
            return self.factory()
        if self.scheme == "status_quo":
            return build_scheme("status_quo")
        window = self.window_size if self.window_size is not None else 100
        return build_scheme(self.scheme, window)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (factory policies cannot be serialised)."""
        if self.factory is not None:
            raise ValueError(
                "a PolicySpec with a custom factory cannot be serialised"
            )
        return {"scheme": self.scheme, "window_size": self.window_size}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        """Re-create a spec from :meth:`to_dict` output.

        A key that :meth:`to_dict` does not write raises ``ValueError``.
        """
        return cls(**strict_fields(
            data, {"scheme": "string", "window_size": "integer?"}, "policy"
        ))


@dataclass(frozen=True)
class RunSpec:
    """One cell of the sweep grid: a trace, a carrier and a policy.

    ``seed`` records which repetition of the plan produced this spec; the
    trace spec has already been re-seeded accordingly, so the seed is carried
    purely for grouping and reporting.
    """

    trace: TraceSpec
    carrier: str
    policy: PolicySpec
    seed: int = 0

    def __post_init__(self) -> None:
        get_profile(self.carrier)  # validate the key early, with a clear error

    @property
    def cache_key(self) -> tuple:
        """Key under which this run's result is cached and deduplicated.

        Two specs with equal keys simulate the same (trace, carrier, policy)
        triple, so the status-quo baseline shared by every scheme of a sweep
        is simulated exactly once per (trace fingerprint, carrier).
        """
        return (self.trace.fingerprint, self.carrier, self.policy.key)

    @property
    def scheme(self) -> str:
        """The policy's scheme name (falls back to the factory scheme label)."""
        return self.policy.scheme


# -- axis declaration helpers --------------------------------------------------------

def app(name: str, duration: float = 3600.0, seed: int = 0) -> TraceSpec:
    """A synthetic single-application workload axis entry."""
    return TraceSpec(kind="application", name=name, duration_s=duration, seed=seed)


def user(population: str, user_id: int, hours_per_day: float = 2.0,
         seed: int = 0) -> TraceSpec:
    """A synthetic user-day workload axis entry."""
    return TraceSpec(
        kind="user", name=population, user_id=user_id,
        duration_s=hours_per_day * 3600.0, seed=seed,
    )


def pcap(path: str) -> TraceSpec:
    """A pcap capture workload axis entry."""
    return TraceSpec(kind="pcap", path=path)


def tcpdump(path: str) -> TraceSpec:
    """A tcpdump text-log workload axis entry."""
    return TraceSpec(kind="tcpdump", path=path)


def inline(trace: PacketTrace) -> TraceSpec:
    """Wrap a concrete :class:`PacketTrace` as a workload axis entry."""
    return TraceSpec(kind="inline", trace=trace)


def scheme(name: str, window_size: int | None = None) -> PolicySpec:
    """A policy axis entry by scheme name (window size optional)."""
    return PolicySpec(scheme=name, window_size=window_size)


#: Process-local memo of generated traces, keyed by trace fingerprint.  A
#: sweep replays the same workload under many carriers and policies; traces
#: are immutable, so each unique one is generated once per process instead
#: of once per grid cell.  FIFO-bounded so open-ended sweeps (thousands of
#: distinct users/seeds) cannot grow memory without limit.  (Capture files
#: are *not* memoised: re-reading them is explicit I/O the caller controls.)
_TRACE_MEMO: dict[tuple, PacketTrace] = {}
_TRACE_MEMO_MAX = 128


def build_trace(spec: TraceSpec) -> PacketTrace:
    """Materialise ``spec``'s trace, memoising seeded synthetic workloads."""
    if spec.kind in _SEEDED_KINDS:
        fingerprint = spec.fingerprint
        trace = _TRACE_MEMO.get(fingerprint)
        if trace is None:
            trace = spec.build()
            while len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
                _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
            _TRACE_MEMO[fingerprint] = trace
        return trace
    return spec.build()


def execute(spec: RunSpec) -> SimulationResult:
    """Materialise and run one spec: the unit of work of every runner backend.

    This is a module-level function so :class:`ProcessPoolRunner` can send it
    to worker processes by reference.
    """
    profile = get_profile(spec.carrier)
    trace = build_trace(spec.trace)
    policy = spec.policy.build()
    return TraceSimulator(profile).run(trace, policy)
