"""Fault injection for the execution plane: kill, hang, raise — on demand.

The hard part of testing fault tolerance is *causing* faults deterministically
in the right process: a pool worker mid-cell, the parent mid-sink-write, the
jit tier inside a kernel call.  This module is the one seam for all of it.

A :class:`FaultPlan` is a list of :class:`Fault` triggers.  Production code
calls :func:`fire` at a handful of fixed *sites*; when an installed plan has
a matching fault, the fault's *op* executes:

========== ===================================================================
site       fired from
========== ===================================================================
cell       the start of every cell attempt (serial runner and pool workers)
sink-write just before the JSONL sink appends a record
jit        the entry of every :class:`~repro.engine.jit.JitEngine` primitive
server-cell the job server's per-cell progress hook (worker threads)
========== ===================================================================

========== ===================================================================
op         effect
========== ===================================================================
raise      raise the configured exception type (default :class:`InjectedFault`)
kill       ``SIGKILL`` the current process — a real, uncatchable worker death
exit       ``os._exit(code)`` — death without signal delivery
hang       sleep ``seconds`` (then return) — a kernel blowing its deadline
========== ===================================================================

Plans install two ways:

* :func:`install` — programmatic, current process only (in-process tests).
* the ``REPRO_FAULTS`` environment variable — the plan's JSON form.  The
  environment is inherited by pool workers under both ``fork`` and ``spawn``
  start methods, which is what lets a test kill a worker the *parent* never
  sees from the inside.

Triggers select their firing point with ``nth`` (the Nth matching hit of the
site, counted per process), ``match`` (equality on the context the site
passes — e.g. ``{"seed": 2}`` or ``{"attempt": 1}``), and ``once`` (a named
cross-process marker: the fault fires a single time *globally*, implemented
as an ``O_EXCL`` marker file in ``marker_dir``).  ``once`` is what makes
kill/hang faults converge: the respawned worker that retries the cell
inherits the same plan, finds the marker, and runs the cell cleanly.

The no-plan fast path is one dict lookup plus an environment read — cheap
enough to leave the seams in production code unconditionally.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "ENV_VAR",
    "SITES",
    "OPS",
    "InjectedFault",
    "Fault",
    "FaultPlan",
    "install",
    "clear",
    "active_plan",
    "fire",
    "fired_names",
    "reset_counters",
]

#: Environment variable carrying a JSON-serialized :class:`FaultPlan`.
ENV_VAR = "REPRO_FAULTS"

SITES = ("cell", "sink-write", "jit", "server-cell")
OPS = ("raise", "kill", "exit", "hang")


class InjectedFault(RuntimeError):
    """The default exception an injected ``raise`` fault throws."""


#: Exception types a ``raise`` fault may name.  A closed set: the plan format
#: crosses process boundaries as env text, so it names types, not pickles.
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "InjectedFault": InjectedFault,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "OSError": OSError,
    "MemoryError": MemoryError,
    "SystemExit": SystemExit,
    "KeyboardInterrupt": KeyboardInterrupt,
}


@dataclass(frozen=True)
class Fault:
    """One trigger: *when* to fire (site/nth/match/once) and *what* to do (op)."""

    site: str
    op: str = "raise"
    nth: int | None = None
    match: tuple[tuple[str, Any], ...] = ()
    seconds: float = 0.0
    exception: str = "InjectedFault"
    message: str = "injected fault"
    once: str | None = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {list(SITES)}")
        if self.op not in OPS:
            raise ValueError(f"unknown fault op {self.op!r}; known: {list(OPS)}")
        if self.op == "raise" and self.exception not in _EXCEPTIONS:
            raise ValueError(f"unknown fault exception {self.exception!r}; "
                             f"known: {sorted(_EXCEPTIONS)}")
        if self.nth is not None and (not isinstance(self.nth, int) or self.nth < 1):
            raise ValueError(f"Fault.nth must be a 1-based int, got {self.nth!r}")
        if isinstance(self.match, Mapping):
            object.__setattr__(self, "match", tuple(sorted(self.match.items())))

    def matches(self, context: Mapping[str, Any]) -> bool:
        return all(key in context and context[key] == value for key, value in self.match)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site, "op": self.op}
        if self.nth is not None:
            out["nth"] = self.nth
        if self.match:
            out["match"] = dict(self.match)
        if self.op == "hang":
            out["seconds"] = self.seconds
        if self.op == "raise":
            out["exception"] = self.exception
            out["message"] = self.message
        if self.once is not None:
            out["once"] = self.once
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Fault":
        known = {"site", "op", "nth", "match", "seconds", "exception", "message", "once"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault field(s) {sorted(unknown)}; allowed: {sorted(known)}")
        return cls(
            site=str(data["site"]),
            op=str(data.get("op", "raise")),
            nth=data.get("nth"),
            match=tuple(sorted((data.get("match") or {}).items())),
            seconds=float(data.get("seconds", 0.0)),
            exception=str(data.get("exception", "InjectedFault")),
            message=str(data.get("message", "injected fault")),
            once=data.get("once"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A set of faults plus the directory their cross-process markers live in."""

    faults: tuple[Fault, ...] = ()
    marker_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.marker_dir is None and any(f.once is not None for f in self.faults):
            raise ValueError("a FaultPlan with 'once' faults needs a marker_dir "
                             "(the directory the cross-process once-markers live in)")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"faults": [f.to_dict() for f in self.faults]}
        if self.marker_dir is not None:
            out["marker_dir"] = self.marker_dir
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        unknown = set(data) - {"faults", "marker_dir"}
        if unknown:
            raise ValueError(f"unknown fault plan field(s) {sorted(unknown)}")
        return cls(
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", ())),
            marker_dir=data.get("marker_dir"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def env(self) -> dict[str, str]:
        """The environment entry that ships this plan to child processes."""
        return {ENV_VAR: self.to_json()}


# --------------------------------------------------------------------------- #
# Process-local state
# --------------------------------------------------------------------------- #

#: Programmatically installed plan (wins over the environment).
_installed: FaultPlan | None = None

#: Cache of the parsed environment plan, keyed by the raw env value.
_env_cache: tuple[str, FaultPlan] | None = None

#: Per-site hit counters (per process; a respawned worker starts fresh —
#: cross-process single-fire semantics come from ``once`` markers).
_counters: dict[str, int] = {}

#: Names of faults that fired in *this* process (``once`` name, else
#: ``site#counter``) — the in-process observability hook tests poll.
_fired: list[str] = []


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` in this process (takes precedence over ``REPRO_FAULTS``)."""
    global _installed
    _installed = plan
    reset_counters()


def clear() -> None:
    """Remove any programmatic plan and reset counters/fired state."""
    install(None)


def reset_counters() -> None:
    _counters.clear()
    _fired.clear()


def fired_names() -> tuple[str, ...]:
    """Faults that fired in this process, in order (for tests to poll)."""
    return tuple(_fired)


def active_plan() -> FaultPlan | None:
    """The plan in effect: the installed one, else the ``REPRO_FAULTS`` env plan."""
    global _env_cache
    if _installed is not None:
        return _installed
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _env_cache is None or _env_cache[0] != raw:
        _env_cache = (raw, FaultPlan.from_json(raw))
        reset_counters()  # a fresh plan counts from zero
    return _env_cache[1]


# --------------------------------------------------------------------------- #
# The seam
# --------------------------------------------------------------------------- #


def _claim_once(plan: FaultPlan, name: str) -> bool:
    """Atomically claim a cross-process once-marker; True if we won the race."""
    path = os.path.join(plan.marker_dir, f"repro-fault-{name}.marker")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False  # unusable marker dir: fail safe (never fire twice-able ops)
    os.write(fd, f"pid={os.getpid()}\n".encode("ascii"))
    os.close(fd)
    return True


def fire(site: str, **context: Any) -> None:
    """The production-code seam: evaluate the active plan at ``site``.

    ``context`` is whatever the call site knows (cell identity, attempt
    number, write count, job id); ``match`` entries test equality against it.
    Returns immediately when no plan is active.
    """
    plan = active_plan()
    if plan is None:
        return
    _counters[site] = _counters.get(site, 0) + 1
    count = _counters[site]
    for fault in plan.faults:
        if fault.site != site:
            continue
        if fault.nth is not None and fault.nth != count:
            continue
        if not fault.matches(context):
            continue
        if fault.once is not None and not _claim_once(plan, fault.once):
            continue
        _fired.append(fault.once or f"{site}#{count}")
        _execute(fault)


def _execute(fault: Fault) -> None:
    if fault.op == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover — never survives the signal
    elif fault.op == "exit":
        os._exit(137)
    elif fault.op == "hang":
        time.sleep(fault.seconds)
    else:  # "raise"
        raise _EXCEPTIONS[fault.exception](fault.message)
