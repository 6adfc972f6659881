"""The algorithm registry: one typed :class:`AlgorithmSpec` per algorithm.

Algorithms self-register at import time with the :func:`register_algorithm`
decorator, carrying a name, a typed parameter schema (defaults, ranges,
choices), the guarantee the paper proves for them, and the kind of structure
they output.  The registry is the single source of truth behind

* :func:`repro.api.solve.solve` and the saved-spec runner,
* :class:`repro.engine.batch.BatchRunner` task resolution (``runner.run("kdelta", ...)``),
* the CLI — ``repro color <algorithm>``, ``repro batch --task``, ``repro
  list-algorithms`` and all ``--param`` validation are *generated* from the
  specs here, so a newly registered algorithm appears everywhere with zero
  CLI edits.

The registered runner has the task signature of the engine layer::

    runner(workload: Workload, engine: Engine, **params) -> Mapping[str, Any]

where keys starting with ``"_"`` are artifacts (arrays used for parity
checking) and everything else is a scalar measurement.

Builtin algorithms live next to their implementations (``repro.core.*`` and
``repro.analysis.experiments``); those modules are imported lazily on first
registry access so that importing :mod:`repro.engine` alone stays cheap and
cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "AlgorithmError",
    "UnknownAlgorithmError",
    "UnknownParameterError",
    "ParameterValueError",
    "ParamSpec",
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "algorithm_names",
    "algorithm_specs",
    "validate_params",
]


class AlgorithmError(Exception):
    """Base class for registry errors."""


class UnknownAlgorithmError(AlgorithmError, KeyError):
    """An algorithm name that is not in the registry."""

    def __init__(self, name: str, known: Sequence[str]):
        self.name = name
        self.known = list(known)
        super().__init__(f"unknown algorithm {name!r}; known: {sorted(known)}")

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


class UnknownParameterError(AlgorithmError, TypeError):
    """A parameter key the algorithm's schema does not declare."""

    def __init__(self, algorithm: str, unknown: Iterable[str], accepted: Iterable[str]):
        self.algorithm = algorithm
        self.unknown = sorted(unknown)
        self.accepted = sorted(accepted)
        super().__init__(
            f"unknown parameter(s) {self.unknown} for algorithm {algorithm!r}; "
            f"accepted: {self.accepted or '(none)'}"
        )


class ParameterValueError(AlgorithmError, ValueError):
    """A parameter value of the wrong type or outside its declared range."""


_REQUIRED = object()


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter of an algorithm.

    Attributes
    ----------
    name:
        The keyword the runner accepts (and the ``--<name>`` CLI flag).
    type:
        ``int`` / ``float`` / ``bool`` / ``str``.
    default:
        Default value; omit to make the parameter required.
    help:
        One-line description (shown by ``repro list-algorithms`` and the CLI).
    minimum:
        Inclusive lower bound for numeric parameters.
    choices:
        Allowed values for string parameters.
    """

    name: str
    type: type = int
    default: Any = _REQUIRED
    help: str = ""
    minimum: int | float | None = None
    choices: tuple[Any, ...] | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    def describe(self) -> str:
        """Compact ``name=default`` / ``name:type (required)`` rendering."""
        if self.required:
            return f"{self.name}:{self.type.__name__} (required)"
        return f"{self.name}={self.default!r}"

    def validate(self, algorithm: str, value: Any) -> None:
        """Raise :class:`ParameterValueError` unless ``value`` fits this spec."""
        ok_types: tuple[type, ...] = (self.type,)
        if self.type is float:
            ok_types = (int, float)  # integral values are fine for float params
        if isinstance(value, bool) and self.type is not bool:
            ok_types = ()  # bool is an int subclass; never silently accept it
        if not isinstance(value, ok_types):
            raise ParameterValueError(
                f"parameter {self.name!r} of algorithm {algorithm!r} expects "
                f"{self.type.__name__}, got {value!r} ({type(value).__name__})"
            )
        if self.minimum is not None and value < self.minimum:
            raise ParameterValueError(
                f"parameter {self.name!r} of algorithm {algorithm!r} must be "
                f">= {self.minimum}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ParameterValueError(
                f"parameter {self.name!r} of algorithm {algorithm!r} must be one of "
                f"{list(self.choices)}, got {value!r}"
            )

    def parse(self, algorithm: str, text: str) -> Any:
        """Parse a CLI string (``--param name=VALUE``) into a validated value."""
        value: Any
        if self.type is bool:
            lowered = text.lower()
            if lowered not in ("true", "false", "1", "0", "yes", "no"):
                raise ParameterValueError(
                    f"parameter {self.name!r} of algorithm {algorithm!r} expects a "
                    f"boolean (true/false), got {text!r}"
                )
            value = lowered in ("true", "1", "yes")
        elif self.type in (int, float):
            try:
                value = self.type(text)
            except ValueError:
                raise ParameterValueError(
                    f"parameter {self.name!r} of algorithm {algorithm!r} expects "
                    f"{self.type.__name__}, got {text!r}"
                ) from None
        else:
            value = text
        self.validate(algorithm, value)
        return value


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: metadata plus its workload-level runner."""

    name: str
    runner: Callable[..., Mapping[str, Any]]
    summary: str
    guarantee: str
    output: str = "coloring"  # "coloring" | "ruling set"
    params: tuple[ParamSpec, ...] = ()
    #: The corollary / theorem of the paper this algorithm realises.
    source: str = ""
    #: Whether the runner consumes the standing Delta^4 input coloring.
    requires_input_coloring: bool = True

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise UnknownParameterError(self.name, [name], [p.name for p in self.params])

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]

    def signature(self) -> str:
        """``name(k=1, d=2, ...)`` — the compact form used in listings."""
        inner = ", ".join(p.describe() for p in self.params)
        return f"{self.name}({inner})"

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Validate ``params`` against the schema; returns them unchanged.

        Unknown keys raise :class:`UnknownParameterError` (naming the
        algorithm and the accepted keys), ill-typed or out-of-range values
        raise :class:`ParameterValueError`, and missing required parameters
        raise :class:`ParameterValueError` as well.  Values are *not* coerced
        or defaulted — the validated dict is byte-identical to the input, so
        cell keys and tidy records are unaffected by validation.
        """
        declared = {p.name: p for p in self.params}
        unknown = set(params) - set(declared)
        if unknown:
            raise UnknownParameterError(self.name, unknown, declared)
        for key, value in params.items():
            declared[key].validate(self.name, value)
        missing = [p.name for p in self.params if p.required and p.name not in params]
        if missing:
            raise ParameterValueError(
                f"algorithm {self.name!r} is missing required parameter(s) {missing}; "
                f"signature: {self.signature()}"
            )
        return dict(params)


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #

_REGISTRY: dict[str, AlgorithmSpec] = {}

#: Modules that register the builtin algorithms (imported lazily, once).
_BUILTIN_MODULES = (
    "repro.core.corollaries",
    "repro.core.linial",
    "repro.core.pipelines",
    "repro.core.ruling_sets",
    "repro.analysis.experiments",
)
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True  # set first: the imports below re-enter the registry
    import importlib

    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
    except BaseException:
        # A failed builtin import must not latch a partial registry: the next
        # call retries (and surfaces the real cause again) instead of
        # reporting a misleading UnknownAlgorithmError.
        _builtins_loaded = False
        raise


def register_algorithm(
    name: str,
    *,
    summary: str,
    guarantee: str,
    output: str = "coloring",
    params: Sequence[ParamSpec] = (),
    source: str = "",
    requires_input_coloring: bool = True,
    overwrite: bool = False,
) -> Callable[[Callable[..., Mapping[str, Any]]], Callable[..., Mapping[str, Any]]]:
    """Class the decorated ``runner(workload, engine, **params)`` as an algorithm.

    The decorator registers an :class:`AlgorithmSpec` under ``name`` and
    returns the runner unchanged (so it stays importable for process-pool
    workers).  Registering an existing name raises unless ``overwrite=True``.
    """

    def decorator(runner: Callable[..., Mapping[str, Any]]):
        if name in _REGISTRY and not overwrite:
            raise AlgorithmError(
                f"algorithm {name!r} is already registered "
                f"(by {_REGISTRY[name].runner!r}); pass overwrite=True to replace it"
            )
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            runner=runner,
            summary=summary,
            guarantee=guarantee,
            output=output,
            params=tuple(params),
            source=source,
            requires_input_coloring=requires_input_coloring,
        )
        return runner

    return decorator


def get_algorithm(name: str) -> AlgorithmSpec:
    """The :class:`AlgorithmSpec` registered under ``name``."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAlgorithmError(name, list(_REGISTRY)) from None


def algorithm_names() -> list[str]:
    """Sorted names of every registered algorithm."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def algorithm_specs() -> list[AlgorithmSpec]:
    """Every registered :class:`AlgorithmSpec`, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def validate_params(algorithm: str | AlgorithmSpec, params: Mapping[str, Any]) -> dict[str, Any]:
    """Validate ``params`` against ``algorithm``'s schema (see the spec method)."""
    spec = algorithm if isinstance(algorithm, AlgorithmSpec) else get_algorithm(algorithm)
    return spec.validate_params(params)

