"""Metrics registry: labeled counters and span timers.

The design constraint is the one PuDHammer's campaign scale imposes: a
silent degradation (a probe sweep quietly falling back to the scalar
path, a worker pool quietly shrinking) is indistinguishable from a
correct slow run, so every layer that can degrade must *count* what it
did -- but the hot paths it instruments (the batched probe engine runs
hundreds of probes per sweep) cannot afford real bookkeeping when nobody
is looking.  Hence two implementations of one interface:

* :class:`Obs` -- a recording registry.  Counters are keyed by
  ``(name, sorted label items)``; timers accumulate ``(total_s, count)``
  per name.  Everything is a plain dict update, no locks (registries are
  confined to one thread by construction -- the campaign runner keeps one
  per run in the parent process, sessions keep their own).
* :class:`NullObs` -- the disabled registry.  Every method is a no-op
  ``pass`` and :meth:`NullObs.span` returns a shared null context
  manager, so an instrumented call site costs one attribute lookup and
  one empty call.  :data:`NULL_OBS` is the shared singleton default.

Call sites hold a reference (``self.obs = obs or NULL_OBS``) and guard
nothing: ``obs.inc("probe.probes", path="replay")`` is safe and near-free
either way.  The host counts the same way: ``host.chunks{path=stream|
unrolled}`` says whether a hook forced a compiled chunk back to
per-command interpretation, and ``host.chunk_passes{mode=scaled|exact}``
how many of a chunk's passes a PRAC back-off horizon held to one exact
period.  ``obs.enabled`` exists for the rare site that would have to
*build* something expensive just to record it.

An ambient registry is kept for code too far from a constructor to
thread one through: :func:`get_obs` returns it (default
:data:`NULL_OBS`), :func:`set_obs` swaps it, and :func:`using` scopes a
swap to a ``with`` block.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional, Union


def _label_key(labels: dict) -> tuple:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def format_labels(key: tuple) -> str:
    """``(("path", "replay"),)`` -> ``"path=replay"``; ``()`` -> ``""``."""
    return ",".join(f"{k}={v}" for k, v in key)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullObs:
    """Disabled registry: every operation is a no-op.

    Shared as :data:`NULL_OBS`; instrumented code never needs to check
    whether observability is on.
    """

    __slots__ = ()
    enabled = False

    def inc(self, name: str, value: Union[int, float] = 1, **labels) -> None:
        pass

    def observe_s(self, name: str, seconds: float, count: int = 1) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def get(self, name: str, **labels) -> Union[int, float]:
        return 0

    def total(self, name: str) -> Union[int, float]:
        return 0

    def by_label(self, name: str, label: str) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {"counters": {}, "timers": {}}

    def export_json(self, path) -> None:
        pass

    def reset(self) -> None:
        pass


NULL_OBS = NullObs()


class _Span:
    """One timed region; records into the owning registry on exit."""

    __slots__ = ("_obs", "_name", "_t0")

    def __init__(self, obs: "Obs", name: str) -> None:
        self._obs = obs
        self._name = name

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._obs.observe_s(self._name, perf_counter() - self._t0)
        return False


class Obs:
    """Recording registry: labeled counters plus span timers."""

    __slots__ = ("counters", "timers")
    enabled = True

    def __init__(self) -> None:
        #: (name, label items) -> value
        self.counters: dict[tuple[str, tuple], Union[int, float]] = {}
        #: name -> [total seconds, observation count]
        self.timers: dict[str, list] = {}

    # -- counters -------------------------------------------------------
    def inc(self, name: str, value: Union[int, float] = 1, **labels) -> None:
        key = (name, _label_key(labels))
        self.counters[key] = self.counters.get(key, 0) + value

    def get(self, name: str, **labels) -> Union[int, float]:
        """Value of one exact (name, labels) counter (0 when never hit)."""
        return self.counters.get((name, _label_key(labels)), 0)

    def total(self, name: str) -> Union[int, float]:
        """Sum over every label combination of ``name``."""
        return sum(
            value for (n, _), value in self.counters.items() if n == name
        )

    def by_label(self, name: str, label: str) -> dict:
        """``{label value: count}`` across ``name``'s counters.

        Counters of ``name`` that do not carry ``label`` are ignored;
        duplicate label values (differing in *other* labels) are summed.
        """
        out: dict = {}
        for (n, key), value in self.counters.items():
            if n != name:
                continue
            for k, v in key:
                if k == label:
                    out[v] = out.get(v, 0) + value
        return out

    # -- timers ---------------------------------------------------------
    def observe_s(self, name: str, seconds: float, count: int = 1) -> None:
        entry = self.timers.get(name)
        if entry is None:
            self.timers[name] = [seconds, count]
        else:
            entry[0] += seconds
            entry[1] += count

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view: counters by rendered label, timers by name."""
        counters: dict[str, dict[str, Union[int, float]]] = {}
        for (name, key), value in sorted(self.counters.items()):
            counters.setdefault(name, {})[format_labels(key)] = value
        timers = {
            name: {"total_s": total, "count": count}
            for name, (total, count) in sorted(self.timers.items())
        }
        return {"counters": counters, "timers": timers}

    def export_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.snapshot(), indent=1) + "\n")

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()


AnyObs = Union[Obs, NullObs]

_ambient: AnyObs = NULL_OBS


def get_obs() -> AnyObs:
    """The ambient registry (default: the disabled :data:`NULL_OBS`)."""
    return _ambient


def set_obs(obs: Optional[AnyObs]) -> AnyObs:
    """Swap the ambient registry; returns the previous one."""
    global _ambient
    previous = _ambient
    _ambient = obs if obs is not None else NULL_OBS
    return previous


@contextmanager
def using(obs: AnyObs) -> Iterator[AnyObs]:
    """Scope an ambient-registry swap to a ``with`` block."""
    previous = set_obs(obs)
    try:
        yield obs
    finally:
        set_obs(previous)
