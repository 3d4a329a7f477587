"""Spans around the calls the benchmark makes into bisectsdp's layers.

A ``Tracer`` rebinds a public function at the name its caller looks it up
by (``bisectsdp.cuts.solve``, ``bisectsdp.cli._BUILDERS["new"]``, ...) to a
wrapper that opens a span, calls the original and lets a hook attach counts
read off the arguments and the result. Spans live in memory; ``spans()``
hands them out with self times once the run is over. ``restore()`` puts
every original back, in reverse order of binding.

Only calls that cross a module boundary at a module-level name can be seen
this way: work inside ``solve`` (sifting passes, Schur assembly, retries)
stays one opaque span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._spans: list[dict] = []
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self._spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        except Exception as exc:
            rec["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def bind(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (or ``owner[attr]`` for a dict) in a span.

        ``on_result(attrs, args, kwargs, result)`` may record counts on the
        span; it runs inside the span, after the original returned.
        """
        is_map = isinstance(owner, dict)
        original = owner[attr] if is_map else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, kwargs, result)
                return result

        if is_map:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._bound.append((owner, attr, original))

    def restore(self) -> None:
        while self._bound:
            owner, attr, original = self._bound.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def spans(self) -> list[dict]:
        """Finished spans with ``dur`` and ``self`` (dur minus children) in seconds."""
        out = [dict(s, attrs=dict(s["attrs"])) for s in self._spans if s["end"] is not None]
        by_id = {s["id"]: s for s in out}
        for s in out:
            s["dur"] = s["end"] - s["start"]
            s["self"] = s["dur"]
        for s in out:
            if s["parent"] in by_id:
                by_id[s["parent"]]["self"] -= s["dur"]
        return out
