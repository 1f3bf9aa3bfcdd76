"""Outside-in tracing of qecbound's layers for the traced benchmark run.

Wrappers are installed at the module attributes where qecbound's own
callers look functions up (so `qecbound.driver.syndrome_of`, not
`qecbound.errorspace.syndrome_of`) and on the methods of `VisitedSet` and
`BoundAccumulators`.  A proxy stands in for the decoder.  The program's
source is untouched, and `restore` puts every original back.  Only the
traced run imports this module.

Spans are kept in memory as (name, start, end, parent) in flat arrays and
written out at the end; the parent of a span is the span that was open
when it began, so the spans of one run call share the run's span as
their root.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

_clock = time.perf_counter

# (module, attribute, span name): functions the driver and the optimizer
# call through their own module globals.
FUNCTION_TARGETS = [
    ("qecbound.compiler", "check_well_defined", "compiler.check"),
    ("qecbound.driver", "syndrome_of", "errorspace.syndrome"),
    ("qecbound.driver", "observable_of", "errorspace.syndrome"),
    ("qecbound.driver", "terms_from_bitstrings", "polynomial.terms"),
    ("qecbound.driver", "robustness_bounds", "polynomial.optimizer"),
    ("qecbound.polynomial", "partial_derivative_simplified", "polynomial.derivative"),
    ("qecbound.polynomial", "bound_terms_individually", "polynomial.termwise"),
    ("qecbound.driver", "sample_unseen_batch", "sampling"),
    ("qecbound.driver", "kl_confidence_interval", "sampling.kl"),
]

# (module, class, method, span name)
METHOD_TARGETS = [
    ("qecbound.errorspace", "VisitedSet", "add", "errorspace.visited_add"),
    ("qecbound.polynomial", "BoundAccumulators", "accumulate", "polynomial.accumulate"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_id = array("l")
        self._next = 0
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.unique: set[int] = set()
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self) -> tuple[int, int, float]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, _clock()

    def finish(self, nid: int, token: tuple[int, int, float]) -> None:
        t1 = _clock()
        sid, parent, t0 = token
        self._stack.pop()
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.span_id.append(sid)

    @contextmanager
    def span(self, name: str):
        nid = self._nid(name)
        token = self.begin()
        try:
            yield token[0]
        finally:
            self.finish(nid, token)

    def reset_counts(self) -> None:
        self.counts = {}
        self.unique = set()

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, name: str, after=None):
        nid = self._nid(name)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            token = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(nid, token)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists; absent ones are listed in `missing`."""
        import importlib

        after = {
            "polynomial.terms": lambda a, r: self.count("polynomial.terms_count", len(r)),
            "polynomial.optimizer": self._after_optimizer,
        }
        for mod_name, attr, name in FUNCTION_TARGETS:
            mod = importlib.import_module(mod_name)
            fn = mod.__dict__.get(attr)
            if fn is None:
                self._missing(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(fn, name, after.get(name))
            if name == "sampling":
                wrapped = self._guard_counter(wrapped)
            self._set(mod, attr, wrapped)
        for mod_name, cls_name, meth, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            if cls is None or meth not in cls.__dict__:
                self._missing(f"{mod_name}.{cls_name}.{meth}")
                continue
            hook = self._after_visited_add if meth == "add" else None
            self._set(cls, meth, self._wrap(cls.__dict__[meth], name, hook))

    def _missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    def _guard_counter(self, fn):
        from qecbound.sampling import RejectionGuardExceeded

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RejectionGuardExceeded:
                self.count("sampling.guard_trips")
                raise

        return wrapper

    def _after_optimizer(self, args, result) -> None:
        self.count("polynomial.exact_sides",
                   int(bool(result.lower_exact)) + int(bool(result.upper_exact)))

    def _after_visited_add(self, args, result) -> None:
        self.peak("errorspace.visited_extras", len(args[0].extras))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------
    def totals(self, root: int, since: int = 0) -> dict[str, tuple[int, float]]:
        """(calls, seconds) per span name over the spans below `root`, plus
        '<root>' for the root's own span and '<self>' for the part of it
        that its direct children do not cover.  Spans stored before index
        `since` are not looked at."""
        below = {root}
        out: dict[str, list] = {}
        root_dur = 0.0
        child_dur = 0.0
        # Spans are stored in finishing order, so children precede their
        # parents; walk backwards to see each parent before its children.
        for i in range(len(self.span_id) - 1, since - 1, -1):
            sid, par = self.span_id[i], self.parent[i]
            dur = self.end[i] - self.start[i]
            if sid == root:
                root_dur = dur
                continue
            if par not in below:
                continue
            below.add(sid)
            if par == root:
                child_dur += dur
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += dur
        result = {k: (v[0], v[1]) for k, v in out.items()}
        result["<root>"] = (1, root_dur)
        result["<self>"] = (1, root_dur - child_dur)
        return result

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
        )


class DecoderProxy:
    """Forwards `decode`, `decode_batch` and `close`, timing each call and
    counting the syndromes it carries and how many were new.  Any other
    attribute is the wrapped decoder's."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self._t = tracer
        self._decode = tracer._nid("decoders.decode")
        self._close = tracer._nid("decoders.close")

    def decode(self, syndrome):
        t = self._t
        token = t.begin()
        try:
            return self.inner.decode(syndrome)
        finally:
            t.finish(self._decode, token)
            t.count("decoders.decode_calls")
            t.count("decoders.syndromes")
            t.unique.add(syndrome)

    def decode_batch(self, syndromes):
        syndromes = list(syndromes)
        t = self._t
        token = t.begin()
        try:
            return self.inner.decode_batch(syndromes)
        finally:
            t.finish(self._decode, token)
            t.count("decoders.decode_calls")
            t.count("decoders.syndromes", len(syndromes))
            t.unique.update(syndromes)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def close(self):
        token = self._t.begin()
        try:
            return self.inner.close()
        finally:
            self._t.finish(self._close, token)
