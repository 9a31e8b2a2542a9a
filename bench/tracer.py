"""Per-layer spans and counts, measured from outside the package.

The tracer replaces public functions of the nrtloops modules with timing
wrappers for the length of one traced round, and puts the originals back
afterwards. A function is replaced in every module namespace that holds it
(``group_torsion`` is looked up inside ``isotopy`` as well as inside
``rightloops``), so calls between modules are seen too.

Each span's self time is its duration minus the whole cost of the
wrapped calls nested inside it, their wrappers' bookkeeping included, so
that the tracer's own cost is charged to no layer. Aggregates are kept
for every span; the raw spans (id, parent id, name, start, end) are kept
only up to ``SPAN_CAP``, since a classify round makes millions of them.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "nrtloops"
SPAN_CAP = 50_000
_END = object()


def _is_hit(result) -> int:
    return int(result is not None)


def _order(result) -> int:
    return result.order


# module, attribute, span, calls metric, (tally metric, tally of the result)
LAYERS = (
    ("groups", "cyclic_group", "groups.build", None, None),
    ("groups", "dihedral_group", "groups.build", None, None),
    ("groups", "symmetric_group", "groups.build", None, None),
    ("groups", "alternating_group", "groups.build", None, None),
    ("groups", "build_named_group", "groups.build", None, None),
    ("groups", "parse_subgroup", "groups.build", None, None),
    ("groups", "subgroup", "groups.build", None, None),
    ("groups", "generated_subgroup", "groups.build", None, None),
    ("groups", "right_cosets", "groups.build", None, None),
    ("groups", "core", "groups.build", None, None),
    ("groups", "quotient", "groups.build", None, None),
    ("transversals", "enumerate_transversals", "transversals.enumerate", None, None),
    ("transversals", "induced_right_loop", "transversals.induce", "transversals.induced", None),
    ("rightloops", "validate_right_loop", "rightloops.validate", "rightloops.validated", None),
    (
        "rightloops",
        "group_torsion",
        "rightloops.torsion",
        "rightloops.torsion_calls",
        ("rightloops.torsion_elements", _order),
    ),
    ("rightloops", "structure_flags", "rightloops.flags", "rightloops.flags_calls", None),
    ("isotopy", "classify", "isotopy.classify", None, None),
    (
        "isotopy",
        "are_isotopic",
        "isotopy.isotopic",
        "isotopy.isotopic_calls",
        ("isotopy.isotopic_hits", _is_hit),
    ),
    (
        "isotopy",
        "are_isomorphic",
        "isotopy.isomorphic",
        "isotopy.isomorphic_calls",
        ("isotopy.isomorphic_hits", _is_hit),
    ),
    (
        "isotopy",
        "principal_isotope_with_relabel",
        "isotopy.principal_isotope",
        "isotopy.principal_isotopes",
        None,
    ),
    (
        "isotopy",
        "IsotopyWitness.verify",
        "isotopy.witness_verify",
        "isotopy.witness_verifies",
        None,
    ),
    (
        "isotopy",
        "brute_force_isotopy_oracle",
        "isotopy.oracle",
        "isotopy.oracle_calls",
        None,
    ),
    ("isotopy", "autotopy_group", "isotopy.autotopy", "isotopy.autotopy_calls", None),
    ("flips", "affine_family", "flips.family", "flips.family_calls", None),
    ("flips", "affine_families", "flips.family", None, None),
    ("burnside", "dihedral_isotopy_count", "burnside.count", None, None),
    ("burnside", "subset_orbit_count", "burnside.count", None, None),
    ("cli", "main", "cli.self", None, None),
)

# Wrapped generators: each item they yield is one span and one count.
ITERATORS = {"enumerate_transversals": "transversals.enumerated"}


class Tracer:
    """Wraps the layer functions of one imported package while active."""

    def __init__(self):
        self.self_ns = Counter()
        self.inclusive_ns = Counter()
        self.span_calls = Counter()
        self.counts = Counter()
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.span_total = 0
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self) -> list[int]:
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0, self.span_total, parent]
        self.span_total += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[int], name: str, t0: int, t1: int) -> None:
        self._stack.pop()
        dt = t1 - t0
        self.self_ns[name] += dt - frame[0]
        self.inclusive_ns[name] += dt
        self.span_calls[name] += 1
        if frame[1] < SPAN_CAP:
            self.spans.append((frame[1], frame[2], name, t0, t1))

    def _charge_parent(self, entered: int) -> None:
        """Charge a finished child's whole cost, from entering its wrapper
        until now, to the enclosing span."""
        if self._stack:
            self._stack[-1][0] += perf_counter_ns() - entered

    def _wrap(self, fn, span: str, calls_metric, tally, item_metric):
        counts = self.counts
        tracer = self

        def traced_iter(iterator):
            while True:
                entered = perf_counter_ns()
                frame = tracer._open()
                try:
                    t0 = perf_counter_ns()
                    try:
                        item = next(iterator, _END)
                    finally:
                        tracer._close(frame, span, t0, perf_counter_ns())
                    if item is _END:
                        return
                    counts[item_metric] += 1
                finally:
                    tracer._charge_parent(entered)
                yield item

        def wrapper(*args, **kwargs):
            entered = perf_counter_ns()
            frame = tracer._open()
            try:
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame, span, t0, perf_counter_ns())
                if calls_metric:
                    counts[calls_metric] += 1
                if tally:
                    counts[tally[0]] += tally[1](result)
                if item_metric:
                    return traced_iter(iter(result))
                return result
            finally:
                tracer._charge_parent(entered)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every layer function in every package namespace."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, attribute, span, calls_metric, tally in LAYERS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patched.append((owner, method, original))
                setattr(owner, method, self._wrap(original, span, calls_metric, tally, None))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(
                original, span, calls_metric, tally, ITERATORS.get(attribute)
            )
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patched.append((namespace, name, original))
                        setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time in seconds per span (as '<span>_s') and every count."""
        spans = {name for _, _, name, _, _ in LAYERS}
        metrics = {f"{name}_s": self.self_ns[name] / 1e9 for name in sorted(spans)}
        for _, _, _, calls_metric, tally in LAYERS:
            if calls_metric:
                metrics[calls_metric] = self.counts[calls_metric]
            if tally:
                metrics[tally[0]] = self.counts[tally[0]]
        for metric in ITERATORS.values():
            metrics[metric] = self.counts[metric]
        return metrics

    def to_json_obj(self) -> dict:
        return {
            "layers": {
                name: {
                    "calls": self.span_calls[name],
                    "inclusive_s": self.inclusive_ns[name] / 1e9,
                    "self_s": self.self_ns[name] / 1e9,
                }
                for name in sorted(self.span_calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "span_total": self.span_total,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
