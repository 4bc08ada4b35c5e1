"""Per-layer metrics from the spans of one traced pass.

Every ``<layer>.<function>.s`` is self time (the span minus its child
spans), so the layer times add up without double counting; ``cli.<op>.s``
is the whole wall time of the op.  ``peak_mb`` is the largest
``tracemalloc`` peak inside one span.  ``fft.gflop`` (5 n log2 n per
transform) and ``fft.gbytes`` (input plus output array bytes) are computed
from array shapes, not measured.
"""

from __future__ import annotations

OP_LABELS = ("verify", "pairs", "decompose", "sweep", "sweep_cached", "sieve_build", "sieve_verify")
MB = 2**20

# metric prefix -> (span names whose self time it sums, summed span attrs)
GROUPS = {
    "sieve.build_table": (("sieve.build_table",), ("entries",)),
    "sieve.pair_count": (("sieve.pair_count_linear", "sieve.pair_count_circular"), ()),
    "sieve.residue_profile": (("sieve.residue_profile",), ()),
    "sieve.von_mangoldt_vector": (("sieve.von_mangoldt_vector",), ()),
    "sieve.save_table": (("sieve.save_table",), ("bytes",)),
    "sieve.load_table": (("sieve.load_table",), ("bytes",)),
    "sieve.fnv1a64": (("sieve.fnv1a64",), ("bytes",)),
    "transform.ring": (("sieve.PrimeTable.ring_indicator", "transform.as_ring"), ()),
    "transform.forward": (("transform.forward",), ("points",)),
    "transform.phases": (("transform.phases",), ("bytes",)),
    "constants.hl_constant": (("constants.hl_constant",), ()),
    "constants.li2": (("constants.li2",), ()),
    "reports.write_csv": (("reports.write_csv", "reports.render_csv"), ("bytes", "rows")),
    "reports.write_json": (("reports.write_json",), ()),
}
NESTED = {"reports.render_csv"}  # runs only inside write_csv; not a call of its own
WHOLE_MODULES = ("spectral.", "numpy.fft.")


def _peak_mb(spans) -> float:
    return max((s["peak_bytes"] or 0 for s in spans), default=0) / MB


def per_layer(spans: list[dict], op_walls: dict[str, float], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def pick(*names):
        return [s for name in names for s in named.get(name, [])]

    def prefixed(prefix):
        return [s for name, group in named.items() if name.startswith(prefix) for s in group]

    def total(group):
        return sum(s["self_s"] for s in group)

    def attr(group, key):
        return sum(s["attrs"].get(key, 0) for s in group)

    m = {f"cli.{label}.s": op_walls.get(label, 0.0) for label in OP_LABELS}
    m["harness.self_s"] = total(prefixed("harness."))

    for prefix, (names, keys) in GROUPS.items():
        group = pick(*names)
        m[f"{prefix}.calls"] = sum(s["name"] not in NESTED for s in group)
        m[f"{prefix}.s"] = total(group)
        for key in keys:
            m[f"{prefix}.{key}"] = attr(group, key)
    m["sieve.build_table.peak_mb"] = _peak_mb(pick("sieve.build_table"))

    events = [s["attrs"].get("event") for s in pick("sieve.load_or_build")]
    for event, key in (("hit", "hits"), ("miss", "misses"), ("rebuild", "rebuilds")):
        m[f"sieve.cache.{key}"] = events.count(event)
    lookups = sum(e is not None for e in events)
    m["sieve.cache.hit_ratio"] = m["sieve.cache.hits"] / lookups if lookups else 0.0

    ffts = prefixed("numpy.fft.")
    m["fft.calls"] = len(ffts)
    m["fft.s"] = total(ffts)
    for key in ("points", "rough_calls", "gflop", "gbytes"):
        m[f"fft.{key}"] = attr(ffts, key)
    m["fft.peak_mb"] = _peak_mb(ffts)

    spectral = prefixed("spectral.")
    m["spectral.self_s"] = total(spectral)
    for fn in ("pair_count_via_spectrum", "decompose"):
        m[f"spectral.{fn}.calls"] = len(pick(f"spectral.{fn}"))
        m[f"spectral.{fn}.s"] = total(pick(f"spectral.{fn}"))
    m["spectral.peak_mb"] = _peak_mb(spectral)

    # harness functions enclose whole ops, so their self time would hold
    # whatever no layer span covers; coverage counts the layers only
    layered = [s for s in spans if not s["name"].startswith(("cli.", "harness."))]
    listed = {name for names, _ in GROUPS.values() for name in names}
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.coverage"] = total(layered) / traced_wall
    m["trace.unlisted_self_s"] = total(
        s for s in layered if s["name"] not in listed and not s["name"].startswith(WHOLE_MODULES)
    )
    return m
