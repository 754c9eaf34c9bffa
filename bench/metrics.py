"""Summary statistics and pinned-reference checks used by the benchmark."""

import json
import statistics
from pathlib import Path

import numpy as np

PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())

# candidate percentiles, lowest first
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n, min_beyond=10):
    """Highest candidate percentile with at least ``min_beyond`` of ``n``
    samples beyond it, or None when not even the median qualifies."""
    best = None
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= min_beyond:
            best = p
    return best


def percentile(values, p):
    """Linear-interpolation percentile of a list of floats."""
    return float(np.percentile(values, p))


def failed_ratio(samples):
    """Failed operations over attempted ones; a sample fails when it has
    any problem (an exception or a mismatched output)."""
    if not samples:
        raise ValueError("no operations attempted")
    return sum(1 for s in samples if s["problems"]) / len(samples)


def relative_spread(values):
    """Inter-quartile distance over the median, as the acceptance rule
    computes it with ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def check_eta(period, eta, rel=1e-8):
    """Problem text when ``eta`` misses the pinned efficiency at ``period``."""
    pin = PINS["carnot_eta"][f"{period:g}"]
    if eta is None or not abs(eta - pin) <= rel * abs(pin):
        return f"eta(T={period:g}) = {eta!r}, pinned {pin!r} (rel {rel:g})"
    return None


def pinned_moments(key):
    """Pinned closed-form limit-cycle moments (n, m, mbar) at phase 0."""
    return [complex(re, im) for re, im in PINS["frame_moments_t0"][key]]
