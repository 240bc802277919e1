"""Comparison of op output summaries, and the recorded reference values.

An op's output is reduced, outside the timed section, to a flat summary of
JSON values.  Each workload names how every field is compared:

  "exact"          bit-identical (counts, max- and mask-valued outputs, exact
                   fractions, hashes of masks); also compared to the reference
  "digest"         bit-identical between rounds of one run only (the hash of a
                   float output whose reference comparison is by tolerance)
  ("rel", t, f)    |value - ref| <= t * |ref[f]|, or t * |ref| when f is None
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(arr.dtype.str.encode() + repr(arr.shape).encode()
                          + arr.tobytes()).hexdigest()[:32]


def mask_digest(mask: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(np.asarray(mask, dtype=bool)).tobytes()
                          ).hexdigest()[:32]


def text_digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:32]


def params_digest(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()
                          ).hexdigest()[:16]


def compare(summary: dict, ref: dict, fields: dict, *, within_run: bool
            ) -> list[str]:
    """Mismatches of summary against ref under the field rules."""
    if not within_run:
        summary = reference_fields(summary, fields)
    if set(summary) != set(ref):
        return [f"fields differ: {sorted(set(summary) ^ set(ref))}"]
    out = []
    for key, rule in fields.items():
        if key not in ref:
            continue
        got, want = summary[key], ref[key]
        if within_run or rule in ("exact", "digest"):
            if got != want:
                out.append(f"{key}: {got!r} != {want!r}")
            continue
        _, tol, scale_key = rule
        scale = abs(ref[scale_key] if scale_key else want)
        if not abs(got - want) <= tol * scale:
            out.append(f"{key}: {got!r} vs reference {want!r} "
                       f"(allowed {tol:g} x {scale!r})")
    return out


def reference_fields(summary: dict, fields: dict) -> dict:
    """The part of a summary that is compared with the reference."""
    return {k: v for k, v in summary.items() if fields[k] != "digest"}


def write_reference(workload: str, meta: dict, seeds: dict) -> Path:
    """One line per seed, so that a re-recording diffs by seed."""
    body = ",\n".join(f"  {json.dumps(s)}: {json.dumps(v)}" for s, v in seeds.items())
    text = json.dumps(meta, indent=1)[:-2] + ',\n "seeds": {\n' + body + "\n }\n}\n"
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    return path


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def reference_for(workload: str, params_hash: str, seed: int
                  ) -> tuple[list | None, str]:
    """The recorded summaries for (workload, seed) and a status line."""
    path = reference_path(workload)
    if not path.is_file():
        return None, "none recorded for this workload"
    entry = json.loads(path.read_text())
    if entry["params_sha256"] != params_hash:
        return None, "MISMATCH: workload parameters changed since recording"
    ops = entry["seeds"].get(str(seed))
    if ops is None:
        return None, (f"none for seed {seed} (recorded seeds "
                      f"{entry['seed_range']}); invariant checks only")
    return ops, "recorded"
