"""Pure response-payload builders for the serving daemon.

Everything a client receives as a *result* — job status bodies, record
dumps, recommendation tables — is built here, and only here, from data
passed in explicitly.  These functions are registered as FLOW001
result-bearing roots (``lint/flow/passes.py``), so the interprocedural
lint proves their transitive closure never reaches a wall-clock read or
unseeded RNG: a served response can depend on what the sweep computed
and on the request, never on when the daemon happened to answer.
Timestamps deliberately do not exist anywhere in the serving protocol —
ordering is carried by job ids and event sequence numbers instead.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.sweep import SweepResult
from repro.frame.columns import RecordBlock

__all__ = [
    "job_payload",
    "records_payload",
    "recommend_payload",
    "sweep_summary_payload",
]

#: Record-payload fields in order, then the EnvConfig fields of its
#: ``config`` (``num_threads`` there is the ``cfg_num_threads`` column).
_RECORD_FIELDS = ("arch", "app", "suite", "input_size", "num_threads",
                  "config", "runtimes")
_CONFIG_FIELDS = ("num_threads", "places", "proc_bind", "schedule",
                  "library", "blocktime", "force_reduction", "align_alloc")


def records_payload(block: RecordBlock) -> dict:
    """A full record dump — the body of ``GET /jobs/<id>/records``.

    Built from the sweep block column by column (one ``tolist`` each;
    the ``-1`` sentinels of unset ints become ``None``).  This is the
    payload the ``service-degrade-parity`` check compares against a
    direct :func:`~repro.core.sweep.run_sweep`, so it must be a pure
    function of the block alone.
    """
    cols = {name: arr.tolist() for name, arr in block.to_arrays().items()}
    for name in ("cfg_num_threads", "align_alloc"):
        cols[name] = [None if v < 0 else v for v in cols[name]]
    if block.columns["runtimes"].width == 1:
        cols["runtimes"] = [[t] for t in cols["runtimes"]]
    cols["config"] = [dict(zip(_CONFIG_FIELDS, cfg)) for cfg in zip(
        cols["cfg_num_threads"], *(cols[f] for f in _CONFIG_FIELDS[1:]))]
    return {
        "n_records": len(block),
        "records": [dict(zip(_RECORD_FIELDS, row))
                    for row in zip(*(cols[f] for f in _RECORD_FIELDS))],
    }


def sweep_summary_payload(result: SweepResult) -> dict:
    """The result-bearing summary attached to a finished sweep job."""
    report = result.failure_report
    return {
        "n_samples": result.n_samples,
        "n_measurements": result.n_measurements,
        "n_cached_batches": result.n_cached_batches,
        "n_computed_batches": result.n_computed_batches,
        "n_quarantined_batches": result.n_quarantined_batches,
        "backend": result.backend,
        "n_shards": result.n_shards,
        "failures": report.to_dict() if report is not None else None,
    }


def job_payload(view: dict) -> dict:
    """A job's status body — ``GET /jobs/<id>`` and the 202 response.

    ``view`` is the queue's plain-dict snapshot of one job (id, state,
    degradation markers, counters); this function only shapes it, so
    the FLOW001 guarantee covers the whole body.
    """
    payload = {
        "job_id": view["id"],
        "state": view["state"],
        "kind": view.get("kind", "sweep"),
        "coalesce_key": view.get("coalesce_key", ""),
        "backend_requested": view.get("backend_requested", ""),
        "backend_used": view.get("backend_used", ""),
        "degraded": bool(view.get("degraded", False)),
        "events": view.get("n_events", 0),
    }
    if view.get("error"):
        payload["error"] = view["error"]
    if view.get("detail"):
        payload["detail"] = view["detail"]
    if view.get("summary") is not None:
        payload["summary"] = view["summary"]
    return payload


def recommend_payload(
    settings: Sequence[dict], quantile: float, min_lift: float
) -> dict:
    """The body of ``GET /recommend``: per-variable tuning advice.

    ``settings`` is the already-computed recommendation table (one dict
    per variable), passed in so this stays a pure shaping function.
    """
    return {
        "quantile": quantile,
        "min_lift": min_lift,
        "n_recommendations": len(settings),
        "recommendations": list(settings),
    }
