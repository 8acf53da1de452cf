"""Experiment harness: regenerates every table and figure of the evaluation.

Each experiment function returns a small result dataclass holding both the
measured series/rows and the paper's reported values; the API layer
(:mod:`repro.api.experiments`) adapts them into uniform
:class:`~repro.api.result.ExperimentResult` objects.

Experiment index (README's "Regenerate paper artifacts" shows how to run
them by name):

* :func:`repro.analysis.characterization.run_fig2` — DRAM traffic breakdown
* :func:`repro.analysis.characterization.run_fig3` — GPU FPS per scene
* :func:`repro.analysis.characterization.run_fig4` — bandwidth @ 90 FPS
* :func:`repro.analysis.quality.run_table2` — rendering quality (PSNR)
* :func:`repro.analysis.quality.run_fig7` — boundary-aware fine-tuning
* :func:`repro.analysis.performance.run_fig11` — speedup & energy savings
* :func:`repro.analysis.sensitivity.run_fig12` — voxel-size sensitivity
* :func:`repro.analysis.sensitivity.run_fig13` — CFU/FFU sensitivity
* :func:`repro.analysis.claims.run_supporting_claims` — filtering / VQ claims
* :func:`repro.arch.area.AreaModel.table1` — Table I (area)

The experiment modules import the API layer (their runs share the default
:class:`~repro.api.session.Session`), so the re-exports below resolve
lazily to keep ``repro.analysis.report`` importable from inside
``repro.api`` without a cycle.
"""

from importlib import import_module

from repro.analysis.report import format_series, format_table

#: Lazily re-exported name -> defining submodule.
_LAZY = {
    "SceneContext": "repro.analysis.context",
    "build_scene_context": "repro.analysis.context",
    "run_fig2": "repro.analysis.characterization",
    "run_fig3": "repro.analysis.characterization",
    "run_fig4": "repro.analysis.characterization",
    "run_table2": "repro.analysis.quality",
    "run_fig7": "repro.analysis.quality",
    "run_fig11": "repro.analysis.performance",
    "run_fig12": "repro.analysis.sensitivity",
    "run_fig13": "repro.analysis.sensitivity",
    "run_supporting_claims": "repro.analysis.claims",
}

__all__ = ["format_table", "format_series"] + sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(import_module(_LAZY[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
