"""Design-space exploration of the STREAMINGGS accelerator.

Run with::

    python examples/design_space_exploration.py
    python examples/design_space_exploration.py --jobs 4 --cache-dir results/

Sweeps the two design knobs the paper studies in its sensitivity section —
the number of coarse/fine filter units per HFU (Fig. 13) and the voxel size
(Fig. 12) — as declarative ``session.sweep`` grids on the 'train' scene.
Grid keys are routed automatically: ``cfus_per_hfu``/``ffus_per_hfu`` go to
the accelerator configuration, ``voxel_size`` to the streaming
configuration.

Both settings belong to the :class:`~repro.api.session.Session` every
sweep runs in: ``--jobs N`` fans the voxel-size grid out over N workers
(each voxel size needs its own scene context, so the shards are
independent), and ``--cache-dir`` persists every evaluated point in a
:class:`~repro.api.store.ResultStore`, making a second invocation of this
script render nothing at all.
"""

from __future__ import annotations

import argparse

from repro.api import ExperimentSpec, Session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="sweep worker count (sharded parallel evaluation; default serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the disk-backed result store (default: no caching)",
    )
    args = parser.parse_args(argv)

    session = Session(jobs=args.jobs, store=args.cache_dir)
    base = ExperimentSpec(scene="train")

    # Fig. 13-style sweep: CFU / FFU counts per HFU.  All twelve points
    # share one scene context, so this collapses into a single shard.
    filter_units = session.sweep(base, cfus_per_hfu=(1, 2, 3, 4), ffus_per_hfu=(1, 2, 4))
    print(filter_units.table(
        ["speedup", "energy_savings", "area_mm2"],
        title="Filter-unit design space (train scene)",
    ))
    print()

    # Fig. 12-style sweep: voxel size vs quality and efficiency.  Each
    # voxel size is its own context, so --jobs N shards it N ways.
    voxels = session.sweep(base, voxel_size=(1.0, 1.5, 2.0, 3.0))
    print(voxels.table(
        ["streaming_psnr", "speedup", "energy_savings"],
        title="Voxel-size design space (train scene)",
    ))
    print()

    table1 = session.run("tab1")
    print(f"Default configuration area: {table1.metrics['total_mm2']:.2f} mm^2 "
          "(paper Table I: 5.37 mm^2)")
    if session.store is not None:
        stats = session.store.stats()
        print(f"result store: {stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['entries']} entries in {session.store.root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
