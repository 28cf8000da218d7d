"""Workloads that run on the simulated message-passing machine.

* :mod:`repro.apps.cfd` — a CFD-style solver with the paper's seven-loop
  structure (the application example of §4);
* :mod:`repro.apps.synthetic` — fully parameterized synthetic workloads
  for sweeps and ablations;
* :mod:`repro.apps.decomposition` — block/weighted domain decomposition;
* :mod:`repro.apps.imbalance` — deterministic imbalance injectors;
* :mod:`repro.apps.simulate` — :func:`traced_run`, the shared traced run.
"""

from .amr import AMR_REGIONS, AMRConfig, amr_program, run_amr
from .checkpoint import (CHECKPOINT_REGIONS, CheckpointConfig,
                         checkpoint_program, run_checkpoint)
from .cfd import LOOPS, CFDConfig, cfd_program, run_cfd
from .coupled import (COUPLED_REGIONS, CoupledConfig,
                      coupled_program, run_coupled)
from .decomposition import (ProcessGrid, block_bounds, block_partition,
                            square_grid, weighted_partition)
from .masterworker import (MASTER_WORKER_REGIONS, TaskFarm,
                           dynamic_program, run_master_worker,
                           static_program, worker_imbalance)
from .nbody import (NBODY_REGIONS, NBodyConfig, nbody_program,
                    run_nbody)
from .pipeline import (PIPELINE_REGIONS, PipelineConfig,
                       pipeline_program, run_pipeline)
from .simulate import traced_run
from .imbalance import (BALANCED, Block, Explicit, Injector, LinearGradient,
                        RandomJitter, Straggler, imbalance_of,
                        predicted_dispersion)
from .stencil2d import (STENCIL_REGIONS, StencilConfig,
                        run_stencil, stencil_program)
from .synthetic import (PATTERNS, RegionSpec, SyntheticWorkload,
                        imbalance_sweep_workload)

__all__ = [
    "AMR_REGIONS", "AMRConfig", "amr_program", "run_amr",
    "CHECKPOINT_REGIONS", "CheckpointConfig", "checkpoint_program",
    "run_checkpoint",
    "COUPLED_REGIONS", "CoupledConfig", "coupled_program",
    "run_coupled",
    "LOOPS", "CFDConfig", "cfd_program", "run_cfd",
    "ProcessGrid", "block_bounds", "block_partition", "square_grid",
    "weighted_partition",
    "BALANCED", "Block", "Explicit", "Injector", "LinearGradient",
    "RandomJitter", "Straggler", "imbalance_of", "predicted_dispersion",
    "MASTER_WORKER_REGIONS", "TaskFarm", "dynamic_program",
    "run_master_worker", "static_program", "worker_imbalance",
    "NBODY_REGIONS", "NBodyConfig", "nbody_program", "run_nbody",
    "PIPELINE_REGIONS", "PipelineConfig", "pipeline_program",
    "run_pipeline",
    "STENCIL_REGIONS", "StencilConfig", "run_stencil",
    "stencil_program",
    "PATTERNS", "RegionSpec", "SyntheticWorkload",
    "imbalance_sweep_workload", "traced_run",
]
