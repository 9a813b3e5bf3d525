"""Cross-system baselines: the vertex-centric superstep engine and the
system profiles that run it."""

from repro.baselines.profiles import PROFILES, SystemProfile, run_baseline
from repro.baselines.vertex_centric import (BellmanFordSSSP, HashMinCC,
                                            IterativePageRank,
                                            SuperstepVertexEngine, VCResult,
                                            VertexCentricProgram)

__all__ = ["PROFILES", "SystemProfile", "run_baseline",
           "SuperstepVertexEngine", "VertexCentricProgram", "VCResult",
           "BellmanFordSSSP", "HashMinCC", "IterativePageRank"]
